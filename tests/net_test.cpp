#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <optional>
#include <set>
#include <unordered_map>

#include "apps/fabric.hpp"
#include "apps/testbed.hpp"
#include "apps/traffic.hpp"
#include "net/tcp.hpp"
#include "net/topology.hpp"
#include "net/udp.hpp"

namespace netmon::net {
namespace {

using sim::Duration;

TEST(Address, MacFormatting) {
  EXPECT_EQ(MacAddr(0x0200AABBCCDDull).to_string(), "02:00:aa:bb:cc:dd");
  EXPECT_TRUE(MacAddr::broadcast().is_broadcast());
  EXPECT_FALSE(MacAddr(1).is_broadcast());
}

TEST(Address, IpParseAndFormat) {
  EXPECT_EQ(IpAddr::parse("10.0.1.2").to_string(), "10.0.1.2");
  EXPECT_EQ(IpAddr(192, 168, 1, 250).raw(), 0xC0A801FAu);
  EXPECT_THROW(IpAddr::parse("10.0.1"), std::invalid_argument);
  EXPECT_THROW(IpAddr::parse("10.0.1.256"), std::invalid_argument);
  EXPECT_THROW(IpAddr::parse("banana"), std::invalid_argument);
}

TEST(Address, PrefixContainment) {
  const Prefix p(IpAddr(10, 0, 0, 0), 8);
  EXPECT_TRUE(p.contains(IpAddr(10, 255, 3, 4)));
  EXPECT_FALSE(p.contains(IpAddr(11, 0, 0, 1)));
  const Prefix host_route(IpAddr(10, 0, 0, 7), 32);
  EXPECT_TRUE(host_route.contains(IpAddr(10, 0, 0, 7)));
  EXPECT_FALSE(host_route.contains(IpAddr(10, 0, 0, 8)));
  const Prefix all(IpAddr(1, 2, 3, 4), 0);
  EXPECT_TRUE(all.contains(IpAddr(200, 1, 1, 1)));
  EXPECT_THROW(Prefix(IpAddr(), 33), std::invalid_argument);
}

TEST(Address, PrefixMasksHostBits) {
  const Prefix p(IpAddr(10, 0, 3, 7), 16);
  EXPECT_EQ(p.network().to_string(), "10.0.0.0");
  EXPECT_EQ(p.to_string(), "10.0.0.0/16");
}

TEST(Packet, WireSizes) {
  Packet p;
  p.protocol = IpProto::kUdp;
  p.payload_bytes = 100;
  EXPECT_EQ(p.size_on_wire(), 128u);
  p.protocol = IpProto::kTcp;
  EXPECT_EQ(p.size_on_wire(), 140u);
  Frame f{MacAddr(1), MacAddr(2), p};
  EXPECT_EQ(f.size_bytes(), 158u);
}

TEST(Packet, MinimumFrameSize) {
  Packet p;
  p.payload_bytes = 1;
  Frame f{MacAddr(1), MacAddr(2), p};
  EXPECT_EQ(f.size_bytes(), Frame::kMinFrameBytes);
}

TEST(RoutingTable, LongestPrefixWins) {
  RoutingTable table;
  table.add(Prefix(IpAddr(10, 0, 0, 0), 8), IpAddr(1, 1, 1, 1), nullptr);
  table.add(Prefix(IpAddr(10, 1, 0, 0), 16), IpAddr(2, 2, 2, 2), nullptr);
  auto r = table.lookup(IpAddr(10, 1, 5, 5));
  ASSERT_TRUE(r);
  EXPECT_EQ(r->gateway, IpAddr(2, 2, 2, 2));
  r = table.lookup(IpAddr(10, 2, 5, 5));
  ASSERT_TRUE(r);
  EXPECT_EQ(r->gateway, IpAddr(1, 1, 1, 1));
  EXPECT_FALSE(table.lookup(IpAddr(11, 0, 0, 1)));
}

TEST(RoutingTable, LaterEqualLengthOverrides) {
  RoutingTable table;
  table.add(Prefix(IpAddr(10, 0, 0, 1), 32), IpAddr(1, 1, 1, 1), nullptr);
  table.add(Prefix(IpAddr(10, 0, 0, 1), 32), IpAddr(9, 9, 9, 9), nullptr);
  auto r = table.lookup(IpAddr(10, 0, 0, 1));
  ASSERT_TRUE(r);
  EXPECT_EQ(r->gateway, IpAddr(9, 9, 9, 9));
}

TEST(RoutingTable, RemoveByPrefix) {
  RoutingTable table;
  table.add(Prefix(IpAddr(10, 0, 0, 1), 32), IpAddr(1, 1, 1, 1), nullptr);
  table.remove(Prefix(IpAddr(10, 0, 0, 1), 32));
  EXPECT_FALSE(table.lookup(IpAddr(10, 0, 0, 1)));
}

// --- fixture: two hosts on a point-to-point link -------------------------

class P2PFixture : public ::testing::Test {
 protected:
  P2PFixture() : network(sim, util::Rng(1)) {
    a = &network.add_host("a");
    b = &network.add_host("b");
    network.connect(*a, IpAddr(10, 0, 0, 1), *b, IpAddr(10, 0, 0, 2), 24,
                    10e6, Duration::us(100));
    network.auto_route();
  }
  sim::Simulator sim;
  Network network;
  net::Host* a;
  net::Host* b;
};

TEST_F(P2PFixture, UdpDatagramDelivered) {
  int received = 0;
  IpAddr seen_src;
  b->udp().bind(7000, [&](const Packet& p) {
    ++received;
    seen_src = p.src;
  });
  auto& sock = a->udp().bind(0, nullptr);
  sock.send_to(IpAddr(10, 0, 0, 2), 7000, 100, nullptr,
               TrafficClass::kApplication);
  sim.run();
  EXPECT_EQ(received, 1);
  EXPECT_EQ(seen_src, IpAddr(10, 0, 0, 1));
}

TEST_F(P2PFixture, DeliveryDelayMatchesSerializationPlusPropagation) {
  sim::TimePoint arrival{};
  b->udp().bind(7000, [&](const Packet&) { arrival = sim.now(); });
  auto& sock = a->udp().bind(0, nullptr);
  sock.send_to(IpAddr(10, 0, 0, 2), 7000, 1000, nullptr,
               TrafficClass::kApplication);
  sim.run();
  // Frame = 1000 + 28 + 18 = 1046 B -> 836.8us at 10 Mb/s, +100us prop.
  const double expected = 1046.0 * 8.0 / 10e6 + 100e-6;
  EXPECT_NEAR(arrival.to_seconds(), expected, 1e-9);
}

TEST_F(P2PFixture, NoDuplicationNoReorderOnLink) {
  std::vector<std::uint64_t> ids;
  b->udp().bind(7000, [&](const Packet& p) { ids.push_back(p.id); });
  std::vector<std::uint64_t> sent;
  for (int i = 0; i < 50; ++i) {
    sim.schedule_in(Duration::us(i), [&, i] {
      Packet p;
      p.dst = IpAddr(10, 0, 0, 2);
      p.dst_port = 7000;
      p.payload_bytes = 200;
      p.id = 1000 + i;
      sent.push_back(p.id);
      a->send_packet(std::move(p));
    });
  }
  sim.run();
  EXPECT_EQ(ids, sent);
}

TEST_F(P2PFixture, ByteConservationOnNics) {
  b->udp().bind(7000, nullptr);
  auto& sock = a->udp().bind(0, nullptr);
  for (int i = 0; i < 300; ++i) {
    sock.send_to(IpAddr(10, 0, 0, 2), 7000, 1200, nullptr,
                 TrafficClass::kApplication);
  }
  sim.run();
  const auto& out = a->nic(0).counters();
  const auto& in = b->nic(0).counters();
  // Everything transmitted was either delivered or dropped at the sender's
  // queue; nothing vanished on the wire.
  EXPECT_EQ(out.out_frames + out.out_drops, 300u);
  EXPECT_EQ(in.in_frames, out.out_frames);
  EXPECT_EQ(in.in_octets, out.out_octets);
  EXPECT_GT(out.out_drops, 0u);  // a 64-deep queue can't hold a 300 blast
}

TEST_F(P2PFixture, LinkDownHoldsTrafficUntilRestored) {
  int received = 0;
  b->udp().bind(7000, [&](const Packet&) { ++received; });
  network.links()[0]->set_up(false);
  auto& sock = a->udp().bind(0, nullptr);
  sock.send_to(IpAddr(10, 0, 0, 2), 7000, 100, nullptr,
               TrafficClass::kApplication);
  sim.run();
  EXPECT_EQ(received, 0);
  // The frame stayed in the NIC queue (carrier loss does not clear host
  // queues); restoring the link releases it, plus anything sent after.
  network.links()[0]->set_up(true);
  sock.send_to(IpAddr(10, 0, 0, 2), 7000, 100, nullptr,
               TrafficClass::kApplication);
  sim.run();
  EXPECT_EQ(received, 2);
}

TEST_F(P2PFixture, LinkDownDropsFramesInFlight) {
  int received = 0;
  b->udp().bind(7000, [&](const Packet&) { ++received; });
  auto& sock = a->udp().bind(0, nullptr);
  sock.send_to(IpAddr(10, 0, 0, 2), 7000, 1000, nullptr,
               TrafficClass::kApplication);
  // Cut the link mid-flight (serialization alone takes ~837us).
  sim.schedule_in(Duration::us(200),
                  [&] { network.links()[0]->set_up(false); });
  sim.run();
  EXPECT_EQ(received, 0);
  EXPECT_EQ(network.links()[0]->frames_dropped_down(), 1u);
}

TEST_F(P2PFixture, HostDownNeitherSendsNorReceives) {
  int received = 0;
  b->udp().bind(7000, [&](const Packet&) { ++received; });
  b->set_up(false);
  auto& sock = a->udp().bind(0, nullptr);
  sock.send_to(IpAddr(10, 0, 0, 2), 7000, 100, nullptr,
               TrafficClass::kApplication);
  sim.run();
  EXPECT_EQ(received, 0);
  // A down host cannot originate traffic either.
  a->set_up(false);
  auto& sock2 = a->udp().bind(0, nullptr);
  EXPECT_FALSE(sock2.send_to(IpAddr(10, 0, 0, 2), 7000, 100, nullptr,
                             TrafficClass::kApplication));
}

TEST_F(P2PFixture, TrafficClassAccounting) {
  b->udp().bind(7000, nullptr);
  auto& sock = a->udp().bind(0, nullptr);
  sock.send_to(IpAddr(10, 0, 0, 2), 7000, 100, nullptr,
               TrafficClass::kMonitoring);
  sock.send_to(IpAddr(10, 0, 0, 2), 7000, 100, nullptr,
               TrafficClass::kManagement);
  sim.run();
  const auto totals = network.octets_by_class();
  EXPECT_EQ(totals[static_cast<std::size_t>(TrafficClass::kMonitoring)],
            totals[static_cast<std::size_t>(TrafficClass::kManagement)]);
  EXPECT_GT(totals[static_cast<std::size_t>(TrafficClass::kMonitoring)], 0u);
  EXPECT_EQ(totals[static_cast<std::size_t>(TrafficClass::kApplication)], 0u);
}

TEST_F(P2PFixture, NoRouteCounted) {
  Packet p;
  p.dst = IpAddr(99, 9, 9, 9);
  p.dst_port = 1;
  EXPECT_FALSE(a->send_packet(std::move(p)));
  EXPECT_EQ(a->counters().ip_no_routes, 1u);
}

// --- shared segment -------------------------------------------------------

class SharedFixture : public ::testing::Test {
 protected:
  SharedFixture() : network(sim, util::Rng(3)) {
    segment = &network.add_segment("lan", 10e6, Duration::us(5));
    for (int i = 0; i < 4; ++i) {
      auto& host = network.add_host("h" + std::to_string(i));
      network.attach(host, *segment,
                     IpAddr(192, 168, 0, std::uint8_t(i + 1)), 24);
      hosts.push_back(&host);
    }
    network.auto_route();
  }
  sim::Simulator sim;
  Network network;
  SharedSegment* segment;
  std::vector<net::Host*> hosts;
};

TEST_F(SharedFixture, EveryHostDeliversUnicastOnlyToTarget) {
  int at_target = 0, at_others = 0;
  hosts[1]->udp().bind(7000, [&](const Packet&) { ++at_target; });
  hosts[2]->udp().bind(7000, [&](const Packet&) { ++at_others; });
  hosts[3]->udp().bind(7000, [&](const Packet&) { ++at_others; });
  auto& sock = hosts[0]->udp().bind(0, nullptr);
  sock.send_to(IpAddr(192, 168, 0, 2), 7000, 100, nullptr,
               TrafficClass::kApplication);
  sim.run();
  EXPECT_EQ(at_target, 1);
  EXPECT_EQ(at_others, 0);
}

TEST_F(SharedFixture, PromiscuousTapSeesThirdPartyTraffic) {
  std::uint64_t tapped = 0;
  hosts[3]->nic(0).set_promiscuous(true);
  hosts[3]->nic(0).add_tap([&](const Frame&) { ++tapped; });
  hosts[1]->udp().bind(7000, nullptr);
  auto& sock = hosts[0]->udp().bind(0, nullptr);
  for (int i = 0; i < 10; ++i) {
    sock.send_to(IpAddr(192, 168, 0, 2), 7000, 100, nullptr,
                 TrafficClass::kApplication);
  }
  sim.run();
  EXPECT_EQ(tapped, 10u);
}

TEST_F(SharedFixture, ContentionCausesCollisionsButDeliversAll) {
  int received = 0;
  hosts[3]->udp().bind(7000, [&](const Packet&) { ++received; });
  const int kPerSender = 20;
  for (int s = 0; s < 3; ++s) {
    auto& sock = hosts[s]->udp().bind(0, nullptr);
    for (int i = 0; i < kPerSender; ++i) {
      // All enqueue at t=0: guaranteed contention.
      sock.send_to(IpAddr(192, 168, 0, 4), 7000, 400, nullptr,
                   TrafficClass::kApplication);
    }
  }
  sim.run();
  EXPECT_GT(segment->stats().collisions, 0u);
  // Queues are deep enough (64) that everything eventually transmits.
  EXPECT_EQ(received, 3 * kPerSender);
}

TEST_F(SharedFixture, ByteConservationOnSegment) {
  hosts[1]->udp().bind(7000, nullptr);
  auto& sock = hosts[0]->udp().bind(0, nullptr);
  for (int i = 0; i < 25; ++i) {
    sock.send_to(IpAddr(192, 168, 0, 2), 7000, 512, nullptr,
                 TrafficClass::kApplication);
  }
  sim.run();
  const auto& out = hosts[0]->nic(0).counters();
  EXPECT_EQ(segment->stats().octets_carried, out.out_octets);
  EXPECT_EQ(hosts[1]->nic(0).counters().in_octets, out.out_octets);
}

TEST_F(SharedFixture, UtilizationReflectsLoad) {
  hosts[1]->udp().bind(7000, nullptr);
  apps::CbrTraffic::Config cfg;
  cfg.rate_bps = 5e6;  // half the segment
  cfg.packet_bytes = 1000;
  cfg.dst_port = 7000;
  apps::CbrTraffic cbr(*hosts[0], IpAddr(192, 168, 0, 2), cfg);
  cbr.start();
  sim.run_for(Duration::sec(2));
  cbr.stop();
  const double u = segment->utilization(sim.now());
  EXPECT_GT(u, 0.40);
  EXPECT_LT(u, 0.70);
}

TEST_F(SharedFixture, SaturationDropsFromFiniteQueues) {
  hosts[1]->udp().bind(7000, nullptr);
  apps::CbrTraffic::Config cfg;
  cfg.rate_bps = 20e6;  // 2x the segment capacity
  cfg.packet_bytes = 1000;
  cfg.dst_port = 7000;
  apps::CbrTraffic cbr(*hosts[0], IpAddr(192, 168, 0, 2), cfg);
  cbr.start();
  sim.run_for(Duration::sec(1));
  cbr.stop();
  sim.run();
  EXPECT_GT(hosts[0]->nic(0).counters().out_drops, 0u);
}

// --- switch ---------------------------------------------------------------

class SwitchFixture : public ::testing::Test {
 protected:
  SwitchFixture() : network(sim, util::Rng(5)) {
    sw = &network.add_switch("sw");
    for (int i = 0; i < 3; ++i) {
      auto& host = network.add_host("h" + std::to_string(i));
      network.attach(host, *sw, IpAddr(10, 0, 0, std::uint8_t(i + 1)), 24,
                     100e6, Duration::us(1));
      hosts.push_back(&host);
    }
    network.auto_route();
  }
  sim::Simulator sim;
  Network network;
  Switch* sw;
  std::vector<net::Host*> hosts;
};

TEST_F(SwitchFixture, PrimedTablesForwardWithoutFlooding) {
  // auto_route() statically provisions the MAC table from the topology:
  // even the very first unicast is forwarded, never flooded.
  EXPECT_EQ(sw->mac_table_size(), 3u);
  int received = 0;
  hosts[1]->udp().bind(7000, [&](const Packet&) { ++received; });
  auto& sock = hosts[0]->udp().bind(0, nullptr);
  sock.send_to(IpAddr(10, 0, 0, 2), 7000, 100, nullptr,
               TrafficClass::kApplication);
  sim.run();
  EXPECT_EQ(received, 1);
  EXPECT_EQ(sw->frames_flooded(), 0u);
  EXPECT_GE(sw->frames_forwarded(), 1u);
}

TEST(SwitchLearning, ColdTableFloodsThenLearns) {
  // Without auto_route (no provisioning) the switch behaves classically:
  // unknown unicast floods, the reply is forwarded on the learned port.
  sim::Simulator sim;
  Network network(sim, util::Rng(6));
  auto& sw = network.add_switch("sw");
  auto& h0 = network.add_host("h0");
  auto& h1 = network.add_host("h1");
  Nic& n0 = network.attach(h0, sw, IpAddr(10, 0, 0, 1), 24, 100e6);
  Nic& n1 = network.attach(h1, sw, IpAddr(10, 0, 0, 2), 24, 100e6);
  // Hand-written direct routes instead of auto_route.
  h0.routing().add(Prefix(IpAddr(10, 0, 0, 0), 24), IpAddr{}, &n0);
  h1.routing().add(Prefix(IpAddr(10, 0, 0, 0), 24), IpAddr{}, &n1);

  h1.udp().bind(7000, nullptr);
  h0.udp().bind(7001, nullptr);
  auto& s0 = h0.udp().bind(0, nullptr);
  auto& s1 = h1.udp().bind(0, nullptr);
  s0.send_to(IpAddr(10, 0, 0, 2), 7000, 100, nullptr,
             TrafficClass::kApplication);
  sim.run();
  EXPECT_EQ(sw.frames_flooded(), 1u);
  // Reply: h0's MAC was learned from the first frame.
  s1.send_to(IpAddr(10, 0, 0, 1), 7001, 100, nullptr,
             TrafficClass::kApplication);
  sim.run();
  EXPECT_EQ(sw.frames_flooded(), 1u);
  EXPECT_EQ(sw.frames_forwarded(), 1u);
}

TEST_F(SwitchFixture, ThirdPartyCannotSniffSwitchedUnicast) {
  // The paper's point: on switched media passive probes see (almost)
  // nothing. After MACs are learned, host2 sees none of host0<->host1.
  std::uint64_t tapped = 0;
  hosts[2]->nic(0).set_promiscuous(true);
  hosts[1]->udp().bind(7000, nullptr);
  hosts[0]->udp().bind(7001, nullptr);
  auto& s0 = hosts[0]->udp().bind(0, nullptr);
  auto& s1 = hosts[1]->udp().bind(0, nullptr);
  // Learn both directions first.
  s0.send_to(IpAddr(10, 0, 0, 2), 7000, 64, nullptr, TrafficClass::kOther);
  s1.send_to(IpAddr(10, 0, 0, 1), 7001, 64, nullptr, TrafficClass::kOther);
  sim.run();
  hosts[2]->nic(0).add_tap([&](const Frame&) { ++tapped; });
  for (int i = 0; i < 20; ++i) {
    s0.send_to(IpAddr(10, 0, 0, 2), 7000, 100, nullptr,
               TrafficClass::kApplication);
  }
  sim.run();
  EXPECT_EQ(tapped, 0u);
}

// --- routed topology -------------------------------------------------------

TEST(RoutedTopology, PacketsCrossRouters) {
  sim::Simulator sim;
  Network network(sim, util::Rng(7));
  auto& h1 = network.add_host("h1");
  auto& r1 = network.add_router("r1");
  auto& r2 = network.add_router("r2");
  auto& h2 = network.add_host("h2");
  network.connect(h1, IpAddr(10, 1, 0, 1), r1, IpAddr(10, 1, 0, 2), 24, 10e6);
  network.connect(r1, IpAddr(10, 2, 0, 1), r2, IpAddr(10, 2, 0, 2), 24, 10e6);
  network.connect(r2, IpAddr(10, 3, 0, 1), h2, IpAddr(10, 3, 0, 2), 24, 10e6);
  network.auto_route();

  int received = 0;
  std::uint8_t ttl_seen = 0;
  h2.udp().bind(7000, [&](const Packet& p) {
    ++received;
    ttl_seen = p.ttl;
  });
  auto& sock = h1.udp().bind(0, nullptr);
  sock.send_to(IpAddr(10, 3, 0, 2), 7000, 100, nullptr,
               TrafficClass::kApplication);
  sim.run();
  EXPECT_EQ(received, 1);
  EXPECT_EQ(ttl_seen, 62);  // two router hops decrement TTL twice
  EXPECT_EQ(r1.counters().ip_forwarded, 1u);
  EXPECT_EQ(r2.counters().ip_forwarded, 1u);
}

TEST(RoutedTopology, TtlExpiryDropsPacket) {
  sim::Simulator sim;
  Network network(sim, util::Rng(7));
  auto& h1 = network.add_host("h1");
  auto& r1 = network.add_router("r1");
  auto& h2 = network.add_host("h2");
  network.connect(h1, IpAddr(10, 1, 0, 1), r1, IpAddr(10, 1, 0, 2), 24, 10e6);
  network.connect(r1, IpAddr(10, 2, 0, 1), h2, IpAddr(10, 2, 0, 2), 24, 10e6);
  network.auto_route();
  int received = 0;
  h2.udp().bind(7000, [&](const Packet&) { ++received; });
  Packet p;
  p.dst = IpAddr(10, 2, 0, 2);
  p.dst_port = 7000;
  p.payload_bytes = 10;
  p.ttl = 1;
  h1.send_packet(std::move(p));
  sim.run();
  EXPECT_EQ(received, 0);
  EXPECT_EQ(r1.counters().ip_ttl_exceeded, 1u);
}

TEST(RoutedTopology, AsymmetricRoutesCanBreakOneDirection) {
  // Two disjoint router paths; h1 reaches h2 via rA, and h2's reverse route
  // is forced via rB whose link we cut: forward works, reverse does not —
  // the paper's argument against sniffing-based reachability (§4.3).
  sim::Simulator sim;
  Network network(sim, util::Rng(9));
  auto& h1 = network.add_host("h1");
  auto& h2 = network.add_host("h2");
  auto& ra = network.add_router("ra");
  auto& rb = network.add_router("rb");
  network.connect(h1, IpAddr(10, 1, 0, 1), ra, IpAddr(10, 1, 0, 2), 24, 10e6);
  network.connect(ra, IpAddr(10, 2, 0, 1), h2, IpAddr(10, 2, 0, 2), 24, 10e6);
  auto [h1b, rb1] = network.connect(h1, IpAddr(10, 3, 0, 1), rb,
                                    IpAddr(10, 3, 0, 2), 24, 10e6);
  (void)h1b;
  auto [rb2, h2b] = network.connect(rb, IpAddr(10, 4, 0, 1), h2,
                                    IpAddr(10, 4, 0, 2), 24, 10e6);
  (void)rb2;
  network.auto_route();
  // Force h2 -> h1 over rb.
  h2.routing().add(Prefix(IpAddr(10, 1, 0, 1), 32), IpAddr(10, 4, 0, 1), h2b);
  // Break the rb path.
  rb.set_up(false);

  int fwd = 0, rev = 0;
  h2.udp().bind(7000, [&](const Packet&) { ++fwd; });
  h1.udp().bind(7000, [&](const Packet&) { ++rev; });
  auto& s1 = h1.udp().bind(0, nullptr);
  auto& s2 = h2.udp().bind(0, nullptr);
  s1.send_to(IpAddr(10, 2, 0, 2), 7000, 50, nullptr, TrafficClass::kOther);
  s2.send_to(IpAddr(10, 1, 0, 1), 7000, 50, nullptr, TrafficClass::kOther);
  sim.run();
  EXPECT_EQ(fwd, 1);  // h1 -> h2 via ra still works
  EXPECT_EQ(rev, 0);  // h2 -> h1 forced through dead rb
}

TEST(Topology, DuplicateIpRejected) {
  sim::Simulator sim;
  Network network(sim, util::Rng(1));
  auto& seg = network.add_segment("lan", 10e6);
  auto& h1 = network.add_host("h1");
  auto& h2 = network.add_host("h2");
  network.attach(h1, seg, IpAddr(10, 0, 0, 1), 24);
  EXPECT_THROW(network.attach(h2, seg, IpAddr(10, 0, 0, 1), 24),
               std::logic_error);
}

TEST(Topology, FindHelpers) {
  sim::Simulator sim;
  Network network(sim, util::Rng(1));
  auto& seg = network.add_segment("lan", 10e6);
  auto& h1 = network.add_host("alpha");
  network.attach(h1, seg, IpAddr(10, 0, 0, 1), 24);
  EXPECT_EQ(network.find_host("alpha"), &h1);
  EXPECT_EQ(network.find_host("beta"), nullptr);
  EXPECT_EQ(network.host_of(IpAddr(10, 0, 0, 1)), &h1);
  EXPECT_EQ(network.host_of(IpAddr(10, 0, 0, 99)), nullptr);
  EXPECT_TRUE(network.mac_of(IpAddr(10, 0, 0, 1)).has_value());
  EXPECT_FALSE(network.mac_of(IpAddr(10, 0, 0, 99)).has_value());
}

// --- topology indices against a brute-force reference --------------------

// Network's lookups recomputed the slow way: a linear host scan, a linear
// longest-prefix scan of each routing table, and a switch-port map rebuilt
// on every route walk.
class BruteForceTopology {
 public:
  explicit BruteForceTopology(const Network& network) : network_(network) {}

  Host* host_of(IpAddr ip) const {
    for (const auto& h : network_.hosts()) {
      if (h->owns_ip(ip)) return h.get();
    }
    return nullptr;
  }

  Nic* nic_of(IpAddr ip) const {
    if (ip.is_unspecified()) return nullptr;
    for (const auto& h : network_.hosts()) {
      for (const auto& nic : h->nics()) {
        if (nic->ip() == ip) return nic.get();
      }
    }
    return nullptr;
  }

  static std::optional<Route> lookup(const RoutingTable& table, IpAddr dst) {
    std::optional<Route> best;
    for (const Route& r : table.routes()) {
      if (r.prefix.contains(dst) &&
          (!best || r.prefix.length() >= best->prefix.length())) {
        best = r;
      }
    }
    return best;
  }

  // Returns the L3 hop count and fills the media crossed.
  std::size_t walk(IpAddr src, IpAddr dst,
                   std::vector<const Medium*>& media) const {
    std::unordered_map<const Nic*, const Switch*> port_owner;
    for (const auto& sw : network_.switches()) {
      for (const auto& port : sw->ports()) port_owner[port.get()] = sw.get();
    }
    auto push_unique = [&media](const Medium* m) {
      if (m != nullptr &&
          std::find(media.begin(), media.end(), m) == media.end()) {
        media.push_back(m);
      }
    };
    auto walk_l2 = [&](const Nic* cur, const Nic* target) {
      for (int i = 0; i < 64 && cur != nullptr; ++i) {
        const Medium* medium = cur->medium();
        if (medium == nullptr) return;
        push_unique(medium);
        const Nic* next = nullptr;
        for (Nic* nic : medium->attached_nics()) {
          if (nic == cur) continue;
          if (nic == target) return;
          auto owner = port_owner.find(nic);
          if (owner == port_owner.end() || next != nullptr) continue;
          Nic* out = owner->second->port_for(target->mac());
          if (out != nullptr && out != nic) next = out;
        }
        cur = next;
      }
    };
    std::size_t hops = 0;
    const Host* cur = host_of(src);
    for (int i = 0; i < 32 && cur != nullptr && !cur->owns_ip(dst); ++i) {
      const auto route = lookup(cur->routing(), dst);
      if (!route || route->out == nullptr) break;
      ++hops;
      const IpAddr hop_ip =
          route->gateway.is_unspecified() ? dst : route->gateway;
      const Nic* hop_nic = nic_of(hop_ip);
      if (hop_nic == nullptr) break;
      walk_l2(route->out, hop_nic);
      const Host* next = host_of(hop_ip);
      if (next == cur) break;
      cur = next;
    }
    return hops;
  }

 private:
  const Network& network_;
};

// Every assigned address (plus one nobody owns) resolves as the brute
// force does, and every ordered pair routes over the same media and hops.
// Returns how many pairs crossed a router, so callers can tell the check
// covered multi-hop routes.
std::size_t expect_lookups_match_brute_force(const Network& network) {
  const BruteForceTopology ref(network);
  std::vector<IpAddr> addrs;
  for (const auto& h : network.hosts()) {
    for (const auto& nic : h->nics()) {
      if (!nic->ip().is_unspecified()) addrs.push_back(nic->ip());
    }
  }
  addrs.push_back(IpAddr(192, 0, 2, 1));
  addrs.push_back(IpAddr{});
  std::size_t routed = 0;
  for (IpAddr a : addrs) {
    EXPECT_EQ(network.host_of(a), ref.host_of(a)) << a.to_string();
    EXPECT_EQ(network.nic_of(a), ref.nic_of(a)) << a.to_string();
    for (IpAddr b : addrs) {
      std::vector<const Medium*> media;
      const std::size_t hops = ref.walk(a, b, media);
      EXPECT_EQ(network.route_media(a, b), media)
          << a.to_string() << " -> " << b.to_string();
      EXPECT_EQ(network.route_hops(a, b), hops)
          << a.to_string() << " -> " << b.to_string();
      const auto trace = network.trace_route(a, b);
      EXPECT_EQ(trace.media, media);
      EXPECT_EQ(trace.hops, hops);
      if (hops > 1) ++routed;
    }
  }
  return routed;
}

TEST(TopologyIndex, SmallFabricMatchesBruteForce) {
  sim::Simulator sim;
  apps::FabricOptions opt;
  opt.spines = 2;
  opt.client_edges = 3;
  opt.clients_per_edge = 3;
  opt.server_edges = 2;
  opt.servers_per_edge = 2;
  opt.install_sinks = false;
  apps::FabricTestbed bed(sim, opt);
  EXPECT_GT(expect_lookups_match_brute_force(bed.network()), 0u);
}

TEST(TopologyIndex, RtdsTestbedMatchesBruteForce) {
  sim::Simulator sim;
  apps::TestbedOptions opt;
  opt.install_agents = false;
  opt.install_sinks = false;
  apps::Testbed bed(sim, opt);
  expect_lookups_match_brute_force(bed.network());
  EXPECT_EQ(bed.network().route_hops(bed.server_ip(0), bed.client_ip(8)), 1u);
  EXPECT_EQ(bed.network().route_media(bed.server_ip(0), bed.client_ip(8)).size(),
            2u);
}

TEST(TopologyIndex, LateAttachmentsAreIndexed) {
  sim::Simulator sim;
  Network network(sim, util::Rng(3));
  auto& sw0 = network.add_switch("sw0");
  auto& h0 = network.add_host("h0");
  auto& h1 = network.add_host("h1");
  network.attach(h0, sw0, IpAddr(10, 0, 0, 1), 24, 100e6);
  network.attach(h1, sw0, IpAddr(10, 0, 0, 2), 24, 100e6);
  network.auto_route();
  EXPECT_EQ(network.host_of(IpAddr(10, 0, 0, 1)), &h0);
  EXPECT_EQ(network.host_of(IpAddr(10, 0, 0, 3)), nullptr);
  EXPECT_EQ(network.route_media(IpAddr(10, 0, 0, 1), IpAddr(10, 0, 0, 2)).size(),
            2u);

  // Grow the topology after the first lookups: a second switch behind a
  // trunk, a host on it, and a router leading to a point-to-point host.
  auto& sw1 = network.add_switch("sw1");
  network.connect(sw0, sw1, 100e6);
  auto& h2 = network.add_host("h2");
  network.attach(h2, sw1, IpAddr(10, 0, 0, 3), 24, 100e6);
  auto& r = network.add_router("r");
  network.attach(r, sw1, IpAddr(10, 0, 0, 254), 24, 100e6);
  auto& h3 = network.add_host("h3");
  network.connect(r, IpAddr(10, 1, 0, 1), h3, IpAddr(10, 1, 0, 2), 24, 10e6);
  network.auto_route();

  EXPECT_EQ(network.host_of(IpAddr(10, 0, 0, 3)), &h2);
  EXPECT_EQ(network.host_of(IpAddr(10, 1, 0, 1)), &r);
  EXPECT_EQ(network.host_of(IpAddr(10, 1, 0, 2)), &h3);
  ASSERT_NE(network.nic_of(IpAddr(10, 1, 0, 2)), nullptr);
  const auto media =
      network.route_media(IpAddr(10, 0, 0, 1), IpAddr(10, 0, 0, 3));
  ASSERT_EQ(media.size(), 3u);  // h0 link, sw0<->sw1 trunk, h2 link
  const Medium* trunk = nullptr;
  for (const auto& link : network.links()) {
    if (link->name() == "sw0<->sw1") trunk = link.get();
  }
  EXPECT_EQ(media[1], trunk);
  EXPECT_EQ(network.route_hops(IpAddr(10, 0, 0, 1), IpAddr(10, 1, 0, 2)), 2u);
  EXPECT_EQ(network.route_media(IpAddr(10, 0, 0, 1), IpAddr(10, 1, 0, 2)).size(),
            4u);  // h0 link, trunk, r's sw1 link, r<->h3
  EXPECT_GT(expect_lookups_match_brute_force(network), 0u);
}

TEST(Udp, EphemeralPortsUniqueAndRebindRejected) {
  sim::Simulator sim;
  Network network(sim, util::Rng(1));
  auto& seg = network.add_segment("lan", 10e6);
  auto& h = network.add_host("h");
  network.attach(h, seg, IpAddr(10, 0, 0, 1), 24);
  auto& s1 = h.udp().bind(0, nullptr);
  auto& s2 = h.udp().bind(0, nullptr);
  EXPECT_NE(s1.port(), s2.port());
  EXPECT_THROW(h.udp().bind(s1.port(), nullptr), std::logic_error);
  s1.close();
  EXPECT_NO_THROW(h.udp().bind(49152, nullptr));
}

TEST(Udp, NoPortCounterIncrements) {
  sim::Simulator sim;
  Network network(sim, util::Rng(1));
  auto& seg = network.add_segment("lan", 10e6);
  auto& h1 = network.add_host("h1");
  auto& h2 = network.add_host("h2");
  network.attach(h1, seg, IpAddr(10, 0, 0, 1), 24);
  network.attach(h2, seg, IpAddr(10, 0, 0, 2), 24);
  network.auto_route();
  auto& sock = h1.udp().bind(0, nullptr);
  sock.send_to(IpAddr(10, 0, 0, 2), 9999, 10, nullptr, TrafficClass::kOther);
  sim.run();
  EXPECT_EQ(h2.udp().counters().no_ports, 1u);
}

// --- ephemeral port allocation ----------------------------------------------

// Regression: bind(0) post-incremented a uint16_t counter, so after 65535 it
// bound port 0 and then walked the well-known and registered ranges (40,000
// bind/close cycles gave port 0 once and 23,616 ports below 49152).
TEST(EphemeralPorts, UdpWrapsInsideItsRangeAndSkipsBoundPorts) {
  sim::Simulator sim;
  Network network(sim, util::Rng(1));
  auto& h = network.add_host("h");
  const std::uint16_t pinned = 49160;
  h.udp().bind(pinned, nullptr);
  std::size_t outside = 0;
  std::size_t reused_pinned = 0;
  std::size_t wraps = 0;
  std::uint16_t previous = 0;
  for (int i = 0; i < 40'000; ++i) {
    auto& s = h.udp().bind(0, nullptr);
    const std::uint16_t port = s.port();
    if (port < UdpStack::kEphemeralFirst) ++outside;
    if (port == pinned) ++reused_pinned;
    if (port < previous) ++wraps;
    previous = port;
    s.close();
  }
  EXPECT_EQ(outside, 0u);
  EXPECT_EQ(reused_pinned, 0u);
  EXPECT_EQ(wraps, 2u);  // 40,000 binds over a 16,383-port cycle
}

TEST(EphemeralPorts, UdpExhaustionThrowsInsteadOfLeavingTheRange) {
  sim::Simulator sim;
  Network network(sim, util::Rng(1));
  auto& h = network.add_host("h");
  std::set<std::uint16_t> ports;
  const int range = UdpStack::kEphemeralLast - UdpStack::kEphemeralFirst + 1;
  for (int i = 0; i < range; ++i) ports.insert(h.udp().bind(0, nullptr).port());
  EXPECT_EQ(ports.size(), static_cast<std::size_t>(range));
  EXPECT_EQ(*ports.begin(), UdpStack::kEphemeralFirst);
  EXPECT_EQ(*ports.rbegin(), UdpStack::kEphemeralLast);
  EXPECT_THROW(h.udp().bind(0, nullptr), std::runtime_error);
}

// Regression: the TCP counter wrapped the same way, and a new connection
// whose (remote, local) key collided replaced the live one in the
// connection table.
TEST(EphemeralPorts, TcpWrapsInsideItsRangeAndNeverReplacesALiveConnection) {
  sim::Simulator sim;
  Network network(sim, util::Rng(1));
  auto& h = network.add_host("h");  // no routes: segments go nowhere
  const IpAddr peer(10, 0, 0, 9);
  auto live = h.tcp().connect(peer, 80);
  const std::uint16_t live_port = live->local_port();
  std::size_t outside = 0;
  std::size_t collisions = 0;
  for (int i = 0; i < 40'000; ++i) {
    auto conn = h.tcp().connect(peer, 80);
    if (conn->local_port() < TcpStack::kEphemeralFirst) ++outside;
    if (conn->local_port() == live_port) ++collisions;
    conn->abort();  // removes exactly its own table entry
  }
  EXPECT_EQ(outside, 0u);
  EXPECT_EQ(collisions, 0u);
  EXPECT_EQ(h.tcp().active_connections(), 1u);  // the live one survived
}

// Closed sockets are recycled: a later bind reuses one without allocating,
// and closing drops the handler's captures at once.
TEST(Udp, ClosedSocketReleasesItsHandlerAndIsReboundFresh) {
  sim::Simulator sim;
  Network network(sim, util::Rng(1));
  auto& seg = network.add_segment("lan", 10e6);
  auto& h1 = network.add_host("h1");
  auto& h2 = network.add_host("h2");
  network.attach(h1, seg, IpAddr(10, 0, 0, 1), 24);
  network.attach(h2, seg, IpAddr(10, 0, 0, 2), 24);
  network.auto_route();
  auto token = std::make_shared<int>(0);
  auto& first = h2.udp().bind(7000, [token](const Packet&) { ++*token; });
  EXPECT_EQ(token.use_count(), 2);
  first.close();
  EXPECT_EQ(token.use_count(), 1);

  int received = 0;
  auto& second = h2.udp().bind(7001, [&received](const Packet&) { ++received; });
  EXPECT_EQ(second.port(), 7001);
  auto& tx = h1.udp().bind(0, nullptr);
  tx.send_to(IpAddr(10, 0, 0, 2), 7000, 10, nullptr, TrafficClass::kOther);
  tx.send_to(IpAddr(10, 0, 0, 2), 7001, 10, nullptr, TrafficClass::kOther);
  sim.run();
  EXPECT_EQ(received, 1);
  EXPECT_EQ(*token, 0);
  EXPECT_EQ(h2.udp().counters().no_ports, 1u);
}

// A socket may close itself from inside its own handler and a new bind may
// recycle it right away (a reachability probe does both per reply): the
// running handler must finish intact.
TEST(Udp, SocketClosedAndRecycledInsideItsOwnHandler) {
  sim::Simulator sim;
  Network network(sim, util::Rng(1));
  auto& seg = network.add_segment("lan", 10e6);
  auto& h1 = network.add_host("h1");
  auto& h2 = network.add_host("h2");
  network.attach(h1, seg, IpAddr(10, 0, 0, 1), 24);
  network.attach(h2, seg, IpAddr(10, 0, 0, 2), 24);
  network.auto_route();
  std::vector<std::uint16_t> handled;
  UdpSocket* rx = nullptr;
  std::function<void(const Packet&)> handler = [&](const Packet& p) {
    const std::uint16_t port = rx->port();
    rx->close();
    rx = &h2.udp().bind(0, handler);  // reuses the socket being run
    handled.push_back(port);
    EXPECT_EQ(p.dst_port, port);
  };
  rx = &h2.udp().bind(0, handler);
  auto& tx = h1.udp().bind(0, nullptr);
  for (int i = 0; i < 3; ++i) {
    tx.send_to(IpAddr(10, 0, 0, 2), rx->port(), 10, nullptr,
               TrafficClass::kOther);
    sim.run();
  }
  ASSERT_EQ(handled.size(), 3u);
  EXPECT_NE(handled[0], handled[1]);
}

// --- transmit ring -------------------------------------------------------------

TEST_F(P2PFixture, TransmitRingKeepsFifoOrderAcrossGrowthAndWrap) {
  // Bursts of 1-12 frames against a link that drains ~7 per step: the
  // backlog grows the ring past its initial size and its head wraps while
  // frames are queued. Packet ids are assigned in send order, so FIFO
  // delivery means ascending ids with none lost.
  std::vector<std::uint64_t> seen;
  b->udp().bind(7000, [&](const Packet& p) { seen.push_back(p.id); });
  auto& sock = a->udp().bind(0, nullptr);
  std::size_t sent = 0;
  for (int step = 0; step < 60; ++step) {
    const int burst = 1 + (step * 5) % 12;
    for (int i = 0; i < burst; ++i) {
      sock.send_to(IpAddr(10, 0, 0, 2), 7000, 200, nullptr,
                   TrafficClass::kApplication);
      ++sent;
    }
    sim.run_for(Duration::us(1500));
  }
  sim.run();
  EXPECT_EQ(network.nic_of(IpAddr(10, 0, 0, 1))->counters().out_drops, 0u);
  ASSERT_EQ(seen.size(), sent);
  EXPECT_TRUE(std::is_sorted(seen.begin(), seen.end()));
  EXPECT_EQ(std::set<std::uint64_t>(seen.begin(), seen.end()).size(),
            seen.size());
}

}  // namespace
}  // namespace netmon::net
