// Parameterized property sweeps across randomized configurations: the
// system-wide invariants from DESIGN.md §6 must hold for *every* seed and
// parameter point, not just the hand-picked ones in the unit tests.

#include <gtest/gtest.h>

#include "apps/testbed.hpp"
#include "apps/traffic.hpp"
#include "core/measurement_db.hpp"
#include "net/tcp.hpp"
#include "net/topology.hpp"
#include "nttcp/nttcp.hpp"

namespace netmon {
namespace {

using sim::Duration;

// --- TCP: stream integrity under every loss regime ---------------------------

struct TcpCase {
  std::uint64_t seed;
  double bandwidth_bps;
  Duration delay;
  std::size_t queue;  // NIC queue depth: small queues force heavy loss
  std::size_t bytes;
};

class TcpIntegritySweep : public ::testing::TestWithParam<TcpCase> {};

TEST_P(TcpIntegritySweep, DeliversExactStream) {
  const TcpCase& c = GetParam();
  sim::Simulator sim;
  net::Network network(sim, util::Rng(c.seed));
  auto& a = network.add_host("a");
  auto& b = network.add_host("b");
  auto [na, nb] = network.connect(a, net::IpAddr(10, 0, 0, 1), b,
                                  net::IpAddr(10, 0, 0, 2), 24,
                                  c.bandwidth_bps, c.delay, c.queue);
  (void)na;
  (void)nb;
  network.auto_route();

  std::vector<std::byte> payload(c.bytes);
  util::Rng rng(c.seed ^ 0xABCD);
  for (auto& byte : payload) {
    byte = static_cast<std::byte>(rng.uniform_int(0, 255));
  }
  std::vector<std::byte> received;
  b.tcp().listen(9000, [&](std::shared_ptr<net::TcpConnection> conn) {
    conn->set_receive_handler([&received, conn](std::span<const std::byte> d) {
      received.insert(received.end(), d.begin(), d.end());
    });
  });
  auto conn = a.tcp().connect(net::IpAddr(10, 0, 0, 2), 9000);
  conn->set_established_handler([&] { conn->send(payload); });
  sim.run_for(Duration::sec(300));

  // Invariant: the delivered stream equals the sent stream, in order, with
  // no gaps or duplicates — no matter how much the path lost.
  ASSERT_EQ(received.size(), payload.size());
  EXPECT_EQ(received, payload);
  EXPECT_EQ(conn->counters().bytes_acked, payload.size());
}

INSTANTIATE_TEST_SUITE_P(
    LossRegimes, TcpIntegritySweep,
    ::testing::Values(
        TcpCase{1, 10e6, Duration::ms(1), 64, 100'000},
        TcpCase{2, 10e6, Duration::ms(1), 8, 100'000},    // brutal queue
        TcpCase{3, 1e6, Duration::ms(20), 16, 60'000},    // slow, long RTT
        TcpCase{4, 100e6, Duration::us(50), 32, 400'000}, // fast LAN
        TcpCase{5, 2e6, Duration::ms(5), 4, 50'000},      // tiny queue
        TcpCase{6, 10e6, Duration::ms(1), 64, 1},         // single byte
        TcpCase{7, 10e6, Duration::ms(1), 64, 1460},      // exactly one MSS
        TcpCase{8, 10e6, Duration::ms(1), 64, 1461}));    // MSS + 1

// --- NTTCP: accounting invariants across burst configurations ----------------

struct ProbeCase {
  std::uint64_t seed;
  std::uint32_t length;
  std::uint32_t count;
  int inter_send_ms;
};

class NttcpSweep : public ::testing::TestWithParam<ProbeCase> {};

TEST_P(NttcpSweep, AccountingInvariantsHold) {
  const ProbeCase& c = GetParam();
  sim::Simulator sim;
  apps::TestbedOptions options;
  options.servers = 1;
  options.clients = 1;
  options.seed = c.seed;
  apps::Testbed bed(sim, options);

  nttcp::NttcpConfig cfg;
  cfg.message_length = c.length;
  cfg.message_count = c.count;
  cfg.inter_send = Duration::ms(c.inter_send_ms);
  nttcp::NttcpResult result;
  bool done = false;
  nttcp::NttcpProbe probe(bed.server(0), bed.client_ip(0), cfg,
                          [&](const nttcp::NttcpResult& r) {
                            result = r;
                            done = true;
                          });
  probe.start();
  sim.run_for(Duration::sec(120));

  ASSERT_TRUE(done);
  ASSERT_TRUE(result.completed);
  // Invariants: nothing received that was not sent; bytes match message
  // accounting; loss fraction consistent; latency samples = received count
  // on an uncongested switched path (no losses expected).
  EXPECT_EQ(result.messages_sent, c.count);
  EXPECT_LE(result.messages_received, result.messages_sent);
  EXPECT_EQ(result.bytes_received,
            std::uint64_t(result.messages_received) * c.length);
  EXPECT_NEAR(result.loss_fraction,
              1.0 - double(result.messages_received) / double(c.count), 1e-9);
  EXPECT_EQ(result.latency.count(), result.messages_received);
  EXPECT_GT(result.probe_bytes_on_wire,
            std::uint64_t(result.messages_sent) * c.length);
}

INSTANTIATE_TEST_SUITE_P(
    Bursts, NttcpSweep,
    ::testing::Values(ProbeCase{11, 64, 1, 1}, ProbeCase{12, 64, 2, 1},
                      ProbeCase{13, 8192, 8, 30}, ProbeCase{14, 1024, 64, 2},
                      ProbeCase{15, 16384, 4, 10},
                      ProbeCase{16, 1, 16, 1}));  // minimal message

// --- shared segment: byte conservation under contention -----------------------

class SegmentConservationSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SegmentConservationSweep, DeliveredPlusDroppedEqualsSent) {
  sim::Simulator sim;
  net::Network network(sim, util::Rng(GetParam()));
  auto& seg = network.add_segment("lan", 10e6);
  std::vector<net::Host*> hosts;
  for (int i = 0; i < 5; ++i) {
    auto& h = network.add_host("h" + std::to_string(i));
    network.attach(h, seg, net::IpAddr(192, 168, 0, std::uint8_t(i + 1)), 24);
    hosts.push_back(&h);
  }
  network.auto_route();
  hosts[4]->udp().bind(7000, nullptr);

  util::Rng rng(GetParam() ^ 0xFEED);
  std::uint64_t attempted = 0;
  for (int s = 0; s < 4; ++s) {
    auto& sock = hosts[s]->udp().bind(0, nullptr);
    for (int i = 0; i < 200; ++i) {
      sim.schedule_in(Duration::us(rng.uniform_int(0, 500'000)), [&sock, &attempted] {
        ++attempted;
        sock.send_to(net::IpAddr(192, 168, 0, 5), 7000, 600, nullptr,
                     net::TrafficClass::kOther);
      });
    }
  }
  sim.run();

  std::uint64_t transmitted = 0, dropped = 0;
  for (int s = 0; s < 4; ++s) {
    transmitted += hosts[s]->nic(0).counters().out_frames;
    dropped += hosts[s]->nic(0).counters().out_drops;
  }
  // Conservation: every attempted datagram was either transmitted onto the
  // segment or counted as a drop; every transmitted frame was heard.
  EXPECT_EQ(transmitted + dropped, attempted);
  EXPECT_EQ(hosts[4]->nic(0).counters().in_frames, transmitted);
  EXPECT_EQ(seg.stats().frames_carried, transmitted);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SegmentConservationSweep,
                         ::testing::Values(101, 202, 303, 404, 505));

// --- measurement database: last-known monotonicity under random updates -------

TEST(MeasurementDbProperty, LastKnownAlwaysNewestValidRecord) {
  util::Rng rng(77);
  core::MeasurementDatabase db;
  core::Path path(
      core::ProcessEndpoint{"a", net::IpAddr(1, 1, 1, 1), 0},
      core::ProcessEndpoint{"b", net::IpAddr(2, 2, 2, 2), 0});
  std::optional<std::pair<std::int64_t, double>> newest_valid;
  std::int64_t t = 0;
  for (int i = 0; i < 2000; ++i) {
    t += rng.uniform_int(1, 100);
    const bool valid = rng.bernoulli(0.7);
    const double value = rng.uniform(0.0, 100.0);
    db.record(path, core::Metric::kThroughput,
              valid ? core::MetricValue::of(value,
                                            sim::TimePoint::from_nanos(t))
                    : core::MetricValue::failed(sim::TimePoint::from_nanos(t)));
    if (valid) newest_valid = {t, value};
    auto last = db.last_known(path, core::Metric::kThroughput);
    ASSERT_EQ(last.has_value(), newest_valid.has_value());
    if (last) {
      EXPECT_EQ(last->measured_at.nanos(), newest_valid->first);
      EXPECT_DOUBLE_EQ(last->value, newest_valid->second);
    }
    // Senescence equals the age of the newest record of any validity.
    auto age = db.senescence(path, core::Metric::kThroughput,
                             sim::TimePoint::from_nanos(t + 5));
    ASSERT_TRUE(age);
    EXPECT_EQ(age->nanos(), 5);
  }
}

}  // namespace
}  // namespace netmon
