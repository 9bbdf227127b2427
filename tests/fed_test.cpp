// Federation tests (DESIGN.md §14), in three layers:
//  1. Wire codec fuzzing, mirroring tests/snmp_fuzz_test.cpp: seeded random
//     messages must survive encode → parse → re-encode byte-identically,
//     every prefix truncation must read as incomplete (not an error), and
//     random mutations/garbage must either decode or throw WireError —
//     never crash or read out of bounds (the sanitize preset hardens this).
//  2. Parent watermark protocol against a hand-driven raw client: duplicate
//     pages are skipped and re-acked, sequence jumps are counted as
//     implicit gaps, gap reports below the watermark are not double-counted,
//     and protocol violations kill exactly the offending session.
//  3. End-to-end child ↔ parent over the simulated TCP stack: streaming
//     exactness, spool overflow with truthful gap accounting, crash/restart
//     replay of only unacked pages, zone staleness, and same-seed
//     determinism of both replication logs.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <variant>
#include <vector>

#include "core/measurement_db.hpp"
#include "fed/child.hpp"
#include "fed/parent.hpp"
#include "fed/wire.hpp"
#include "net/tcp.hpp"
#include "net/topology.hpp"
#include "obs/metrics.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"

namespace netmon::fed {
namespace {

using core::Metric;
using core::MetricValue;
using core::Path;
using core::ProcessEndpoint;
using core::TierPoint;
using sim::Duration;
using sim::TimePoint;

// --- wire codec fuzzing ------------------------------------------------------

std::string random_string(util::Rng& rng, int max_len) {
  std::string s;
  const int len = static_cast<int>(rng.uniform_int(0, max_len));
  for (int i = 0; i < len; ++i) {
    s.push_back(static_cast<char>(rng.uniform_int(32, 126)));
  }
  return s;
}

std::vector<TierPoint> random_points(util::Rng& rng) {
  std::vector<TierPoint> points(
      static_cast<std::size_t>(rng.uniform_int(0, 12)));
  std::int64_t t = rng.uniform_int(0, 1'000'000'000);
  for (TierPoint& p : points) {
    p.first_ns = t + rng.uniform_int(0, 5'000'000);
    p.last_ns = p.first_ns + rng.uniform_int(0, 5'000'000);
    t = p.last_ns;
    p.min = static_cast<double>(rng.uniform_int(-1'000'000, 1'000'000)) * 0.5;
    p.max = p.min + static_cast<double>(rng.uniform_int(0, 1'000'000));
    p.count = static_cast<std::uint32_t>(rng.uniform_int(1, 100));
    p.valid_count = static_cast<std::uint32_t>(rng.uniform_int(0, p.count));
    p.sum = p.min * p.valid_count;
  }
  return points;
}

Message random_message(util::Rng& rng) {
  switch (rng.uniform_int(0, 7)) {
    case 0:
      return HelloMsg{random_string(rng, 40), rng.next(),
                      static_cast<std::uint16_t>(rng.uniform_int(0, 65535))};
    case 1: {
      HelloAckMsg ack;
      ack.incarnation = rng.next();
      const int n = static_cast<int>(rng.uniform_int(0, 8));
      for (int i = 0; i < n; ++i) {
        ack.watermarks.push_back(SeriesWatermark{
            static_cast<std::uint32_t>(rng.next()), rng.next()});
      }
      return ack;
    }
    case 2: {
      SeriesDeclMsg decl;
      decl.series = static_cast<std::uint32_t>(rng.next());
      decl.metric = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
      const int n = static_cast<int>(rng.uniform_int(0, 4));
      for (int i = 0; i < n; ++i) {
        decl.endpoints.push_back(WireEndpoint{
            random_string(rng, 24), static_cast<std::uint32_t>(rng.next()),
            static_cast<std::uint16_t>(rng.uniform_int(0, 65535))});
      }
      return decl;
    }
    case 3:
      return PageMsg{static_cast<std::uint32_t>(rng.next()), rng.next(),
                     static_cast<std::uint8_t>(rng.uniform_int(0, 7)),
                     random_points(rng)};
    case 4:
      return DeltaMsg{
          static_cast<std::uint32_t>(rng.next()),
          rng.uniform_int(-1'000'000'000, 1'000'000'000'000),
          static_cast<double>(rng.uniform_int(-1'000'000, 1'000'000)) * 0.25,
          rng.bernoulli(0.5)};
    case 5:
      return AckMsg{static_cast<std::uint32_t>(rng.next()), rng.next()};
    case 6: {
      const std::uint64_t from = rng.next() >> 1;
      return GapMsg{static_cast<std::uint32_t>(rng.next()), from,
                    from + rng.next() % 1024, rng.next()};
    }
    default:
      return HeartbeatMsg{rng.uniform_int(0, 1'000'000'000'000)};
  }
}

// Parses exactly one message out of a complete frame.
Message parse_one(const std::vector<std::byte>& frame) {
  FrameParser parser;
  parser.feed(frame);
  auto m = parser.next();
  if (!m) throw WireError("frame did not yield a message");
  if (parser.buffered() != 0) throw WireError("trailing bytes after frame");
  return *m;
}

TEST(FedWire, CrcKnownVector) {
  // The IEEE 802.3 check value: CRC32("123456789") == 0xCBF43926.
  const char* s = "123456789";
  EXPECT_EQ(crc32(reinterpret_cast<const std::byte*>(s), 9), 0xCBF43926u);
}

TEST(FedWire, EncodeParseReEncodeIsByteIdentical) {
  util::Rng rng(0xFED1);
  for (int i = 0; i < 1000; ++i) {
    const Message original = random_message(rng);
    const std::vector<std::byte> frame = encode(original);
    Message decoded;
    try {
      decoded = parse_one(frame);
    } catch (const WireError& e) {
      FAIL() << "round " << i << ": valid frame rejected: " << e.what();
    }
    EXPECT_EQ(decoded.index(), original.index()) << "round " << i;
    ASSERT_EQ(encode(decoded), frame)
        << "round " << i << ": re-encoding is not byte-identical";
  }
}

TEST(FedWire, ExtremeValuesRoundTrip) {
  // Zigzag/varint edge magnitudes: timestamps far apart in both directions,
  // maximal counters.
  PageMsg page;
  page.series = 0xFFFFFFFFu;
  page.page_seq = 0xFFFFFFFFFFFFFFFFull;
  page.tier = 255;
  TierPoint a;
  a.first_ns = -(std::int64_t{1} << 62);
  a.last_ns = std::int64_t{1} << 62;
  a.min = -1e300;
  a.max = 1e300;
  a.sum = 12345.6789;
  a.count = 0xFFFFFFFFu;
  a.valid_count = 0xFFFFFFFFu;
  TierPoint b;  // time runs backwards relative to a: offsets go negative
  b.first_ns = -(std::int64_t{1} << 61);
  b.last_ns = b.first_ns;
  b.count = 1;
  b.valid_count = 0;
  page.points = {a, b};
  const auto frame = encode(page);
  const Message decoded = parse_one(frame);
  EXPECT_EQ(encode(decoded), frame);
  const auto& p = std::get<PageMsg>(decoded);
  ASSERT_EQ(p.points.size(), 2u);
  EXPECT_EQ(p.points[0].first_ns, a.first_ns);
  EXPECT_EQ(p.points[0].last_ns, a.last_ns);
  EXPECT_EQ(p.points[1].first_ns, b.first_ns);

  const GapMsg gap{1, 0xFFFFFFFFFFFFFFFEull, 0xFFFFFFFFFFFFFFFFull,
                   0xFFFFFFFFFFFFFFFFull};
  const auto gap_frame = encode(gap);
  const Message gap_decoded = parse_one(gap_frame);
  const auto& g = std::get<GapMsg>(gap_decoded);
  EXPECT_EQ(g.from_seq, gap.from_seq);
  EXPECT_EQ(g.to_seq, gap.to_seq);
  EXPECT_EQ(g.points, gap.points);
}

TEST(FedWire, EveryPrefixTruncationIsIncompleteNotError) {
  util::Rng rng(0xFED2);
  for (int i = 0; i < 100; ++i) {
    const std::vector<std::byte> frame = encode(random_message(rng));
    for (std::size_t len = 0; len < frame.size(); ++len) {
      FrameParser parser;
      parser.feed(std::span(frame.data(), len));
      std::optional<Message> m;
      try {
        m = parser.next();
      } catch (const WireError& e) {
        FAIL() << "round " << i << ": truncation to " << len << "/"
               << frame.size() << " bytes threw: " << e.what();
      }
      EXPECT_FALSE(m.has_value())
          << "round " << i << ": truncation to " << len << " bytes decoded";
      // The tail must complete the message once the rest arrives.
      parser.feed(std::span(frame.data() + len, frame.size() - len));
      EXPECT_TRUE(parser.next().has_value()) << "round " << i;
    }
  }
}

TEST(FedWire, MutatedFramesEitherDecodeOrThrowWireError) {
  util::Rng rng(0xFED3);
  for (int i = 0; i < 2000; ++i) {
    std::vector<std::byte> frame = encode(random_message(rng));
    const int mutations = static_cast<int>(rng.uniform_int(1, 8));
    for (int m = 0; m < mutations; ++m) {
      const std::size_t pos = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(frame.size()) - 1));
      frame[pos] = static_cast<std::byte>(rng.uniform_int(0, 255));
    }
    FrameParser parser;
    parser.feed(frame);
    try {
      while (auto m = parser.next()) {
        // A surviving mutant must still re-encode cleanly.
        (void)encode(*m);
      }
    } catch (const WireError&) {
      // Equally fine: the mutation broke framing, CRC, or validation.
    }
  }
}

TEST(FedWire, RandomGarbageNeverCrashes) {
  util::Rng rng(0xFED4);
  for (int i = 0; i < 2000; ++i) {
    std::vector<std::byte> junk(
        static_cast<std::size_t>(rng.uniform_int(0, 600)));
    for (std::byte& b : junk) {
      b = static_cast<std::byte>(rng.uniform_int(0, 255));
    }
    FrameParser parser;
    parser.feed(junk);
    try {
      while (parser.next()) {
      }
    } catch (const WireError&) {
      // expected for almost all inputs
    }
  }
}

TEST(FedWire, ChunkedFeedYieldsEveryMessageInOrder) {
  util::Rng rng(0xFED5);
  std::vector<Message> sent;
  std::vector<std::byte> stream;
  for (int i = 0; i < 40; ++i) {
    sent.push_back(random_message(rng));
    const auto frame = encode(sent.back());
    stream.insert(stream.end(), frame.begin(), frame.end());
  }
  FrameParser parser;
  std::vector<Message> got;
  for (std::size_t i = 0; i < stream.size(); ++i) {
    parser.feed(std::span(stream.data() + i, 1));
    while (auto m = parser.next()) got.push_back(std::move(*m));
  }
  ASSERT_EQ(got.size(), sent.size());
  for (std::size_t i = 0; i < sent.size(); ++i) {
    EXPECT_EQ(encode(got[i]), encode(sent[i])) << "message " << i;
  }
  EXPECT_EQ(parser.buffered(), 0u);
}

// --- shared topology fixture -------------------------------------------------

core::TieredStorageConfig small_tiers() {
  core::TieredStorageConfig cfg;
  cfg.page_points = 8;  // pages seal every 8 samples, so tests stream early
  cfg.rollup_factor = 4;
  cfg.tiers = 2;
  return cfg;
}

class FedFixture : public ::testing::Test {
 protected:
  FedFixture()
      : network(sim, util::Rng(7)), child_db(small_tiers()) {
    parent_host = &network.add_host("parent");
    child_host = &network.add_host("child");
    network.connect(*parent_host, net::IpAddr(10, 0, 0, 1), *child_host,
                    net::IpAddr(10, 0, 0, 2), 24, 10e6, Duration::ms(1));
    network.auto_route();
  }

  FedChildConfig child_config() {
    FedChildConfig cfg;
    cfg.zone = "zone-a";
    cfg.parent_ip = net::IpAddr(10, 0, 0, 1);
    return cfg;
  }

  static Path app_path(int i = 0) {
    return Path(ProcessEndpoint{"app-server", net::IpAddr(10, 1, 0, 10), 5000},
                ProcessEndpoint{"app-client",
                                net::IpAddr(10, 1, 0, 100 + i), 5000});
  }

  // Records `n` samples `gap` apart, advancing simulated time.
  void record_samples(const Path& path, int n, Duration gap,
                      double base = 1000.0) {
    for (int i = 0; i < n; ++i) {
      sim.run_for(gap);
      child_db.record(path, Metric::kThroughput,
                      MetricValue::of(base + i, sim.now()));
    }
  }

  void set_host_nics(net::Host& host, bool up) {
    for (const auto& nic : host.nics()) nic->set_up(up);
  }

  // Sum of per-point sample counts the parent's store holds for a path.
  std::uint64_t merged_count(const Path& path) {
    const auto result = parent_db.query(path, Metric::kThroughput,
                                        TimePoint::from_nanos(0), sim.now(),
                                        Duration::ns(0));
    std::uint64_t count = 0;
    for (const auto& p : result.points) count += p.count;
    return count;
  }

  sim::Simulator sim;
  net::Network network;
  net::Host* parent_host;
  net::Host* child_host;
  core::MeasurementDatabase parent_db;
  core::MeasurementDatabase child_db;
};

// --- parent watermark protocol via a raw client ------------------------------

// A hand-driven wire-speaking client: lets tests hit the parent with exact
// message sequences (duplicates, jumps, garbage) no well-behaved child sends.
class RawClient {
 public:
  RawClient(net::Host& host, net::IpAddr ip, std::uint16_t port) {
    conn_ = host.tcp().connect(ip, port);
    conn_->set_receive_handler([this](std::span<const std::byte> data) {
      parser_.feed(data);
      while (auto m = parser_.next()) received.push_back(std::move(*m));
    });
    conn_->set_close_handler([this] { closed = true; });
  }
  ~RawClient() {
    conn_->set_close_handler(nullptr);
    conn_->set_receive_handler(nullptr);
  }

  void send(const Message& m) {
    const auto frame = encode(m);
    conn_->send(std::span<const std::byte>(frame.data(), frame.size()));
  }
  void send_raw(const std::vector<std::byte>& bytes) {
    conn_->send(std::span<const std::byte>(bytes.data(), bytes.size()));
  }

  template <typename T>
  int count() const {
    int n = 0;
    for (const auto& m : received) n += std::holds_alternative<T>(m);
    return n;
  }
  const AckMsg* last_ack() const {
    for (auto it = received.rbegin(); it != received.rend(); ++it) {
      if (const auto* ack = std::get_if<AckMsg>(&*it)) return ack;
    }
    return nullptr;
  }

  std::vector<Message> received;
  bool closed = false;

 private:
  std::shared_ptr<net::TcpConnection> conn_;
  FrameParser parser_;
};

TierPoint simple_point(std::int64_t at_ns, double v) {
  TierPoint p;
  p.first_ns = at_ns;
  p.last_ns = at_ns;
  p.min = p.max = p.sum = v;
  p.count = 1;
  p.valid_count = 1;
  return p;
}

PageMsg simple_page(std::uint32_t series, std::uint64_t seq, int points) {
  PageMsg page;
  page.series = series;
  page.page_seq = seq;
  for (int i = 0; i < points; ++i) {
    page.points.push_back(
        simple_point(static_cast<std::int64_t>(seq) * 1000 + i, 1.0));
  }
  return page;
}

SeriesDeclMsg simple_decl(std::uint32_t series) {
  SeriesDeclMsg decl;
  decl.series = series;
  decl.metric = 0;
  decl.endpoints = {WireEndpoint{"s", net::IpAddr(10, 2, 0, 1).raw(), 1},
                    WireEndpoint{"c", net::IpAddr(10, 2, 0, 2).raw(), 1}};
  return decl;
}

TEST_F(FedFixture, ParentSkipsDuplicatesAndCountsImplicitGaps) {
  FedParent parent(*parent_host, parent_db, {});
  parent.start();
  RawClient client(*child_host, net::IpAddr(10, 0, 0, 1), 7171);
  sim.run_for(Duration::ms(500));

  client.send(HelloMsg{"raw-zone", 1, 1});
  sim.run_for(Duration::ms(200));
  ASSERT_EQ(client.count<HelloAckMsg>(), 1);
  EXPECT_TRUE(parent.zone_known("raw-zone"));

  client.send(simple_decl(5));
  client.send(simple_page(5, 1, 3));
  sim.run_for(Duration::ms(200));
  EXPECT_EQ(parent.stats().pages_merged, 1u);
  EXPECT_EQ(parent.stats().points_merged, 3u);
  ASSERT_NE(client.last_ack(), nullptr);
  EXPECT_EQ(client.last_ack()->page_seq, 1u);

  // Replay of page 1: skipped, zero re-merge, still acked at the watermark.
  client.send(simple_page(5, 1, 3));
  sim.run_for(Duration::ms(200));
  EXPECT_EQ(parent.stats().duplicates_skipped, 1u);
  EXPECT_EQ(parent.stats().pages_merged, 1u);
  EXPECT_EQ(client.last_ack()->page_seq, 1u);

  // Jump to page 5: pages 2-4 vanished without a GapMsg — counted.
  client.send(simple_page(5, 5, 2));
  sim.run_for(Duration::ms(200));
  EXPECT_EQ(parent.stats().implicit_gap_pages, 3u);
  EXPECT_EQ(parent.stats().pages_merged, 2u);
  EXPECT_EQ(client.last_ack()->page_seq, 5u);

  // Gap entirely below the watermark: already accounted, must not add loss.
  client.send(GapMsg{5, 2, 4, 9});
  sim.run_for(Duration::ms(200));
  EXPECT_EQ(parent.stats().gap_reports, 1u);
  EXPECT_EQ(parent.stats().gaps_applied, 0u);
  EXPECT_EQ(parent.stats().points_lost, 0u);

  // Gap beyond the watermark: honest loss, watermark advances past it.
  client.send(GapMsg{5, 6, 7, 11});
  sim.run_for(Duration::ms(200));
  EXPECT_EQ(parent.stats().gaps_applied, 1u);
  EXPECT_EQ(parent.stats().points_lost, 11u);
  EXPECT_EQ(parent.zone_points_lost("raw-zone"), 11u);
  EXPECT_EQ(client.last_ack()->page_seq, 7u);
  EXPECT_EQ(parent.stats().protocol_errors, 0u);
  EXPECT_FALSE(client.closed);
}

TEST_F(FedFixture, ParentKillsProtocolViolatorsOnly) {
  FedParent parent(*parent_host, parent_db, {});
  parent.start();

  {  // page before Hello
    RawClient client(*child_host, net::IpAddr(10, 0, 0, 1), 7171);
    sim.run_for(Duration::ms(500));
    client.send(simple_page(1, 1, 1));
    sim.run_for(Duration::ms(500));
    EXPECT_EQ(parent.stats().protocol_errors, 1u);
    EXPECT_TRUE(client.closed);
  }
  {  // empty zone name
    RawClient client(*child_host, net::IpAddr(10, 0, 0, 1), 7171);
    sim.run_for(Duration::ms(500));
    client.send(HelloMsg{"", 1, 1});
    sim.run_for(Duration::ms(500));
    EXPECT_EQ(parent.stats().protocol_errors, 2u);
    EXPECT_TRUE(client.closed);
  }
  {  // page for a series never declared
    RawClient client(*child_host, net::IpAddr(10, 0, 0, 1), 7171);
    sim.run_for(Duration::ms(500));
    client.send(HelloMsg{"violator", 1, 1});
    client.send(simple_page(9, 1, 1));
    sim.run_for(Duration::ms(500));
    EXPECT_EQ(parent.stats().protocol_errors, 3u);
    EXPECT_TRUE(client.closed);
  }
  {  // framing garbage
    RawClient client(*child_host, net::IpAddr(10, 0, 0, 1), 7171);
    sim.run_for(Duration::ms(500));
    client.send_raw(std::vector<std::byte>(16, std::byte{0x00}));
    sim.run_for(Duration::ms(500));
    EXPECT_EQ(parent.stats().protocol_errors, 4u);
    EXPECT_TRUE(client.closed);
  }
  // A well-behaved zone still works after all of that.
  RawClient good(*child_host, net::IpAddr(10, 0, 0, 1), 7171);
  sim.run_for(Duration::ms(500));
  good.send(HelloMsg{"good", 1, 1});
  good.send(simple_decl(1));
  good.send(simple_page(1, 1, 2));
  sim.run_for(Duration::ms(500));
  EXPECT_EQ(parent.stats().pages_merged, 1u);
  EXPECT_FALSE(good.closed);
}

// --- end-to-end child <-> parent --------------------------------------------

TEST_F(FedFixture, StreamsEverySealedPointExactlyOnce) {
  FedParent parent(*parent_host, parent_db, {});
  FedChild child(*child_host, child_db, child_config());
  parent.start();
  child.start();
  sim.run_for(Duration::ms(500));
  ASSERT_TRUE(child.session_established());

  const Path path = app_path();
  record_samples(path, 40, Duration::ms(50));  // 5 pages of 8
  sim.run_for(Duration::sec(5));               // quiesce

  EXPECT_EQ(child.stats().pages_spooled, 5u);
  EXPECT_EQ(child.stats().points_spooled, 40u);
  EXPECT_EQ(child.stats().pages_shed, 0u);
  EXPECT_EQ(child.stats().pages_acked, 5u);
  EXPECT_EQ(child.spool_pages(), 0u);  // fully drained

  EXPECT_EQ(parent.stats().pages_merged, 5u);
  EXPECT_EQ(parent.stats().points_merged, 40u);
  EXPECT_EQ(parent.stats().duplicates_skipped, 0u);
  EXPECT_EQ(parent.stats().points_lost, 0u);
  EXPECT_EQ(parent.stats().implicit_gap_pages, 0u);
  EXPECT_EQ(merged_count(path), 40u);

  // Deltas kept the parent's current-value view fresh alongside the pages.
  EXPECT_GT(child.stats().deltas_sent, 0u);
  EXPECT_EQ(parent.stats().deltas_applied, child.stats().deltas_sent);
  EXPECT_FALSE(parent.zone_stale("zone-a", sim.now()));
  const core::PathId pid = parent_db.find(path);
  ASSERT_NE(pid, core::kInvalidPathId);
  const auto current = parent.zone_current("zone-a", pid, Metric::kThroughput,
                                           sim.now(), Duration::sec(30));
  ASSERT_TRUE(current.has_value());
  EXPECT_DOUBLE_EQ(current->value, 1000.0 + 39);
}

TEST_F(FedFixture, SpoolOverflowShedsOldestAndAccountsEveryPoint) {
  FedParent parent(*parent_host, parent_db, {});
  FedChildConfig cfg = child_config();
  cfg.spool_max_pages = 3;
  FedChild child(*child_host, child_db, cfg);
  child.start();  // parent not listening yet: connects fail into backoff

  const Path path = app_path();
  record_samples(path, 80, Duration::ms(10));  // 10 pages against a 3-page spool
  EXPECT_EQ(child.stats().pages_spooled, 10u);
  EXPECT_EQ(child.stats().pages_shed, 7u);
  EXPECT_EQ(child.stats().points_shed, 56u);
  EXPECT_EQ(child.spool_pages(), 3u);
  EXPECT_FALSE(child.session_established());

  // Let at least one connect attempt exhaust its SYN retransmissions so the
  // jittered-backoff retry path runs before the parent finally appears.
  sim.run_for(Duration::sec(150));
  EXPECT_GT(child.stats().connect_failures, 0u);

  parent.start();
  sim.run_for(Duration::sec(60));  // ride out connect backoff, then drain

  ASSERT_TRUE(child.session_established());
  EXPECT_EQ(child.stats().gap_reports, 7u);
  EXPECT_EQ(parent.stats().gap_reports, 7u);
  EXPECT_EQ(parent.stats().gaps_applied, 7u);
  EXPECT_EQ(parent.stats().points_lost, 56u);
  EXPECT_EQ(parent.stats().pages_merged, 3u);
  EXPECT_EQ(parent.stats().points_merged, 24u);
  // Conservation: every spooled point is accounted merged or lost, once.
  EXPECT_EQ(parent.stats().points_merged + parent.stats().points_lost,
            child.stats().points_spooled);
  EXPECT_EQ(merged_count(path), 24u);
  EXPECT_EQ(child.spool_pages(), 0u);
}

// Regression: shed pages must be reported in seq order. With a send window
// smaller than the spool, a later unsent page is shed while earlier pages
// are in flight; once the session drops, those earlier pages become the
// oldest unsent ones and are shed too — below the gap already pending. A
// gap list kept in shed order made pump() report gap 3 before gap 1, the
// parent then skipped gap 1 as already covered, and points went missing.
TEST_F(FedFixture, GapsShedOutOfSeqOrderAreReportedInOrder) {
  FedParent parent(*parent_host, parent_db, {});
  FedChildConfig cfg = child_config();
  cfg.spool_max_pages = 4;
  cfg.window_pages = 2;
  FedChild child(*child_host, child_db, cfg);
  parent.start();
  child.start();
  sim.run_for(Duration::ms(500));
  ASSERT_TRUE(child.session_established());

  // Partition the parent. Pages 1-2 go in flight (the window), 3-4 wait;
  // sealing 5 and 6 sheds the oldest unsent pages, 3 and 4.
  set_host_nics(*parent_host, false);
  const Path path = app_path();
  record_samples(path, 48, Duration::ms(10));
  EXPECT_EQ(child.stats().pages_shed, 2u);

  // The ack timeout drops the session: pages 1-2 are no longer in flight,
  // so sealing 7 and 8 sheds them — below the pending gaps 3 and 4.
  sim.run_for(Duration::sec(6));
  EXPECT_FALSE(child.session_established());
  record_samples(path, 16, Duration::ms(10));
  EXPECT_EQ(child.stats().pages_spooled, 8u);
  EXPECT_EQ(child.stats().pages_shed, 4u);

  set_host_nics(*parent_host, true);
  sim.run_for(Duration::sec(120));
  ASSERT_TRUE(child.session_established());
  EXPECT_EQ(parent.stats().implicit_gap_pages, 0u);
  EXPECT_EQ(parent.stats().gaps_applied, 4u);
  EXPECT_EQ(parent.stats().points_lost, 32u);
  EXPECT_EQ(parent.stats().points_merged, 32u);
  EXPECT_EQ(parent.stats().points_merged + parent.stats().points_lost,
            child.stats().points_spooled);
  EXPECT_EQ(merged_count(path), 32u);
  EXPECT_EQ(child.spool_pages(), 0u);
}

TEST_F(FedFixture, CrashRestartReplaysOnlyUnackedPages) {
  FedParent parent(*parent_host, parent_db, {});
  FedChild child(*child_host, child_db, child_config());
  parent.start();
  child.start();
  sim.run_for(Duration::ms(500));
  ASSERT_TRUE(child.session_established());

  const Path path = app_path();
  record_samples(path, 16, Duration::ms(20));  // pages 1-2
  sim.run_for(Duration::sec(2));
  EXPECT_EQ(child.stats().pages_acked, 2u);
  EXPECT_EQ(parent.stats().pages_merged, 2u);

  // Partition the parent: pages 3-4 go into a black hole, unacked.
  set_host_nics(*parent_host, false);
  record_samples(path, 16, Duration::ms(20));  // pages 3-4
  EXPECT_EQ(child.stats().pages_spooled, 4u);
  sim.run_for(Duration::sec(6));  // ack timeout fires, session drops

  child.crash();
  set_host_nics(*parent_host, true);
  child.restart();
  sim.run_for(Duration::sec(60));

  EXPECT_EQ(child.incarnation(), 2u);
  EXPECT_EQ(child.stats().crashes, 1u);
  EXPECT_EQ(child.stats().restarts, 1u);
  ASSERT_TRUE(child.session_established());

  // Pages 1-2 were acked before the crash and are never re-sent; pages 3-4
  // were sent once into the partition and re-sent after resume.
  EXPECT_EQ(child.stats().pages_resent, 2u);
  EXPECT_EQ(parent.stats().pages_merged, 4u);
  EXPECT_EQ(parent.stats().points_merged, 32u);
  EXPECT_EQ(parent.stats().points_lost, 0u);
  EXPECT_EQ(parent.stats().implicit_gap_pages, 0u);
  EXPECT_EQ(merged_count(path), 32u);  // zero duplicate points
  EXPECT_EQ(child.spool_pages(), 0u);
  EXPECT_EQ(parent.stats().resumes, 1u);
}

TEST_F(FedFixture, SilentZoneGoesStaleAndRefusesReads) {
  FedParent parent(*parent_host, parent_db, {});
  FedChild child(*child_host, child_db, child_config());
  parent.start();
  child.start();
  const Path path = app_path();
  record_samples(path, 16, Duration::ms(50));
  sim.run_for(Duration::sec(1));
  ASSERT_TRUE(child.session_established());
  ASSERT_FALSE(parent.zone_stale("zone-a", sim.now()));
  const core::PathId pid = parent_db.find(path);
  ASSERT_NE(pid, core::kInvalidPathId);
  ASSERT_TRUE(parent
                  .zone_current("zone-a", pid, Metric::kThroughput, sim.now(),
                                Duration::sec(30))
                  .has_value());
  const auto fresh_sen =
      parent.zone_senescence("zone-a", pid, Metric::kThroughput, sim.now());
  ASSERT_TRUE(fresh_sen.has_value());

  // Partition the child: heartbeats stop, silence grows past stale_after.
  set_host_nics(*child_host, false);
  sim.run_for(Duration::sec(8));

  EXPECT_TRUE(parent.zone_stale("zone-a", sim.now()));
  EXPECT_FALSE(parent
                   .zone_current("zone-a", pid, Metric::kThroughput, sim.now(),
                                 Duration::sec(300))
                   .has_value());
  // Senescence is floored by the silence: a dead child cannot look fresh.
  const auto sen =
      parent.zone_senescence("zone-a", pid, Metric::kThroughput, sim.now());
  ASSERT_TRUE(sen.has_value());
  const auto silence = parent.zone_silence("zone-a", sim.now());
  ASSERT_TRUE(silence.has_value());
  EXPECT_GE(sen->nanos(), silence->nanos());
  EXPECT_GT(silence->nanos(), Duration::sec(3).nanos());

  // Unknown zones are maximally stale, not fresh.
  EXPECT_TRUE(parent.zone_stale("never-heard-of-it", sim.now()));
}

// Both replication logs of one run: retained text plus the digest over every
// line ever appended, so a bounded log checks no less than a full one.
struct ScenarioLogs {
  std::string child;
  std::string parent;
  std::uint64_t child_digest = 0;
  std::uint64_t parent_digest = 0;
};

// A fixed scenario with traffic, a partition window, and recovery; returns
// both replication logs for determinism comparison.
ScenarioLogs run_scenario(std::uint64_t seed) {
  sim::Simulator sim;
  net::Network network(sim, util::Rng(seed));
  net::Host& parent_host = network.add_host("parent");
  net::Host& child_host = network.add_host("child");
  network.connect(parent_host, net::IpAddr(10, 0, 0, 1), child_host,
                  net::IpAddr(10, 0, 0, 2), 24, 10e6, Duration::ms(1));
  network.auto_route();
  core::MeasurementDatabase parent_db;
  core::MeasurementDatabase child_db(small_tiers());
  FedParent parent(parent_host, parent_db, {});
  FedChildConfig cfg;
  cfg.zone = "det-zone";
  cfg.parent_ip = net::IpAddr(10, 0, 0, 1);
  FedChild child(child_host, child_db, cfg);
  parent.start();
  child.start();
  const Path path(ProcessEndpoint{"s", net::IpAddr(10, 1, 0, 1), 1},
                  ProcessEndpoint{"c", net::IpAddr(10, 1, 0, 2), 1});
  for (int i = 0; i < 30; ++i) {
    sim.run_for(Duration::ms(40));
    child_db.record(path, Metric::kThroughput,
                    MetricValue::of(100.0 + i, sim.now()));
  }
  for (const auto& nic : parent_host.nics()) nic->set_up(false);
  for (int i = 0; i < 30; ++i) {
    sim.run_for(Duration::ms(40));
    child_db.record(path, Metric::kThroughput,
                    MetricValue::of(200.0 + i, sim.now()));
  }
  sim.run_for(Duration::sec(5));
  for (const auto& nic : parent_host.nics()) nic->set_up(true);
  sim.run_for(Duration::sec(30));
  return {child.log().export_text(), parent.log().export_text(),
          child.log().digest(), parent.log().digest()};
}

TEST(FedDeterminism, SameSeedProducesBitIdenticalReplicationLogs) {
  const ScenarioLogs first = run_scenario(21);
  const ScenarioLogs second = run_scenario(21);
  EXPECT_FALSE(first.child.empty());
  EXPECT_FALSE(first.parent.empty());
  EXPECT_EQ(first.child, second.child);
  EXPECT_EQ(first.parent, second.parent);
  EXPECT_EQ(first.child_digest, second.child_digest);
  EXPECT_EQ(first.parent_digest, second.parent_digest);
}

TEST_F(FedFixture, ObservabilityExportsFederationGauges) {
  if (!obs::kCompiledIn) GTEST_SKIP() << "observability compiled out";
  obs::Registry registry;
  {
    FedParent parent(*parent_host, parent_db, {});
    FedChild child(*child_host, child_db, child_config());
    parent.attach_observability(registry);
    child.attach_observability(registry);
    parent.start();
    child.start();
    record_samples(app_path(), 16, Duration::ms(50));
    sim.run_for(Duration::sec(2));

    EXPECT_TRUE(registry.contains("fed.child.spool.pages"));
    EXPECT_TRUE(registry.contains("fed.child.watermark_lag_pages"));
    EXPECT_TRUE(registry.contains("fed.child.session_up"));
    EXPECT_TRUE(registry.contains("fed.parent.pages_merged"));
    EXPECT_TRUE(registry.contains("fed.parent.points_lost"));
    const std::string json = registry.export_json();
    EXPECT_NE(json.find("fed.child.pages_spooled"), std::string::npos);
    EXPECT_NE(json.find("fed.parent.sessions"), std::string::npos);
  }
  // Child and parent ended with the block; their Scopes removed them.
  EXPECT_FALSE(registry.contains("fed.child.spool.pages"));
  EXPECT_FALSE(registry.contains("fed.parent.pages_merged"));
}

}  // namespace
}  // namespace netmon::fed
