// Two-level federation soak (DESIGN.md §14): two zone monitors, each owning
// a 500-path sub-matrix of the leaf/spine fabric, stream sealed pages and
// current-value deltas to one parent manager across the fabric itself while
// a scripted fault plan partitions one child (long enough to overflow its
// spool) and crash/restarts the other. At quiesce the parent's ledger must
// balance exactly: every point either merged once or reported lost, zero
// duplicates, zone staleness visible during each outage, and parent-side
// senescence bounded by the delta cadence while zones are healthy. A
// smaller same-seed scenario run twice must produce bit-identical
// replication logs on both ends. Emits fed-replication-stats.json for CI.

#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "apps/fabric.hpp"
#include "core/measurement_db.hpp"
#include "fault/fault_injector.hpp"
#include "fault/fault_plan.hpp"
#include "fed/child.hpp"
#include "fed/parent.hpp"
#include "net/topology.hpp"
#include "obs/metrics.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"

namespace netmon::fed {
namespace {

using core::Metric;
using core::MetricValue;
using core::Path;
using sim::Duration;
using sim::TimePoint;

core::TieredStorageConfig zone_tiers() {
  core::TieredStorageConfig cfg;
  cfg.page_points = 8;  // short pages: replication exercised from the start
  cfg.rollup_factor = 4;
  cfg.tiers = 2;
  return cfg;
}

core::TieredStorageConfig parent_tiers() {
  core::TieredStorageConfig cfg;
  cfg.page_points = 64;
  cfg.rollup_factor = 8;
  cfg.tiers = 2;
  cfg.max_pages = 16384;  // hold both zones' merged points without eviction
  return cfg;
}

TEST(FedSoak, TwoZoneFabricSurvivesPartitionAndCrash) {
  sim::Simulator sim;
  apps::FabricOptions fab;
  fab.spines = 2;
  fab.client_edges = 2;
  fab.clients_per_edge = 13;  // 26 clients; the zones use the first 25
  fab.server_edges = 5;
  fab.servers_per_edge = 8;  // 40 servers, split 20/20 across the zones
  fab.seed = 404;
  fab.install_sinks = false;  // no probing in this soak, only replication
  apps::FabricTestbed fabric(sim, fab);

  // Zone sub-matrices: 20 servers x 25 clients = 500 paths each.
  std::vector<Path> paths_a;
  std::vector<Path> paths_b;
  for (int s = 0; s < 20; ++s) {
    for (int c = 0; c < 25; ++c) {
      paths_a.push_back(fabric.path(s, c));
      paths_b.push_back(fabric.path(20 + s, c));
    }
  }

  core::MeasurementDatabase parent_db(parent_tiers());
  core::MeasurementDatabase db_a(zone_tiers());
  core::MeasurementDatabase db_b(zone_tiers());

  FedParent parent(fabric.station(), parent_db, {});
  auto child_config = [&](const std::string& zone) {
    FedChildConfig cfg;
    cfg.zone = zone;
    cfg.parent_ip = fabric.station().primary_ip();
    cfg.spool_max_pages = 800;  // the partition burst must overflow this
    cfg.retry_max = Duration::sec(5);
    cfg.ack_timeout = Duration::sec(2);
    cfg.delta_min_gap = Duration::sec(5);
    return cfg;
  };
  FedChild child_a(fabric.server(0), db_a, child_config("zone-a"));
  FedChild child_b(fabric.server(20), db_b, child_config("zone-b"));

  obs::Registry registry;
  parent.attach_observability(registry, "fed.parent");
  child_a.attach_observability(registry, "fed.child.a");
  child_b.attach_observability(registry, "fed.child.b");

  parent.start();
  child_a.start();
  child_b.start();

  // Synthetic sampling: every 500ms each live zone records one value per
  // path, 240 ticks total (pages seal every 8 ticks per series).
  int tick = 0;
  bool zone_a_alive = true;
  std::uint64_t ticks_a = 0;
  auto record_zone = [&](core::MeasurementDatabase& db,
                         const std::vector<Path>& paths, int salt) {
    for (std::size_t p = 0; p < paths.size(); ++p) {
      const double v = static_cast<double>((p * 7 + tick * 13 + salt) % 997);
      db.record(paths[p], Metric::kThroughput, MetricValue::of(v, sim.now()));
    }
  };
  sim::EventHandle driver = sim.schedule_periodic(Duration::ms(500), [&] {
    ++tick;
    if (zone_a_alive) {
      ++ticks_a;
      record_zone(db_a, paths_a, 0);
    }
    record_zone(db_b, paths_b, 1);
  });
  sim.schedule_at(TimePoint::from_nanos(Duration::sec(120).nanos() + 250000),
                  [&] { driver.cancel(); });

  // Scripted outages: child-b unreachable-not-dead for 10s (spool overflow),
  // child-a crash/restarted (watermark resume) — both via the fault plan.
  fault::FaultInjector injector(sim);
  injector.register_host("child-a", fabric.server(0));
  injector.register_host("child-b", fabric.server(20));
  fault::FaultPlan plan;
  plan.partition(Duration::sec(30), "child-b", Duration::sec(10));
  plan.host_crash(Duration::sec(50), "child-a");
  plan.host_restart(Duration::sec(60), "child-a");
  injector.arm(plan);
  // The replication agent rides its host: crash loses volatile session
  // state (and a dead zone records nothing), restart renegotiates.
  sim.schedule_at(TimePoint::from_nanos(Duration::sec(50).nanos() + 1000000),
                  [&] {
                    child_a.crash();
                    zone_a_alive = false;
                  });
  sim.schedule_at(TimePoint::from_nanos(Duration::sec(60).nanos() + 1000000),
                  [&] {
                    child_a.restart();
                    zone_a_alive = true;
                  });

  // Mid-run probes, at protocol-relevant moments.
  bool b_stale_mid = false;
  bool a_stale_mid = true;
  sim.schedule_at(TimePoint::from_nanos(Duration::sec(35).nanos()), [&] {
    b_stale_mid = parent.zone_stale("zone-b", sim.now());
    a_stale_mid = parent.zone_stale("zone-a", sim.now());
  });
  bool a_stale_in_crash = false;
  sim.schedule_at(TimePoint::from_nanos(Duration::sec(57).nanos()), [&] {
    a_stale_in_crash = parent.zone_stale("zone-a", sim.now());
  });
  std::vector<std::int64_t> healthy_senescence_ns;
  sim.schedule_at(TimePoint::from_nanos(Duration::sec(115).nanos()), [&] {
    for (std::size_t k : {std::size_t{0}, std::size_t{123}, std::size_t{499}}) {
      const core::PathId pid = parent_db.find(paths_a[k]);
      if (pid == core::kInvalidPathId) continue;
      const auto s =
          parent.zone_senescence("zone-a", pid, Metric::kThroughput, sim.now());
      if (s) healthy_senescence_ns.push_back(s->nanos());
    }
  });

  sim.run_until(TimePoint::from_nanos(Duration::sec(220).nanos()));

  // --- liveness view ---------------------------------------------------------
  EXPECT_TRUE(b_stale_mid);       // partitioned zone read as stale
  EXPECT_FALSE(a_stale_mid);      // the healthy zone did not
  EXPECT_TRUE(a_stale_in_crash);  // crashed zone read as stale
  EXPECT_FALSE(parent.zone_stale("zone-a", sim.now()));
  EXPECT_FALSE(parent.zone_stale("zone-b", sim.now()));

  // While a zone is healthy, parent-side senescence is bounded by the delta
  // cadence (5s min gap) plus heartbeat/transit slack — C·S·T end to end.
  ASSERT_FALSE(healthy_senescence_ns.empty());
  for (const std::int64_t ns : healthy_senescence_ns) {
    EXPECT_LE(ns, Duration::sec(7).nanos());
  }

  // --- conservation ----------------------------------------------------------
  const auto& pa = parent.stats();
  const auto& ca = child_a.stats();
  const auto& cb = child_b.stats();

  // Both spools fully drained and every sealed point accounted exactly once:
  // merged or honestly lost, never both, never dropped silently.
  EXPECT_EQ(child_a.spool_pages(), 0u);
  EXPECT_EQ(child_b.spool_pages(), 0u);
  EXPECT_EQ(pa.points_merged + pa.points_lost,
            ca.points_spooled + cb.points_spooled);
  EXPECT_EQ(pa.implicit_gap_pages, 0u);

  // The crash/restart zone lost nothing (durable spool + watermark resume);
  // the partitioned zone shed under pressure and reported all of it.
  EXPECT_EQ(ca.pages_shed, 0u);
  EXPECT_EQ(parent.zone_points_lost("zone-a"), 0u);
  EXPECT_GT(cb.pages_shed, 0u);
  EXPECT_EQ(parent.zone_points_lost("zone-b"), cb.points_shed);
  EXPECT_EQ(pa.points_lost, cb.points_shed);

  // Zone-a arithmetic is exact: 500 series, every fully sealed page merged.
  const std::uint64_t sealed_per_series_a = ticks_a - (ticks_a % 8);
  EXPECT_EQ(ca.points_spooled, 500 * sealed_per_series_a);
  for (std::size_t k : {std::size_t{0}, std::size_t{250}, std::size_t{499}}) {
    const auto result =
        parent_db.query(paths_a[k], Metric::kThroughput,
                        TimePoint::from_nanos(0), sim.now(), Duration::ns(0));
    std::uint64_t merged = 0;
    for (const auto& p : result.points) merged += p.count;
    EXPECT_EQ(merged, sealed_per_series_a) << "path " << k;
  }

  // Sessions: one initial each, plus a resume per outage.
  EXPECT_EQ(child_a.incarnation(), 2u);
  EXPECT_EQ(ca.crashes, 1u);
  EXPECT_EQ(ca.restarts, 1u);
  EXPECT_GE(pa.resumes, 2u);
  EXPECT_EQ(pa.protocol_errors, 0u);
  EXPECT_GT(pa.heartbeats, 0u);
  // Deltas are best-effort freshness: ones in flight when a session dies
  // (e.g. zone-b's round at partition onset) are lost, never re-sent.
  EXPECT_GT(pa.deltas_applied, 0u);
  EXPECT_LE(pa.deltas_applied, ca.deltas_sent + cb.deltas_sent);

  // CI artifact: headline ledger plus the full registry snapshot.
  std::ofstream out("fed-replication-stats.json");
  out << "{\n\"zone_a\": {\"points_spooled\": " << ca.points_spooled
      << ", \"pages_shed\": " << ca.pages_shed
      << ", \"pages_resent\": " << ca.pages_resent
      << ", \"crashes\": " << ca.crashes << ", \"sessions\": " << ca.sessions
      << "},\n\"zone_b\": {\"points_spooled\": " << cb.points_spooled
      << ", \"pages_shed\": " << cb.pages_shed
      << ", \"points_shed\": " << cb.points_shed
      << ", \"sessions\": " << cb.sessions
      << "},\n\"parent\": {\"points_merged\": " << pa.points_merged
      << ", \"points_lost\": " << pa.points_lost
      << ", \"duplicates_skipped\": " << pa.duplicates_skipped
      << ", \"implicit_gap_pages\": " << pa.implicit_gap_pages
      << ", \"resumes\": " << pa.resumes << "},\n\"registry\": "
      << (obs::kCompiledIn ? registry.export_json() : std::string("{}"))
      << "\n}\n";
  ASSERT_TRUE(out.good());
}

// A reduced same-seed scenario with traffic, a partition window, and a
// crash/restart; both replication logs must be bit-identical across runs.
// Both replication logs of one run: retained text plus the digest over every
// line ever appended, so a bounded log checks no less than a full one.
struct ReplayLogs {
  std::string child;
  std::string parent;
  std::uint64_t child_digest = 0;
  std::uint64_t parent_digest = 0;
};

ReplayLogs run_replay_scenario(std::uint64_t seed) {
  sim::Simulator sim;
  net::Network network(sim, util::Rng(seed));
  net::Host& parent_host = network.add_host("parent");
  net::Host& child_host = network.add_host("child");
  network.connect(parent_host, net::IpAddr(10, 0, 0, 1), child_host,
                  net::IpAddr(10, 0, 0, 2), 24, 10e6, Duration::ms(1));
  network.auto_route();
  core::MeasurementDatabase parent_db(parent_tiers());
  core::MeasurementDatabase child_db(zone_tiers());
  FedParent parent(parent_host, parent_db, {});
  FedChildConfig cfg;
  cfg.zone = "soak-det";
  cfg.parent_ip = net::IpAddr(10, 0, 0, 1);
  cfg.spool_max_pages = 24;  // small enough to shed during the partition
  cfg.retry_max = Duration::sec(5);
  cfg.ack_timeout = Duration::sec(2);
  FedChild child(child_host, child_db, cfg);
  parent.start();
  child.start();

  std::vector<Path> paths;
  for (int p = 0; p < 50; ++p) {
    paths.push_back(Path(
        core::ProcessEndpoint{"s", net::IpAddr(10, 1, 0, 1), 1},
        core::ProcessEndpoint{"c", net::IpAddr(10, 1, 1, 1 + p), 1}));
  }
  int tick = 0;
  sim::EventHandle driver = sim.schedule_periodic(Duration::ms(200), [&] {
    ++tick;
    for (std::size_t p = 0; p < paths.size(); ++p) {
      child_db.record(paths[p], Metric::kThroughput,
                      MetricValue::of(static_cast<double>((p + tick) % 53),
                                      sim.now()));
    }
  });
  sim.schedule_at(TimePoint::from_nanos(Duration::sec(10).nanos()), [&] {
    for (const auto& nic : parent_host.nics()) nic->set_up(false);
  });
  sim.schedule_at(TimePoint::from_nanos(Duration::sec(18).nanos()), [&] {
    for (const auto& nic : parent_host.nics()) nic->set_up(true);
  });
  sim.schedule_at(TimePoint::from_nanos(Duration::sec(22).nanos()),
                  [&] { child.crash(); });
  sim.schedule_at(TimePoint::from_nanos(Duration::sec(24).nanos()),
                  [&] { child.restart(); });
  sim.schedule_at(TimePoint::from_nanos(Duration::sec(30).nanos()),
                  [&] { driver.cancel(); });
  sim.run_until(TimePoint::from_nanos(Duration::sec(60).nanos()));
  return {child.log().export_text(), parent.log().export_text(),
          child.log().digest(), parent.log().digest()};
}

TEST(FedSoak, SameSeedRunsReplayBitIdenticalLogs) {
  const ReplayLogs first = run_replay_scenario(99);
  const ReplayLogs second = run_replay_scenario(99);
  EXPECT_FALSE(first.child.empty());
  EXPECT_FALSE(first.parent.empty());
  EXPECT_EQ(first.child, second.child);
  EXPECT_EQ(first.parent, second.parent);
  EXPECT_EQ(first.child_digest, second.child_digest);
  EXPECT_EQ(first.parent_digest, second.parent_digest);
}

}  // namespace
}  // namespace netmon::fed
