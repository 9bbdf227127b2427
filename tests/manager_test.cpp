#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "apps/rtds.hpp"
#include "apps/testbed.hpp"
#include "core/high_fidelity_monitor.hpp"
#include "core/measurement_db.hpp"
#include "manager/resource_manager.hpp"

namespace netmon::mgr {
namespace {

using sim::Duration;
using sim::TimePoint;

class ManagerFixture : public ::testing::Test {
 protected:
  ManagerFixture() {
    apps::TestbedOptions options;
    options.servers = 3;
    options.clients = 4;
    bed = std::make_unique<apps::Testbed>(sim, options);

    core::HighFidelityMonitor::Config mon_cfg;
    mon_cfg.probe.message_count = 4;
    mon_cfg.probe.inter_send = Duration::ms(5);
    mon_cfg.probe.result_timeout = Duration::ms(500);
    monitor = std::make_unique<core::HighFidelityMonitor>(bed->network(),
                                                          mon_cfg);
  }

  ManagedApplication rtds_app() {
    ManagedApplication app;
    app.name = "rtds";
    for (int s = 0; s < bed->server_count(); ++s) {
      app.server_pool.push_back(bed->server_ip(s));
    }
    for (int c = 0; c < bed->client_count(); ++c) {
      app.client_pool.push_back(bed->client_ip(c));
    }
    app.port = apps::kRtdsPort;
    return app;
  }

  ResourceManager::Config fast_config() {
    ResourceManager::Config cfg;
    cfg.metrics = {core::Metric::kReachability};
    cfg.strikes = 2;
    return cfg;
  }

  sim::Simulator sim;
  std::unique_ptr<apps::Testbed> bed;
  std::unique_ptr<core::HighFidelityMonitor> monitor;
};

TEST_F(ManagerFixture, SubmitsFullPathMatrix) {
  ResourceManager manager(monitor->director(), fast_config());
  manager.manage(rtds_app(), bed->server_ip(0));
  sim.run_for(Duration::sec(5));
  // 3 servers x 4 clients, reachability only, cycling continuously.
  EXPECT_GE(manager.tuples_consumed(), 12u);
  EXPECT_EQ(manager.active_server("rtds"), bed->server_ip(0));
  EXPECT_EQ(manager.reconfigurations(), 0u);
}

TEST_F(ManagerFixture, InitialServerMustBeInPool) {
  ResourceManager manager(monitor->director(), fast_config());
  EXPECT_THROW(manager.manage(rtds_app(), net::IpAddr(99, 9, 9, 9)),
               std::invalid_argument);
}

TEST_F(ManagerFixture, DuplicateManageRejected) {
  ResourceManager manager(monitor->director(), fast_config());
  manager.manage(rtds_app(), bed->server_ip(0));
  EXPECT_THROW(manager.manage(rtds_app(), bed->server_ip(1)),
               std::logic_error);
}

TEST_F(ManagerFixture, FailsOverWhenActiveServerDies) {
  ResourceManager manager(monitor->director(), fast_config());
  std::vector<ReconfigurationEvent> events;
  manager.set_reconfiguration_callback(
      [&](const ReconfigurationEvent& e) { events.push_back(e); });
  manager.manage(rtds_app(), bed->server_ip(0));

  sim.run_for(Duration::sec(10));
  ASSERT_EQ(manager.reconfigurations(), 0u);

  bed->server(0).set_up(false);
  sim.run_for(Duration::sec(60));

  ASSERT_GE(manager.reconfigurations(), 1u);
  ASSERT_FALSE(events.empty());
  EXPECT_EQ(events[0].old_server, bed->server_ip(0));
  EXPECT_NE(manager.active_server("rtds"), bed->server_ip(0));
  // The replacement must be a healthy pool member.
  const auto active = manager.active_server("rtds");
  EXPECT_TRUE(active == bed->server_ip(1) || active == bed->server_ip(2));
}

TEST_F(ManagerFixture, SingleClientFailureDoesNotTriggerFailover) {
  ResourceManager::Config cfg = fast_config();
  cfg.failure_fraction = 0.5;  // one of four clients is below threshold
  ResourceManager manager(monitor->director(), cfg);
  manager.manage(rtds_app(), bed->server_ip(0));

  bed->client(3).set_up(false);
  sim.run_for(Duration::sec(60));
  EXPECT_EQ(manager.reconfigurations(), 0u);
  EXPECT_GT(manager.failing_fraction("rtds", bed->server_ip(0)), 0.0);
  EXPECT_LT(manager.failing_fraction("rtds", bed->server_ip(0)), 0.5);
}

TEST_F(ManagerFixture, RecoveredPathClearsStrikes) {
  ResourceManager manager(monitor->director(), fast_config());
  manager.manage(rtds_app(), bed->server_ip(0));
  bed->client(0).set_up(false);
  sim.run_for(Duration::sec(30));
  EXPECT_GT(manager.failing_fraction("rtds", bed->server_ip(0)), 0.0);
  bed->client(0).set_up(true);
  sim.run_for(Duration::sec(30));
  EXPECT_DOUBLE_EQ(manager.failing_fraction("rtds", bed->server_ip(0)), 0.0);
}

TEST_F(ManagerFixture, StopCancelsMonitoring) {
  ResourceManager manager(monitor->director(), fast_config());
  manager.manage(rtds_app(), bed->server_ip(0));
  sim.run_for(Duration::sec(3));
  manager.stop("rtds");
  const auto consumed = manager.tuples_consumed();
  sim.run_for(Duration::sec(5));
  EXPECT_EQ(manager.tuples_consumed(), consumed);
  EXPECT_THROW(manager.active_server("rtds"), std::out_of_range);
}

TEST_F(ManagerFixture, AllDisabledRequirementsRejectedAtManageTime) {
  // An application whose requirements are all disabled (reachability off,
  // throughput/latency sentinels unset) could never strike and would be
  // monitored forever for nothing; manage() must reject it up front.
  ResourceManager manager(monitor->director(), fast_config());
  auto app = rtds_app();
  app.requirements.require_reachability = false;
  app.requirements.min_throughput_bps = 0.0;
  app.requirements.max_latency_s = 0.0;
  EXPECT_THROW(manager.manage(app, bed->server_ip(0)),
               std::invalid_argument);
  // Nothing was registered: the name is still free.
  auto ok = rtds_app();
  manager.manage(ok, bed->server_ip(0));
}

TEST_F(ManagerFixture, FailoverPrunesOldServerStrikeEntries) {
  // Regression: the strikes map used to keep (old_server, client) entries
  // alive forever after a failover, growing without bound across repeated
  // reconfigurations. After failover, the departed server's entries must
  // be gone; after stop(), the application's entries must all be gone.
  ResourceManager manager(monitor->director(), fast_config());
  bool checked_in_callback = false;
  manager.set_reconfiguration_callback([&](const ReconfigurationEvent& e) {
    if (checked_in_callback) return;
    checked_in_callback = true;
    for (int c = 0; c < bed->client_count(); ++c) {
      EXPECT_EQ(manager.path_strikes(e.application, e.old_server,
                                     bed->client_ip(c)),
                0)
          << "stale strike entry for departed server, client " << c;
    }
  });
  manager.manage(rtds_app(), bed->server_ip(0));
  bed->server(0).set_up(false);
  sim.run_for(Duration::sec(60));
  ASSERT_GE(manager.reconfigurations(), 1u);
  ASSERT_TRUE(checked_in_callback);

  manager.stop("rtds");
  EXPECT_EQ(manager.strike_entries(), 0u);
}

TEST_F(ManagerFixture, ThroughputRequirementTriggersStrikes) {
  // Require more throughput than the probe's offered load can ever show:
  // every sample strikes, forcing reconfiguration attempts (all servers are
  // equally "bad", so the manager must pick some other pool member).
  ResourceManager::Config cfg;
  cfg.metrics = {core::Metric::kThroughput};
  cfg.strikes = 2;
  ResourceManager manager(monitor->director(), cfg);
  auto app = rtds_app();
  app.requirements.min_throughput_bps = 1e12;  // impossible
  std::vector<ReconfigurationEvent> events;
  manager.set_reconfiguration_callback(
      [&](const ReconfigurationEvent& e) { events.push_back(e); });
  manager.manage(app, bed->server_ip(0));
  sim.run_for(Duration::sec(60));
  EXPECT_GE(manager.reconfigurations(), 1u);
}

TEST_F(ManagerFixture, SenescenceWatchdogIsOffByDefault) {
  // One measurement round, then silence: every path goes senescent, but with
  // the default zero bound no timer runs and nothing ever strikes.
  ResourceManager::Config cfg = fast_config();
  cfg.mode = core::MonitorRequest::Mode::kOnce;
  ResourceManager manager(monitor->director(), cfg);
  manager.manage(rtds_app(), bed->server_ip(0));
  sim.run_for(Duration::sec(20));
  EXPECT_GT(manager.tuples_consumed(), 0u);
  EXPECT_EQ(manager.senescence_strikes(), 0u);
  EXPECT_EQ(manager.reconfigurations(), 0u);
}

TEST_F(ManagerFixture, SenescenceWatchdogStrikesSilentPathsIntoFailover) {
  // Same silence, but with a bound armed: stale data — however it got into
  // the database, locally sensed or replicated from a dead zone monitor —
  // degrades into failover pressure instead of being trusted forever.
  ResourceManager::Config cfg = fast_config();
  cfg.mode = core::MonitorRequest::Mode::kOnce;
  cfg.senescence_bound = Duration::sec(2);
  cfg.senescence_check_period = Duration::ms(500);
  ResourceManager manager(monitor->director(), cfg);
  manager.manage(rtds_app(), bed->server_ip(0));
  sim.run_for(Duration::sec(20));
  EXPECT_GT(manager.senescence_strikes(), 0u);
  // Every pool member is equally senescent here, so the manager keeps
  // rotating: at least the first failover left server 0.
  EXPECT_GE(manager.reconfigurations(), 1u);
}

TEST_F(ManagerFixture, SenescenceWatchdogQuietWhileSamplesFlow) {
  // Continuous sampling keeps every path younger than the bound: an armed
  // watchdog must not strike a healthy matrix.
  ResourceManager::Config cfg = fast_config();
  cfg.senescence_bound = Duration::sec(30);
  cfg.senescence_check_period = Duration::sec(1);
  ResourceManager manager(monitor->director(), cfg);
  manager.manage(rtds_app(), bed->server_ip(0));
  sim.run_for(Duration::sec(20));
  EXPECT_GT(manager.tuples_consumed(), 12u);
  EXPECT_EQ(manager.senescence_strikes(), 0u);
  EXPECT_EQ(manager.reconfigurations(), 0u);
}

TEST_F(ManagerFixture, SenescenceBoundRequiresPositiveCheckPeriod) {
  ResourceManager::Config cfg = fast_config();
  cfg.senescence_bound = Duration::sec(2);
  cfg.senescence_check_period = Duration::sec(0);
  EXPECT_THROW(ResourceManager(monitor->director(), cfg),
               std::invalid_argument);
}

TEST_F(ManagerFixture, RemovedListenerNeverFiresEvenAfterCapturesDie) {
  // Regression for the handle-based listener API: a listener whose captured
  // state is shorter-lived than the manager must be able to unregister and
  // then die without the next reconfiguration touching its dead captures
  // (the sanitize preset turns a missed removal into a hard ASan report).
  ResourceManager manager(monitor->director(), fast_config());
  int kept_fires = 0;
  manager.add_reconfiguration_listener(
      [&](const ReconfigurationEvent&) { ++kept_fires; });

  auto doomed = std::make_unique<std::vector<int>>(64, 41);
  const auto removed = manager.add_reconfiguration_listener(
      [buf = doomed.get()](const ReconfigurationEvent&) { (*buf)[0] += 1; });
  manager.remove_reconfiguration_listener(removed);
  manager.remove_reconfiguration_listener(removed);  // double remove: no-op
  manager.remove_reconfiguration_listener(999999);   // unknown: no-op
  doomed.reset();  // the removed listener's capture is now a dangling pointer

  manager.manage(rtds_app(), bed->server_ip(0));
  bed->server(0).set_up(false);
  sim.run_for(Duration::sec(60));
  ASSERT_GE(manager.reconfigurations(), 1u);
  EXPECT_GE(kept_fires, 1);
}

TEST_F(ManagerFixture, ListenerCanRemoveItselfDuringDispatch) {
  ResourceManager manager(monitor->director(), fast_config());
  int once_fires = 0;
  int steady_fires = 0;
  ResourceManager::ListenerHandle once = 0;
  once = manager.add_reconfiguration_listener([&](const ReconfigurationEvent&) {
    ++once_fires;
    manager.remove_reconfiguration_listener(once);  // from inside dispatch
  });
  manager.add_reconfiguration_listener(
      [&](const ReconfigurationEvent&) { ++steady_fires; });

  manager.manage(rtds_app(), bed->server_ip(0));
  bed->server(0).set_up(false);
  sim.run_for(Duration::sec(60));
  ASSERT_GE(manager.reconfigurations(), 1u);

  // Kill the replacement too: the second reconfiguration must still reach
  // the remaining listener but never the self-removed one.
  const auto active = manager.active_server("rtds");
  for (int s = 0; s < bed->server_count(); ++s) {
    if (bed->server_ip(s) == active) bed->server(s).set_up(false);
  }
  sim.run_for(Duration::sec(60));
  ASSERT_GE(manager.reconfigurations(), 2u);
  EXPECT_EQ(once_fires, 1);
  EXPECT_EQ(static_cast<std::uint64_t>(steady_fires),
            manager.reconfigurations());
}

TEST(WindowedQuantile, WeighsTailsOverTheWindowAndSkipsInvalidSamples) {
  // Direct unit test of the trend breaker's quantile on a hand-built tiered
  // database: 120 quiet latency samples, one spike, one failed measurement.
  core::MeasurementDatabase db;
  const core::Path path(
      core::ProcessEndpoint{"s", net::IpAddr(10, 0, 0, 1), 7},
      core::ProcessEndpoint{"c", net::IpAddr(10, 0, 1, 1), 7});
  const core::PathId id = db.id_of(path);
  constexpr std::int64_t kMs = 1'000'000;
  for (int i = 1; i <= 120; ++i) {
    db.record(id, core::Metric::kOneWayLatency,
              core::MetricValue::of(0.01, TimePoint::from_nanos(i * kMs)));
  }
  db.record(id, core::Metric::kOneWayLatency,
            core::MetricValue::of(5.0, TimePoint::from_nanos(121 * kMs)));
  db.record(id, core::Metric::kOneWayLatency,
            core::MetricValue::failed(TimePoint::from_nanos(122 * kMs)));

  const TimePoint now = TimePoint::from_nanos(122 * kMs);
  std::uint64_t n = 0;

  // p99 over 121 valid samples: rank ceil(0.99*121)=120 — the single spike
  // (rank 121) is excluded; the failed sample never counts.
  auto p99 = ResourceManager::windowed_quantile(
      db, path, core::Metric::kOneWayLatency, now, Duration::sec(60), 0.99,
      /*upper=*/true, &n);
  ASSERT_TRUE(p99.has_value());
  EXPECT_EQ(n, 121u);
  EXPECT_DOUBLE_EQ(*p99, 0.01);

  // The extreme tail does reach the spike (rank ceil(0.999*121)=121).
  auto p999 = ResourceManager::windowed_quantile(
      db, path, core::Metric::kOneWayLatency, now, Duration::sec(60), 0.999,
      /*upper=*/true);
  ASSERT_TRUE(p999.has_value());
  EXPECT_DOUBLE_EQ(*p999, 5.0);

  // Mirrored lower tail (the throughput convention): rank 121-120+1=2, so a
  // single low outlier would be excluded the same way.
  auto lower = ResourceManager::windowed_quantile(
      db, path, core::Metric::kOneWayLatency, now, Duration::sec(60), 0.99,
      /*upper=*/false);
  ASSERT_TRUE(lower.has_value());
  EXPECT_DOUBLE_EQ(*lower, 0.01);

  // A short window narrows the population: [117ms, 122ms] holds 5 valid
  // samples, so rank ceil(0.99*5)=5 lands on the spike.
  auto recent = ResourceManager::windowed_quantile(
      db, path, core::Metric::kOneWayLatency, now, Duration::ms(5), 0.99,
      /*upper=*/true, &n);
  ASSERT_TRUE(recent.has_value());
  EXPECT_EQ(n, 5u);
  EXPECT_DOUBLE_EQ(*recent, 5.0);

  // A metric with no data at all: nullopt, zero valid samples.
  auto none = ResourceManager::windowed_quantile(
      db, path, core::Metric::kThroughput, now, Duration::sec(60), 0.99,
      /*upper=*/true, &n);
  EXPECT_FALSE(none.has_value());
  EXPECT_EQ(n, 0u);
}

// Latency sensor with a shaped per-call value: a quiet base latency, with a
// degraded value for paths from one server starting at a given global call
// index — either one spike or a sustained shift. Completes via the simulator
// so rounds interleave like a real sensor's.
class ShapedLatencySensor : public core::NetworkSensor {
 public:
  explicit ShapedLatencySensor(sim::Simulator& sim) : sim_(sim) {}
  std::string name() const override { return "shaped-latency"; }
  bool supports(core::Metric m) const override {
    return m == core::Metric::kOneWayLatency;
  }
  void measure(const core::Path& path, core::Metric, Done done) override {
    double v = base;
    const int call = calls_++;
    if (path.source().host == degraded_source && call >= degrade_from) {
      if (!single_spike) {
        v = degraded_value;
      } else if (!spiked_) {
        v = degraded_value;
        spiked_ = true;
      }
    }
    sim_.schedule_in(Duration::ms(1), [this, v, done = std::move(done)] {
      done(core::MetricValue::of(v, sim_.now()));
    });
  }

  double base = 0.01;
  double degraded_value = 10.0;
  net::IpAddr degraded_source;
  int degrade_from = 1 << 30;
  bool single_spike = false;

 private:
  sim::Simulator& sim_;
  int calls_ = 0;
  bool spiked_ = false;
};

struct TrendHarness {
  TrendHarness() : director(sim, 1), sensor(sim) {
    director.register_sensor(core::Metric::kOneWayLatency, &sensor);
  }

  ManagedApplication latency_app() const {
    ManagedApplication app;
    app.name = "shaped";
    app.server_pool = {net::IpAddr(10, 0, 0, 1), net::IpAddr(10, 0, 0, 2)};
    app.client_pool = {net::IpAddr(10, 0, 1, 1)};
    app.port = 7;
    app.requirements.require_reachability = false;
    app.requirements.max_latency_s = 0.1;
    return app;
  }

  static ResourceManager::Config trend_config() {
    ResourceManager::Config cfg;
    cfg.metrics = {core::Metric::kOneWayLatency};
    cfg.strikes = 1;  // a single bad verdict is enough without the trend
    cfg.trend.window = Duration::sec(60);
    cfg.trend.min_samples = 100;
    return cfg;
  }

  sim::Simulator sim;
  core::SensorDirector director;
  ShapedLatencySensor sensor;
};

TEST(TrendBreaker, IsolatedSpikeIsSuppressedByTheWindowQuantile) {
  // 10s of latency that would trip the last-sample breaker exactly once: the
  // p99 over the window stays quiet, so the trend verdict overrides the
  // strike and no reconfiguration happens.
  TrendHarness h;
  const auto app = h.latency_app();
  h.sensor.degraded_source = app.server_pool[0];
  h.sensor.degrade_from = 250;  // ~125 prior samples on the degraded path
  h.sensor.single_spike = true;

  ResourceManager manager(h.director, TrendHarness::trend_config());
  manager.manage(app, app.server_pool[0]);
  h.sim.run_for(Duration::ms(700));

  EXPECT_EQ(manager.reconfigurations(), 0u);
  EXPECT_GE(manager.trend_overrides(), 1u);
  EXPECT_EQ(
      manager.path_strikes("shaped", app.server_pool[0], app.client_pool[0]),
      0);
  EXPECT_EQ(manager.active_server("shaped"), app.server_pool[0]);
}

TEST(TrendBreaker, SustainedShiftPushesTheQuantileOverAndFailsOver) {
  // The same setup but the degradation persists: within a few samples the
  // window p99 itself crosses max_latency_s, the path strikes, and the
  // manager fails over to the healthy pool member.
  TrendHarness h;
  const auto app = h.latency_app();
  h.sensor.degraded_source = app.server_pool[0];
  h.sensor.degrade_from = 250;
  h.sensor.single_spike = false;

  ResourceManager manager(h.director, TrendHarness::trend_config());
  manager.manage(app, app.server_pool[0]);
  h.sim.run_for(Duration::ms(700));

  EXPECT_GE(manager.reconfigurations(), 1u);
  EXPECT_EQ(manager.active_server("shaped"), app.server_pool[1]);
  // The first degraded sample was still overridden (suppressed) before the
  // tail itself crossed — the counter sees both directions of disagreement.
  EXPECT_GE(manager.trend_overrides(), 1u);
}

TEST(TrendBreaker, InvalidTrendConfigRejected) {
  sim::Simulator sim;
  core::SensorDirector director(sim, 1);
  ResourceManager::Config cfg;
  cfg.trend.window = Duration::sec(10);
  cfg.trend.quantile = 0.4;  // must be in (0.5, 1)
  EXPECT_THROW(ResourceManager(director, cfg), std::invalid_argument);
  cfg.trend.quantile = 0.99;
  cfg.trend.min_samples = 0;
  EXPECT_THROW(ResourceManager(director, cfg), std::invalid_argument);
  cfg.trend.min_samples = 1;
  ResourceManager ok(director, cfg);  // valid again
  EXPECT_EQ(ok.trend_overrides(), 0u);
}

// --- strike grid ---------------------------------------------------------------

// Reachability that fails on a fixed set of (server, client) pairs,
// completing 1 ms after each request.
class PairReachSensor : public core::NetworkSensor {
 public:
  explicit PairReachSensor(sim::Simulator& sim) : sim_(sim) {}
  std::string name() const override { return "pair-reach"; }
  bool supports(core::Metric m) const override {
    return m == core::Metric::kReachability;
  }
  void measure(const core::Path& path, core::Metric, Done done) override {
    const bool up = !(path.source().host == dead_server &&
                      path.destination().host == dead_client);
    sim_.schedule_in(Duration::ms(1), [this, up, done = std::move(done)] {
      done(core::MetricValue::of(up ? 1.0 : 0.0, sim_.now()));
    });
  }

  net::IpAddr dead_server;
  net::IpAddr dead_client;

 private:
  sim::Simulator& sim_;
};

TEST(StrikeGrid, DuplicatePoolMembersWeighLikeThePoolAndEntriesStayBounded) {
  // The failing fraction is a share of client_pool as listed, so a client
  // named twice weighs twice: one dead path to it is half of a 4-entry
  // pool and fails the server over. Strike entries stay one per distinct
  // (server, client) pair.
  sim::Simulator sim;
  core::SensorDirector director(sim, 1);
  PairReachSensor sensor(sim);
  director.register_sensor(core::Metric::kReachability, &sensor);
  const net::IpAddr s1(10, 0, 0, 1), s2(10, 0, 0, 2);
  const net::IpAddr c1(10, 0, 1, 1), c2(10, 0, 1, 2), c3(10, 0, 1, 3);
  sensor.dead_server = s1;
  sensor.dead_client = c2;

  ManagedApplication app;
  app.name = "dup";
  app.server_pool = {s1, s2, s1};
  app.client_pool = {c1, c2, c2, c3};
  app.port = 7;
  ResourceManager::Config cfg;
  cfg.metrics = {core::Metric::kReachability};
  cfg.strikes = 1;
  cfg.failure_fraction = 0.5;
  ResourceManager manager(director, cfg);
  std::vector<ReconfigurationEvent> events;
  manager.set_reconfiguration_callback(
      [&](const ReconfigurationEvent& e) { events.push_back(e); });
  manager.manage(app, s1);
  sim.run_for(Duration::ms(200));

  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].old_server, s1);
  EXPECT_EQ(events[0].new_server, s2);
  EXPECT_EQ(events[0].reason, "failing fraction 0.500000");
  EXPECT_EQ(manager.active_server("dup"), s2);
  // s1 keeps being probed (the whole pool matrix is monitored) and its
  // dead path re-strikes, weighted twice; s1 is no longer active, so
  // nothing moves.
  EXPECT_DOUBLE_EQ(manager.failing_fraction("dup", s1), 0.5);
  EXPECT_DOUBLE_EQ(manager.failing_fraction("dup", s2), 0.0);
  EXPECT_GE(manager.path_strikes("dup", s1, c2), 1);
  EXPECT_EQ(manager.path_strikes("dup", s2, c2), 0);
  EXPECT_EQ(manager.path_strikes("dup", net::IpAddr(10, 9, 9, 9), c2), 0);
  EXPECT_DOUBLE_EQ(manager.failing_fraction("dup", net::IpAddr(10, 9, 9, 9)),
                   0.0);
  EXPECT_EQ(manager.strike_entries(), 6u);  // 2 servers x 3 clients
  EXPECT_EQ(manager.tuples_consumed(), director.stats().tuples_reported);

  manager.stop("dup");
  EXPECT_EQ(manager.strike_entries(), 0u);
}

}  // namespace
}  // namespace netmon::mgr
