// HybridMonitor coverage (paper §7): background SNMP polling with targeted
// NTTCP escalation. Exercises the calm path, anomaly-driven escalation,
// targeted-probe cooldown, high-fidelity record authority, supervision
// passthrough into the background director, stop(), and the observability
// group the monitor registers.

#include <gtest/gtest.h>

#include <vector>

#include "apps/testbed.hpp"
#include "apps/traffic.hpp"
#include "core/hybrid_monitor.hpp"
#include "obs/metrics.hpp"
#include "rmon/probe.hpp"
#include "sim/simulator.hpp"

namespace netmon::core {
namespace {

using sim::Duration;

class HybridFixture : public ::testing::Test {
 protected:
  HybridFixture() : bed_(sim_, options()) {}

  static apps::SharedLanOptions options() {
    apps::SharedLanOptions o;
    o.hosts = 4;
    return o;
  }

  HybridMonitor::Config config() {
    HybridMonitor::Config cfg;
    cfg.probe.message_length = 2048;
    cfg.probe.inter_send = Duration::ms(10);
    cfg.probe.message_count = 4;
    cfg.background_period = Duration::sec(1);
    return cfg;
  }

  std::vector<PathRequest> paths_to(std::initializer_list<int> targets) {
    std::vector<PathRequest> paths;
    for (int t : targets) {
      paths.push_back(PathRequest{
          Path(ProcessEndpoint{"app", bed_.host_ip(0), 0},
               ProcessEndpoint{"app", bed_.host_ip(t), 0}),
          {Metric::kReachability, Metric::kThroughput}});
    }
    return paths;
  }

  sim::Simulator sim_;
  apps::SharedLanTestbed bed_;
};

TEST_F(HybridFixture, CalmNetworkStaysInBackgroundMode) {
  HybridMonitor monitor(bed_.network(), bed_.station(), config());
  std::size_t tuples = 0;
  monitor.start(paths_to({1, 2}), [&](const PathMetricTuple&) { ++tuples; });
  sim_.run_for(Duration::sec(5));

  EXPECT_EQ(monitor.escalations(), 0u);
  EXPECT_EQ(monitor.targeted_measurements(), 0u);
  EXPECT_GT(tuples, 0u);
  // Background samples land in the shared database.
  const auto m = monitor.database().last_known(paths_to({1})[0].path,
                                               Metric::kReachability);
  ASSERT_TRUE(m.has_value());
  EXPECT_TRUE(m->valid);
  monitor.stop();
}

TEST_F(HybridFixture, DeadHostEscalatesToTargetedProbes) {
  HybridMonitor monitor(bed_.network(), bed_.station(), config());
  monitor.start(paths_to({1}), nullptr);
  sim_.run_for(Duration::sec(2));
  ASSERT_EQ(monitor.escalations(), 0u);

  bed_.host(1).set_up(false);
  sim_.run_for(Duration::sec(6));
  EXPECT_GT(monitor.escalations(), 0u);
  EXPECT_GT(monitor.targeted_measurements(), 0u);
  monitor.stop();
}

TEST_F(HybridFixture, CooldownBoundsTargetedProbeRate) {
  HybridMonitor::Config cfg = config();
  cfg.targeted_cooldown = Duration::sec(10);
  HybridMonitor monitor(bed_.network(), bed_.station(), cfg);
  monitor.start(paths_to({1}), nullptr);

  bed_.host(1).set_up(false);
  sim_.run_for(Duration::sec(8));
  // Every background round flags the dead path, but within one cooldown
  // window only the first anomaly escalates: at most one escalation burst
  // of two metrics' worth of targeted probes.
  EXPECT_GT(monitor.escalations(), 1u);
  EXPECT_LE(monitor.targeted_measurements(), 2u);
  monitor.stop();
}

TEST_F(HybridFixture, TargetedRecordHoldsAuthorityOverBackground) {
  HybridMonitor::Config cfg = config();
  cfg.targeted_authority = Duration::sec(30);
  HybridMonitor monitor(bed_.network(), bed_.station(), cfg);
  const Path path = paths_to({2})[0].path;
  monitor.start(paths_to({2}), nullptr);
  sim_.run_for(Duration::sec(3));

  monitor.probe_now(path, Metric::kThroughput);
  sim_.run_for(Duration::sec(1));
  ASSERT_EQ(monitor.targeted_measurements(), 1u);
  const auto targeted = monitor.database().last_known(path,
                                                      Metric::kThroughput);
  ASSERT_TRUE(targeted.has_value());
  ASSERT_TRUE(targeted->valid);

  // Several more background rounds: the lower-fidelity samples must not
  // displace the younger high-fidelity record.
  sim_.run_for(Duration::sec(5));
  const auto after = monitor.database().last_known(path, Metric::kThroughput);
  ASSERT_TRUE(after.has_value());
  EXPECT_EQ(after->measured_at, targeted->measured_at);
  EXPECT_EQ(after->value, targeted->value);
  monitor.stop();
}

TEST_F(HybridFixture, SupervisionConfigReachesBackgroundDirector) {
  HybridMonitor::Config cfg = config();
  cfg.supervision.deadline = Duration::sec(2);
  cfg.supervision.max_retries = 3;
  cfg.supervision.breaker_threshold = 5;
  cfg.supervision.report_stale_on_exhaustion = true;
  HybridMonitor monitor(bed_.network(), bed_.station(), cfg);

  const SupervisionConfig& sup =
      monitor.background().director().supervision();
  EXPECT_EQ(sup.deadline, Duration::sec(2));
  EXPECT_EQ(sup.max_retries, 3);
  EXPECT_EQ(sup.breaker_threshold, 5);
  EXPECT_TRUE(sup.report_stale_on_exhaustion);
}

TEST_F(HybridFixture, SupervisedRetriesFireAgainstDeadTarget) {
  HybridMonitor::Config cfg = config();
  cfg.supervision.max_retries = 2;
  cfg.supervision.backoff_base = Duration::ms(50);
  HybridMonitor monitor(bed_.network(), bed_.station(), cfg);
  monitor.start(paths_to({1}), nullptr);
  bed_.host(1).set_up(false);
  sim_.run_for(Duration::sec(6));
  EXPECT_GT(monitor.background().director().stats().retries, 0u);
  monitor.stop();
}

TEST_F(HybridFixture, StopHaltsBackgroundPolling) {
  HybridMonitor monitor(bed_.network(), bed_.station(), config());
  monitor.start(paths_to({1}), nullptr);
  sim_.run_for(Duration::sec(3));
  monitor.stop();
  sim_.run_for(Duration::ms(100));  // drain in-flight measurements
  const std::uint64_t written = monitor.database().records_written();
  EXPECT_GT(written, 0u);
  sim_.run_for(Duration::sec(5));
  EXPECT_EQ(monitor.database().records_written(), written);
}

TEST_F(HybridFixture, RisingUtilizationTrapEscalates) {
  rmon::Probe probe(bed_.probe_host(), bed_.segment());
  HybridMonitor::Config cfg = config();
  cfg.targeted_cooldown = Duration::ms(500);
  HybridMonitor monitor(bed_.network(), bed_.station(), cfg);
  monitor.arm_utilization_alarm(probe, 0.30, 0.10, Duration::ms(500));
  monitor.start(paths_to({1}), nullptr);
  sim_.run_for(Duration::sec(2));
  ASSERT_EQ(monitor.escalations(), 0u);

  // Saturate the segment so the probe's rising threshold fires a trap.
  bed_.host(3).udp().bind(7009, nullptr);
  apps::CbrTraffic::Config cross;
  cross.rate_bps = 7e6;
  cross.packet_bytes = 1000;
  cross.dst_port = 7009;
  apps::CbrTraffic burst(bed_.host(2), bed_.host_ip(3), cross);
  burst.start();
  sim_.run_for(Duration::sec(4));
  burst.stop();
  EXPECT_GT(monitor.escalations(), 0u);
  monitor.stop();
}

TEST_F(HybridFixture, ObservabilityRegistersAndDetaches) {
  obs::Registry reg;
  {
    HybridMonitor monitor(bed_.network(), bed_.station(), config());
    monitor.attach_observability(reg);
    monitor.start(paths_to({1}), nullptr);
    sim_.run_for(Duration::sec(3));
    if constexpr (obs::kCompiledIn) {
      EXPECT_TRUE(reg.contains("hybrid.escalations"));
      EXPECT_TRUE(reg.contains("hybrid.background.measurements_started"));
      EXPECT_TRUE(reg.contains("hybrid.targeted.in_flight"));
      EXPECT_TRUE(reg.contains("hybrid.background.db.sample_interval_ns"));
      // The snapshot reflects live values.
      bool found = false;
      for (const auto& entry : reg.snapshot()) {
        if (entry.name == "hybrid.background.measurements_started") {
          found = true;
          EXPECT_GT(entry.value, 0.0);
        }
      }
      EXPECT_TRUE(found);
    }
    monitor.stop();
  }
  EXPECT_EQ(reg.size(), 0u);  // destructor detached everything
}

}  // namespace
}  // namespace netmon::core
