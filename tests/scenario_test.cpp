// Deterministic scenario harness (paper §5.1): the 9×3 RTDS path matrix
// monitored by the sequenced high-fidelity monitor under three fault plans,
// with the §4.4 evaluation criteria asserted from *measured* telemetry:
//
//   * senescence — the per-path inter-sample interval recorded by the
//     measurement database must stay within the paper's C·S·T bound, where
//     T is itself measured (the sequencer's longest slot hold);
//   * intrusiveness — the monitoring bytes/s metered on the wire must stay
//     within L/P (§5.1.2.3: 8192 bytes per 30 ms ≈ 2.18 Mb/s) for the
//     sequenced monitor, while the naive parallel monitor shows the
//     C·S·L/P (≈ 59 Mb/s) burst the sequencer exists to prevent.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "apps/testbed.hpp"
#include "core/high_fidelity_monitor.hpp"
#include "fault/fault_injector.hpp"
#include "fault/fault_plan.hpp"
#include "obs/intrusiveness.hpp"
#include "obs/metrics.hpp"
#include "sim/simulator.hpp"

namespace netmon {
namespace {

using core::Metric;
using sim::Duration;

constexpr int kClients = 9;
constexpr int kServers = 3;
constexpr std::uint32_t kMessageLength = 8192;         // L (paper §5.1.2.3)
constexpr auto kInterSend = Duration::ms(30);          // P
constexpr std::uint32_t kMessageCount = 8;
constexpr double kNominalBps = kMessageLength * 8.0 * 1000.0 / 30.0;  // L/P

core::HighFidelityMonitor::Config monitor_config(std::size_t concurrency) {
  core::HighFidelityMonitor::Config cfg;
  cfg.probe.message_length = kMessageLength;
  cfg.probe.inter_send = kInterSend;
  cfg.probe.message_count = kMessageCount;
  cfg.probe.result_timeout = Duration::sec(1);
  cfg.max_concurrent = concurrency;
  // A crashed target must not wedge the sequencer longer than the deadline.
  cfg.supervision.deadline = Duration::ms(1500);
  return cfg;
}

// One scenario: a name plus the fault plan it runs under. Link names come
// from Network::attach ("<host><->backbone").
struct Scenario {
  const char* name;
  fault::FaultPlan plan;
};

std::vector<Scenario> scenarios() {
  std::vector<Scenario> out;

  fault::FaultPlan flap;
  flap.seed = 11;
  flap.link_flap(Duration::sec(5), "client2<->backbone", 3, Duration::ms(200),
                 Duration::ms(800));
  out.push_back(Scenario{"link-flap", flap});

  fault::FaultPlan chaos;
  chaos.seed = 22;
  chaos.packet_chaos(Duration::sec(4), "server1<->backbone", Duration::sec(5),
                     0.2, 0.05, Duration::ms(2));
  out.push_back(Scenario{"packet-chaos", chaos});

  fault::FaultPlan crash;
  crash.seed = 33;
  crash.host_crash(Duration::sec(4), "client5");
  crash.host_restart(Duration::sec(8), "client5");
  out.push_back(Scenario{"host-crash", crash});

  return out;
}

const obs::SnapshotEntry* find_entry(
    const std::vector<obs::SnapshotEntry>& snapshot, const std::string& name) {
  for (const auto& e : snapshot) {
    if (e.name == name) return &e;
  }
  return nullptr;
}

// Full scenario run: sequenced monitor, continuous rounds over the 27-path
// matrix, telemetry attached, the plan armed at t=0.
struct RunResult {
  std::vector<obs::SnapshotEntry> snapshot;
  double monitoring_peak_bps = 0.0;
  std::uint64_t tuples = 0;
  std::uint64_t fault_records = 0;
};

RunResult run_scenario(const fault::FaultPlan& plan) {
  sim::Simulator sim;
  apps::TestbedOptions options;
  options.servers = kServers;
  options.clients = kClients;
  apps::Testbed bed(sim, options);

  obs::Registry registry;
  core::HighFidelityMonitor monitor(bed.network(), monitor_config(1));
  monitor.director().attach_observability(registry, "hfm");
  obs::IntrusivenessMeter meter(sim, bed.network(), registry,
                                "net.intrusiveness", Duration::ms(300));

  fault::FaultInjector injector(sim);
  for (const auto& link : bed.network().links()) {
    injector.register_link(link->name(), *link);
  }
  for (const auto& host : bed.network().hosts()) {
    injector.register_host(host->name(), *host);
  }
  injector.arm(plan);

  core::MonitorRequest request;
  request.paths = bed.full_matrix({Metric::kThroughput});
  request.mode = core::MonitorRequest::Mode::kContinuous;

  RunResult result;
  monitor.director().submit(
      request, [&](const core::PathMetricTuple&) { ++result.tuples; });
  sim.run_for(Duration::sec(30));

  // Age-at-read telemetry: consult every series once so the senescence the
  // manager would experience lands in the histogram.
  for (int s = 0; s < kServers; ++s) {
    for (int c = 0; c < kClients; ++c) {
      (void)monitor.database().current(bed.path(s, c), Metric::kThroughput,
                                       sim.now(), Duration::sec(3600));
    }
  }

  // Accounting must balance even across timeouts and dead targets.
  monitor.director().sequencer().check_consistency();

  // The fault log is timestamp-monotone by contract.
  const auto& log = injector.log();
  for (std::size_t i = 1; i < log.size(); ++i) {
    EXPECT_LE(log[i - 1].at.nanos(), log[i].at.nanos());
  }
  result.fault_records = log.size();

  result.monitoring_peak_bps = meter.peak_bps(net::TrafficClass::kMonitoring);
  result.snapshot = registry.snapshot();
  return result;
}

TEST(ScenarioMatrix, PaperBoundsHoldUnderEveryFaultPlan) {
  if constexpr (!obs::kCompiledIn) {
    GTEST_SKIP() << "bounds are asserted from registry telemetry, which "
                    "NETMON_OBS=OFF compiles out";
  }
  for (const Scenario& scenario : scenarios()) {
    SCOPED_TRACE(scenario.name);
    const RunResult r = run_scenario(scenario.plan);

    ASSERT_GT(r.tuples, 0u);
    EXPECT_GT(r.fault_records, 0u);

    // --- senescence ≤ C·S·T (paper §5.1.3), T measured ---------------------
    const auto* hold = find_entry(r.snapshot, "hfm.sequencer.slot_hold_ns");
    const auto* interval =
        find_entry(r.snapshot, "hfm.db.sample_interval_ns");
    const auto* age = find_entry(r.snapshot, "hfm.db.age_at_read_ns");
    ASSERT_NE(hold, nullptr);
    ASSERT_NE(interval, nullptr);
    ASSERT_NE(age, nullptr);
    ASSERT_GT(hold->count, 0u);
    ASSERT_GT(interval->count, 0u);

    // T: longest single sample, start to finish, as the sequencer held its
    // slot. With one slot, a path waits at most C·S jobs per cycle; 1.25
    // covers scheduling gaps between jobs.
    const double T_ns = hold->max;
    const double bound_ns = kClients * kServers * T_ns * 1.25;
    EXPECT_LE(interval->max, bound_ns)
        << "inter-sample interval " << interval->max / 1e9
        << " s exceeds C*S*T = " << bound_ns / 1e9 << " s";
    // What a reader sees can lag at most one full cycle.
    EXPECT_LE(age->max, bound_ns);

    // --- intrusiveness ≤ L/P (paper §5.1.2.3) ------------------------------
    // The sequenced monitor never exceeds one burst at a time: ~2.18 Mb/s
    // nominal; 1.5 covers wire overheads (fragment headers, result
    // exchange) and tick quantization.
    EXPECT_GT(r.monitoring_peak_bps, 0.0);
    EXPECT_LE(r.monitoring_peak_bps, kNominalBps * 1.5)
        << "sequenced monitoring peak " << r.monitoring_peak_bps / 1e6
        << " Mb/s exceeds L/P = " << kNominalBps / 1e6 << " Mb/s";

    // Telemetry share: the meter's view of monitoring vs application load.
    const auto* share = find_entry(r.snapshot, "net.intrusiveness.monitoring_share");
    ASSERT_NE(share, nullptr);
    EXPECT_GT(share->value, 0.0);
    EXPECT_LE(share->value, 1.0);
  }
}

// Paper §5.1.2.3 / §5.1.3 contrast, reproduced as measured quantities: one
// round of the 27-path matrix fully parallel versus sequenced. Parallel
// peaks near C·S·L/P (≈ 59 Mb/s); the sequencer holds the same matrix to
// L/P (≈ 2.18 Mb/s).
double one_round_peak_bps(std::size_t concurrency) {
  sim::Simulator sim;
  apps::TestbedOptions options;
  options.servers = kServers;
  options.clients = kClients;
  apps::Testbed bed(sim, options);
  obs::Registry registry;
  core::HighFidelityMonitor monitor(bed.network(),
                                    monitor_config(concurrency));
  obs::IntrusivenessMeter meter(sim, bed.network(), registry,
                                "net.intrusiveness", Duration::ms(100));

  core::MonitorRequest request;
  request.paths = bed.full_matrix({Metric::kThroughput});
  request.mode = core::MonitorRequest::Mode::kOnce;
  monitor.director().submit(request, nullptr);
  sim.run_for(Duration::sec(30));
  EXPECT_EQ(monitor.director().stats().rounds_completed, 1u);
  return meter.peak_bps(net::TrafficClass::kMonitoring);
}

TEST(ScenarioMatrix, SequencerTradesParallelBurstForBoundedLoad) {
  const double parallel = one_round_peak_bps(core::TestSequencer::kUnlimited);
  const double sequenced = one_round_peak_bps(1);

  // Parallel: every path bursts at once — the C·S multiplier must show.
  EXPECT_GT(parallel, 10.0 * kNominalBps);
  EXPECT_LE(parallel, kClients * kServers * kNominalBps * 1.5);

  // Sequenced: bounded by a single burst.
  EXPECT_GT(sequenced, 0.0);
  EXPECT_LE(sequenced, kNominalBps * 1.5);

  // The ratio is the paper's 59 : 2.18 story.
  EXPECT_GT(parallel / sequenced, 8.0);
}

}  // namespace
}  // namespace netmon
