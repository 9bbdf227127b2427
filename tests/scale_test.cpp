// 10k-path soak (ctest label: scale): the budgeted multi-lane scheduler on
// the full FabricTestbed — 40 servers × 250 clients = 10000 application
// paths — must cut senescence at least 3× versus the paper's serial test
// sequencer while the IntrusivenessMeter-reported monitoring peak stays
// within the declared budget B. This is the ⌈C·S/K⌉·T claim of DESIGN.md
// §11, asserted from telemetry rather than from the closed form. The obs
// registry snapshot of both runs is written to scale-obs-snapshot.json so
// CI can archive the telemetry behind the assertion.

#include <gtest/gtest.h>

#include <chrono>
#include <deque>
#include <fstream>
#include <string>
#include <vector>

#include "apps/fabric.hpp"
#include "core/high_fidelity_monitor.hpp"
#include "nttcp/nttcp.hpp"
#include "obs/intrusiveness.hpp"
#include "obs/metrics.hpp"
#include "sim/simulator.hpp"

namespace netmon {
namespace {

using core::SchedulerConfig;
using sim::Duration;

// The probed application: L = 8192 bytes every P = 5 ms, two messages per
// burst, so one probe occupies its route ~10 ms and a serial sweep of the
// matrix takes C·S·T ≈ 10000 · 12 ms ≈ 2 minutes of simulated time.
nttcp::NttcpConfig soak_probe() {
  nttcp::NttcpConfig probe;
  probe.message_length = 8192;
  probe.inter_send = Duration::ms(5);
  probe.message_count = 2;
  probe.result_timeout = Duration::sec(1);
  return probe;
}

// Declared load of one fabric probe in meter units (2 L3 hops: every
// server→client route crosses exactly one spine router).
double probe_offered_bps() {
  return 2.0 * nttcp::NttcpProbe::peak_load_bps(soak_probe());
}

struct SoakResult {
  double round_duration_s = 0.0;  // steady-state matrix cycle (round 2)
  double sample_gap_s = 0.0;      // observed inter-sample gap on path (0,0)
  double metered_peak_bps = 0.0;
  core::SchedulerStats stats;
  std::uint64_t rounds = 0;
  std::string obs_json;
};

SoakResult run_soak(const SchedulerConfig& scheduling) {
  sim::Simulator sim;
  apps::FabricTestbed bed(sim, apps::FabricOptions{});
  EXPECT_EQ(bed.path_count(), 10000);

  obs::Registry registry;
  core::HighFidelityMonitor::Config cfg;
  cfg.probe = soak_probe();
  cfg.scheduling = scheduling;
  cfg.supervision.deadline = Duration::sec(2);
  core::HighFidelityMonitor monitor(bed.network(), cfg);
  monitor.director().attach_observability(registry, "director");
  obs::IntrusivenessMeter meter(sim, bed.network(), registry,
                                "net.intrusiveness", Duration::ms(100));

  core::MonitorRequest request;
  request.paths =
      bed.full_matrix({core::Metric::kThroughput}, core::ProbeClass::kNormal,
                      apps::FabricTestbed::SweepOrder::kStriped);
  request.mode = core::MonitorRequest::Mode::kContinuous;
  request.reporting = core::MonitorRequest::Reporting::kSynchronous;

  std::vector<double> round_ends_s;
  const auto id = monitor.director().submit(
      request, nullptr,
      [&round_ends_s, &sim](const std::vector<core::PathMetricTuple>&) {
        round_ends_s.push_back(sim.now().to_seconds());
      });

  // Two full matrix cycles give every series two samples — the minimum for
  // an observed inter-sample gap. Cap well above the serial C·S·T.
  while (round_ends_s.size() < 2 &&
         sim.now() < sim::TimePoint::from_nanos(Duration::sec(600).nanos())) {
    sim.run_for(Duration::sec(5));
  }
  monitor.director().cancel(id);

  SoakResult result;
  result.rounds = round_ends_s.size();
  if (round_ends_s.size() >= 2) {
    result.round_duration_s = round_ends_s[1] - round_ends_s[0];
  }
  // The last two raw points sit in the series' open tier-0 page, which the
  // store never evicts (a just-sealed predecessor could be).
  const auto raw = monitor.database().query(
      bed.path(0, 0), core::Metric::kThroughput, sim::TimePoint::from_nanos(0),
      sim.now(), Duration::ns(0));
  if (raw.points.size() >= 2) {
    const auto& h = raw.points;
    result.sample_gap_s =
        Duration::ns(h[h.size() - 1].last_ns - h[h.size() - 2].last_ns)
            .to_seconds();
  }
  result.metered_peak_bps = meter.peak_bps(net::TrafficClass::kMonitoring);
  monitor.director().sequencer().check_consistency();
  result.stats = monitor.director().sequencer().scheduler_stats();
  result.obs_json = registry.export_json();
  return result;
}

TEST(ScaleSoak, BudgetedLanesBeatSerialSenescenceThreefoldWithinBudget) {
  if constexpr (!obs::kCompiledIn) GTEST_SKIP() << "requires NETMON_OBS";

  // The paper's serial sequencer: K = 1, B = L/P — the scheduler's exact
  // special case (progress guarantee admits the single probe under any B).
  SchedulerConfig serial_cfg;
  serial_cfg.lanes = 1;
  serial_cfg.budget_bps = probe_offered_bps();

  // Budgeted multi-lane: K = 4 link-disjoint lanes under an explicit
  // intrusiveness budget with headroom for exactly 4 concurrent probes.
  const double budget = 4.2 * probe_offered_bps();
  SchedulerConfig lanes_cfg;
  lanes_cfg.lanes = 4;
  lanes_cfg.budget_bps = budget;
  lanes_cfg.link_disjoint = true;
  lanes_cfg.starvation_limit_ns = Duration::sec(60).nanos();

  const SoakResult serial = run_soak(serial_cfg);
  const SoakResult budgeted = run_soak(lanes_cfg);

  ASSERT_GE(serial.rounds, 2u) << "serial soak never completed two rounds";
  ASSERT_GE(budgeted.rounds, 2u) << "budgeted soak never completed 2 rounds";
  ASSERT_GT(serial.round_duration_s, 0.0);
  ASSERT_GT(budgeted.round_duration_s, 0.0);

  // Senescence: the matrix cycle time is each series' inter-sample gap
  // (kContinuous re-sweeps back to back). Both the round clock and the DB's
  // own history must show >= 3x improvement.
  const double round_ratio =
      serial.round_duration_s / budgeted.round_duration_s;
  EXPECT_GE(round_ratio, 3.0)
      << "serial " << serial.round_duration_s << " s vs budgeted "
      << budgeted.round_duration_s << " s";
  ASSERT_GT(budgeted.sample_gap_s, 0.0);
  EXPECT_GE(serial.sample_gap_s / budgeted.sample_gap_s, 3.0);

  // Intrusiveness: the meter (per-L3-hop octets over 100 ms ticks) must
  // stay within the budget. Slack covers tick quantization (21 vs 20
  // messages per tick) and the result-report bytes the declared load omits.
  EXPECT_GT(budgeted.metered_peak_bps, 0.0);
  EXPECT_LE(budgeted.metered_peak_bps, budget * 1.2)
      << "metered monitoring peak exceeds the intrusiveness budget";
  // The serial baseline corroborates the units: one probe's declared load,
  // same slack.
  EXPECT_LE(serial.metered_peak_bps, probe_offered_bps() * 1.2);
  // And the lanes were genuinely used: peak parallel wire load well above
  // one probe's.
  EXPECT_GE(budgeted.metered_peak_bps, 2.0 * serial.metered_peak_bps);

  // Both rounds fully drained through the scheduler. (The striped sweep
  // keeps admissible work at the queue head, so the gates rarely defer
  // here; gate behavior under a hostile server-major sweep is asserted in
  // scheduler_test's fabric case.)
  EXPECT_GE(budgeted.stats.admitted, 2u * 10000u);

  // Telemetry artifact for CI: both runs' registry snapshots plus the
  // headline numbers, stable-JSON inside, so diffs across commits are
  // meaningful.
  std::ofstream out("scale-obs-snapshot.json");
  out << "{\n\"senescence_ratio\": " << round_ratio
      << ",\n\"serial_round_s\": " << serial.round_duration_s
      << ",\n\"budgeted_round_s\": " << budgeted.round_duration_s
      << ",\n\"budget_bps\": " << budget
      << ",\n\"budgeted_peak_bps\": " << budgeted.metered_peak_bps
      << ",\n\"serial\": " << serial.obs_json
      << ",\n\"budgeted\": " << budgeted.obs_json << "\n}\n";
  ASSERT_TRUE(out.good());
}

// ---------------------------------------------------------------------------
// 100k-path admission soak (DESIGN.md §15): a 1250-client × 80-server fabric
// (100,000 paths) swept once through the indexed admission gate with real
// topology footprints from make_route_profiler. The point under test is the
// *scheduler's* cost model, not probe traffic, so the LaneScheduler is
// driven directly: enqueue the full matrix, then release lanes in admission
// order and let incremental wake-up refill them. The pre-index scheduler
// re-gate-tested every deferred entry on every release — Σ queued-at-release
// ≈ 5×10^9 gate tests over this sweep. The indexed gate's entire re-test
// cost is wake_tests (+ the one head test per admission), asserted from
// telemetry at ≤ 1% of that naive-scan bound, and the admission-cycle
// numbers are published to scale-admission-snapshot.json for CI.

TEST(ScaleSoak, HundredThousandPathAdmissionStaysIndexed) {
  sim::Simulator sim;
  apps::FabricOptions opt;
  opt.client_edges = 25;
  opt.clients_per_edge = 50;  // 1250 clients
  opt.server_edges = 10;
  opt.servers_per_edge = 8;   // 80 servers
  opt.install_sinks = false;  // topology only: the scheduler is the SUT
  // Topology build (auto_route included), route profiling and the
  // scheduler drain are timed apart, so the admission rate measures
  // admissions and not route lookups.
  const auto setup0 = std::chrono::steady_clock::now();
  apps::FabricTestbed bed(sim, opt);
  const auto setup1 = std::chrono::steady_clock::now();
  ASSERT_EQ(bed.path_count(), 100'000);

  const nttcp::NttcpConfig probe = soak_probe();
  auto profiler = core::make_route_profiler(bed.network(), probe);
  const double offered = probe_offered_bps();

  SchedulerConfig cfg;
  cfg.lanes = 64;
  cfg.link_disjoint = true;
  cfg.budget_bps = 66.0 * offered;  // headroom for the full lane complement
  cfg.starvation_limit_ns = Duration::sec(60).nanos();
  core::LaneScheduler sched(cfg);
  std::int64_t now = 0;
  sched.set_clock([&now] { return now; });
  obs::Registry registry;
  sched.attach_observability(registry, "sequencer");

  const auto requests =
      bed.full_matrix({core::Metric::kThroughput}, core::ProbeClass::kNormal,
                      apps::FabricTestbed::SweepOrder::kStriped);
  ASSERT_EQ(requests.size(), 100'000u);

  const auto wall0 = std::chrono::steady_clock::now();
  std::vector<core::ProbeProfile> profiles;
  profiles.reserve(requests.size());
  for (const core::PathRequest& req : requests) {
    core::ProbeProfile profile =
        profiler(req.path, core::Metric::kThroughput);
    profile.priority = req.priority;
    profiles.push_back(std::move(profile));
  }
  const auto wall1 = std::chrono::steady_clock::now();
  std::deque<core::LaneScheduler::Done> running;
  for (core::ProbeProfile& profile : profiles) {
    sched.enqueue(
        [&running](core::LaneScheduler::Done done) {
          running.push_back(std::move(done));
        },
        std::move(profile));
  }
  // Concurrency is capped by the fabric, not the lane count: every edge
  // routes through one designated spine, so at most ~#server-edge trunks
  // can be link-disjoint at once. The scheduler must saturate that cap.
  EXPECT_GE(sched.in_flight(), 8u);
  EXPECT_LE(sched.in_flight(), cfg.lanes);

  // Release in admission order; every release is where the old scheduler
  // paid its O(deferred × footprint) rescan, accumulated here as the bound
  // the indexed gate must beat. (Enqueue-time rescans are ignored — the
  // bound is deliberately conservative.)
  std::uint64_t naive_scan_bound = 0;
  while (!running.empty()) {
    now += Duration::ms(1).nanos();
    naive_scan_bound += sched.queued();
    auto done = std::move(running.front());
    running.pop_front();
    done();
  }
  const auto wall2 = std::chrono::steady_clock::now();
  using Ms = std::chrono::duration<double, std::milli>;
  const double setup_ms = Ms(setup1 - setup0).count();
  const double profile_ms = Ms(wall1 - wall0).count();
  const double drain_ms = Ms(wall2 - wall1).count();

  sched.check_consistency();
  EXPECT_TRUE(sched.idle());
  EXPECT_EQ(sched.completed(), 100'000u);
  const core::SchedulerStats stats = sched.scheduler_stats();
  EXPECT_EQ(stats.admitted, 100'000u);

  // The headline: incremental wake-up does ≤ 1% of the work a full rescan
  // per release would have done, asserted from the new telemetry.
  ASSERT_GT(naive_scan_bound, 1'000'000'000u)
      << "sweep was not contended enough to mean anything";
  EXPECT_GT(stats.wake_tests, 0u);
  EXPECT_LE(stats.wake_tests, naive_scan_bound / 100)
      << "wake_tests " << stats.wake_tests << " vs naive bound "
      << naive_scan_bound;

  const double admissions_per_sec =
      drain_ms > 0.0 ? 100'000.0 / (drain_ms / 1000.0) : 0.0;
  std::ofstream out("scale-admission-snapshot.json");
  out << "{\n\"paths\": 100000"
      << ",\n\"admitted\": " << stats.admitted
      << ",\n\"wake_tests\": " << stats.wake_tests
      << ",\n\"futile_wakeups\": " << stats.futile_wakeups
      << ",\n\"deferred_disjoint\": " << stats.deferred_disjoint
      << ",\n\"deferred_budget\": " << stats.deferred_budget
      << ",\n\"naive_scan_bound\": " << naive_scan_bound
      << ",\n\"wake_share_of_naive\": "
      << (static_cast<double>(stats.wake_tests) /
          static_cast<double>(naive_scan_bound))
      << ",\n\"setup_ms\": " << setup_ms
      << ",\n\"profile_ms\": " << profile_ms
      << ",\n\"drain_ms\": " << drain_ms
      << ",\n\"admissions_per_sec\": " << admissions_per_sec
      << ",\n\"obs\": " << registry.export_json() << "\n}\n";
  ASSERT_TRUE(out.good());
}

}  // namespace
}  // namespace netmon
