// fabric10k: the many-paths case. FabricTestbed defaults (40 servers x 250
// clients = 10,000 paths) swept continuously, striped, through 4 budgeted,
// link-disjoint lanes. The first round is cold: the route profiler computes
// every path's footprint from the topology as the round is submitted. Later
// rounds are warm and load the director, lane scheduler, database and the
// per-frame path.
//
// Seed: clock noise, link propagation delay (4.5-5.5 us), and the rotation
// of the striped sweep order (which path the sweep starts from).

#include <algorithm>
#include <memory>
#include <vector>

#include "apps/fabric.hpp"
#include "core/high_fidelity_monitor.hpp"
#include "harness.hpp"
#include "nttcp/nttcp.hpp"
#include "obs/intrusiveness.hpp"
#include "obs/metrics.hpp"
#include "util/rng.hpp"

namespace perfbench {
namespace {

using namespace netmon;
using sim::Duration;

constexpr std::size_t kRounds = 4;  // 1 cold + 3 warm

// The scale soak's probe: L = 8192 B every 5 ms, two messages per burst.
nttcp::NttcpConfig fabric_probe() {
  nttcp::NttcpConfig probe;
  probe.message_length = 8192;
  probe.inter_send = Duration::ms(5);
  probe.message_count = 2;
  probe.result_timeout = Duration::sec(1);
  return probe;
}

class Fabric10k : public Workload {
 public:
  void setup(std::uint64_t seed, bool traced) override {
    util::Rng rng(seed ^ 0x5EED);
    apps::FabricOptions options;
    options.seed = seed;
    options.link_delay = Duration::ns(4500 + rng.uniform_int(0, 1000));
    {
      Span span(kSpanSetupTopology);
      bed_ = std::make_unique<apps::FabricTestbed>(sim_, options);
    }
    // Budget: 4 concurrent probes' declared load (2 L3 hops each) + 5%.
    const nttcp::NttcpConfig probe = fabric_probe();
    budget_bps_ = 4.2 * 2.0 * nttcp::NttcpProbe::peak_load_bps(probe);

    core::HighFidelityMonitor::Config cfg;
    cfg.probe = probe;
    cfg.scheduling.lanes = 4;
    cfg.scheduling.budget_bps = budget_bps_;
    cfg.scheduling.link_disjoint = true;
    cfg.scheduling.starvation_limit_ns = Duration::sec(60).nanos();
    cfg.auto_profile = false;  // installed below, counted
    cfg.history_depth = 2;
    cfg.supervision.deadline = Duration::sec(2);
    monitor_ = std::make_unique<core::HighFidelityMonitor>(bed_->network(), cfg);
    monitor_->director().set_probe_profiler(counted_profiler(
        core::make_route_profiler(bed_->network(), probe), &profile_calls_));
    if (traced) {
      traced_sensor_ = std::make_unique<TracedSensor>(
          sim_, monitor_->sensor(), kSpanNttcpLaunch);
      monitor_->director().register_sensor(core::Metric::kThroughput,
                                           traced_sensor_.get());
    }
    core::MeasurementDatabase& db = monitor_->database();
    db.set_record_hook([this, &db](core::PathId id, core::Metric metric,
                                   const core::MetricValue& v) {
      log_.on_sample(db.series_slot(id, metric), v);
    });
    meter_ = std::make_unique<obs::IntrusivenessMeter>(
        sim_, bed_->network(), registry_, "net.intrusiveness",
        Duration::ms(100));

    request_.paths =
        bed_->full_matrix({core::Metric::kThroughput}, core::ProbeClass::kNormal,
                          apps::FabricTestbed::SweepOrder::kStriped);
    const auto rotate = static_cast<std::ptrdiff_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(request_.paths.size()) - 1));
    std::rotate(request_.paths.begin(), request_.paths.begin() + rotate,
                request_.paths.end());
    request_.mode = core::MonitorRequest::Mode::kContinuous;
    request_.reporting = core::MonitorRequest::Reporting::kSynchronous;
  }

  void run(Rep& rep) override {
    core::SensorDirector& director = monitor_->director();
    const std::int64_t submitted = host_ns();
    core::SensorDirector::RequestId id = 0;
    {
      Span span(kSpanDirectorSubmit);
      id = director.submit(
          request_, nullptr,
          [&](const std::vector<core::PathMetricTuple>& tuples) {
            round_sizes_.push_back(tuples.size());
            round_ends_ns_.push_back(sim_.now().nanos());
            if (round_sizes_.size() == 1) {
              rep.first_round_s =
                  static_cast<double>(host_ns() - submitted) * 1e-9;
            }
            if (round_sizes_.size() == kRounds) director.cancel(id);
          });
    }
    while (round_sizes_.size() < kRounds &&
           sim_.now().to_seconds() < 600.0) {
      Span span(kSpanSimRun);
      sim_.run_for(Duration::ms(500));
    }
  }

  void finish(Rep& rep) override {
    core::SensorDirector& director = monitor_->director();
    const auto& sched = director.sequencer().scheduler_stats();
    const std::size_t paths = request_.paths.size();
    rep.sim_s = sim_.now().to_seconds();
    rep.samples = log_.samples();
    rep.admissions = sched.admitted;
    rep.attempted = director.stats().measurements_started;
    rep.failed = log_.failed();

    // Gates: every round covered every path, the scheduler is consistent,
    // and the metered monitoring peak respects the budget (20% slack for
    // tick quantization and result-report bytes, as in the scale soak).
    check(rep, round_sizes_.size() == kRounds,
          "fabric10k: not every round completed");
    bool rounds_full = true;
    for (std::size_t n : round_sizes_) rounds_full = rounds_full && n == paths;
    check(rep, rounds_full, "fabric10k: a round missed paths");
    std::size_t covered = 0;
    for (std::uint32_t n : log_.per_series()) covered += n >= kRounds ? 1 : 0;
    check(rep, covered == paths,
          "fabric10k: a path lacks a sample from some round");
    bool consistent = true;
    try {
      director.sequencer().check_consistency();
    } catch (const std::exception&) {
      consistent = false;
    }
    check(rep, consistent, "fabric10k: lane scheduler inconsistent");
    const double peak = meter_->peak_bps(net::TrafficClass::kMonitoring);
    check(rep, peak > 0.0 && peak <= 1.2 * budget_bps_,
          "fabric10k: metered monitoring peak exceeds 1.2 x budget");

    rep.sim_metrics["senescence_p50_s"] = log_.gap_quantile_s(0.5);
    rep.sim_metrics["senescence_p99_s"] = log_.gap_quantile_s(0.99);
    rep.sim_metrics["monitor_peak_bps"] = peak;

    const NetCounts net = net_counts(bed_->network());
    Digest& d = log_.digest();
    d.add(sim_.events_executed());
    d.add(net.frames);
    for (std::int64_t t : round_ends_ns_) d.add(static_cast<std::uint64_t>(t));
    rep.digest = d.value();

    auto& l = rep.layer;
    l["net.route_profile_calls"] = static_cast<double>(profile_calls_);
    l["net.frames"] = static_cast<double>(net.frames);
    l["net.drops"] = static_cast<double>(net.drops);
    l["net.octets_monitoring"] = static_cast<double>(
        bed_->network().octets_by_class()[static_cast<std::size_t>(
            net::TrafficClass::kMonitoring)]);
    l["sim.events"] = static_cast<double>(sim_.events_executed());
    l["nttcp.launches"] =
        static_cast<double>(monitor_->sensor().probes_launched());
    l["nttcp.timeouts"] =
        static_cast<double>(traced_sensor_ ? traced_sensor_->failed() : 0);
    l["director.retries"] = static_cast<double>(director.stats().retries);
    l["director.deadline_expired"] =
        static_cast<double>(director.stats().timeouts);
    add_sched_counts(l, sched);
    if (traced_sensor_) {
      l["sched.lane_occupancy"] =
          traced_sensor_->hold_s() /
          (static_cast<double>(director.sequencer().config().lanes) *
           sim_.now().to_seconds());
    }
    add_db_counts(l, monitor_->database());
  }

 private:
  obs::Registry registry_;
  sim::Simulator sim_;
  std::unique_ptr<apps::FabricTestbed> bed_;
  std::unique_ptr<TracedSensor> traced_sensor_;
  std::unique_ptr<core::HighFidelityMonitor> monitor_;
  std::unique_ptr<obs::IntrusivenessMeter> meter_;
  core::MonitorRequest request_;
  double budget_bps_ = 0.0;
  std::uint64_t profile_calls_ = 0;
  std::vector<std::size_t> round_sizes_;
  std::vector<std::int64_t> round_ends_ns_;
  SampleLog log_;
};

}  // namespace

std::unique_ptr<Workload> make_fabric10k() {
  return std::make_unique<Fabric10k>();
}

}  // namespace perfbench
