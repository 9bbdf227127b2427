// admit_contended: the lane scheduler's contended wake-up path, driven
// directly through LaneScheduler::enqueue and Done. Every path of a
// leaf/spine fabric is queued at once behind 64 link-disjoint, budgeted
// lanes; the fabric caps link-disjoint concurrency near the trunk count, so
// almost every admission follows a deferral. Each admitted probe holds its
// lane for its path's simulated hold time; when it completes, its path is
// queued again, for 16 sweeps in all. Route footprints are computed in set-up,
// so the timed phase is admission alone.
//
// Seed: each path's probe hold time (10-14 ms) and the rotation of the
// striped sweep order.

#include <algorithm>
#include <memory>
#include <vector>

#include "apps/fabric.hpp"
#include "core/high_fidelity_monitor.hpp"
#include "core/lane_scheduler.hpp"
#include "harness.hpp"
#include "nttcp/nttcp.hpp"
#include "util/rng.hpp"

namespace perfbench {
namespace {

using namespace netmon;
using sim::Duration;

constexpr int kSweeps = 16;

class AdmitContended : public Workload {
 public:
  void setup(std::uint64_t seed, bool) override {
    apps::FabricOptions options;
    options.client_edges = 25;
    options.clients_per_edge = 10;  // 250 clients
    options.server_edges = 10;
    options.servers_per_edge = 8;  // 80 servers -> 20,000 paths
    options.seed = seed;
    options.install_sinks = false;  // topology only: the scheduler is the SUT
    {
      Span span(kSpanSetupTopology);
      bed_ = std::make_unique<apps::FabricTestbed>(sim_, options);
    }
    nttcp::NttcpConfig probe;
    probe.message_length = 8192;
    probe.inter_send = Duration::ms(5);
    probe.message_count = 2;
    const double offered = 2.0 * nttcp::NttcpProbe::peak_load_bps(probe);

    core::SchedulerConfig cfg;
    cfg.lanes = 64;
    cfg.link_disjoint = true;
    cfg.budget_bps = 66.0 * offered;
    cfg.starvation_limit_ns = Duration::sec(60).nanos();
    sched_ = std::make_unique<core::LaneScheduler>(cfg);
    sched_->set_clock([this] { return sim_.now().nanos(); });

    const auto requests =
        bed_->full_matrix({core::Metric::kThroughput}, core::ProbeClass::kNormal,
                          apps::FabricTestbed::SweepOrder::kStriped);
    auto profiler = core::make_route_profiler(bed_->network(), probe);
    util::Rng rng(seed ^ 0xAD);
    const std::size_t rotate = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(requests.size()) - 1));
    paths_.reserve(requests.size());
    for (std::size_t i = 0; i < requests.size(); ++i) {
      const core::PathRequest& req = requests[(i + rotate) % requests.size()];
      PathState p;
      {
        Span span(kSpanRouteProfile);
        p.profile = profiler(req.path, core::Metric::kThroughput);
      }
      ++profile_calls_;
      p.profile.priority = req.priority;
      p.profile.tag = i;
      p.hold = Duration::us(10'000 + rng.uniform_int(0, 4'000));
      paths_.push_back(std::move(p));
    }
    gaps_.reserve(paths_.size());
  }

  void run(Rep&) override {
    for (std::size_t i = 0; i < paths_.size(); ++i) enqueue(i);
    Span span(kSpanSimRun);
    sim_.run();
  }

  void finish(Rep& rep) override {
    const core::SchedulerStats& s = sched_->scheduler_stats();
    const std::uint64_t expected = kSweeps * paths_.size();
    rep.sim_s = sim_.now().to_seconds();
    rep.samples = completions_;
    rep.admissions = s.admitted;
    rep.attempted = expected;
    rep.failed = 0;

    check(rep, s.admitted == expected,
          "admit_contended: not every probe was admitted");
    check(rep, completions_ == expected,
          "admit_contended: not every probe completed");
    check(rep, sched_->idle(), "admit_contended: scheduler not idle at end");
    bool consistent = true;
    try {
      sched_->check_consistency();
    } catch (const std::exception&) {
      consistent = false;
    }
    check(rep, consistent, "admit_contended: scheduler inconsistent");
    check(rep, s.deferred_disjoint > 0,
          "admit_contended: sweep was not contended");

    // Senescence here is each path's gap between consecutive completions.
    std::sort(gaps_.begin(), gaps_.end());
    auto q = [this](double f) {
      if (gaps_.empty()) return 0.0;
      const std::size_t i = static_cast<std::size_t>(
          f * static_cast<double>(gaps_.size() - 1));
      return static_cast<double>(gaps_[i]) * 1e-9;
    };
    rep.sim_metrics["senescence_p50_s"] = q(0.5);
    rep.sim_metrics["senescence_p99_s"] = q(0.99);

    digest_.add(sim_.events_executed());
    digest_.add(s.admitted);
    digest_.add(s.wake_tests);
    digest_.add(s.futile_wakeups);
    digest_.add(s.deferred_disjoint);
    digest_.add(s.deferred_budget);
    rep.digest = digest_.value();

    auto& l = rep.layer;
    l["net.route_profile_calls"] = static_cast<double>(profile_calls_);
    l["sim.events"] = static_cast<double>(sim_.events_executed());
    add_sched_counts(l, s);
    l["sched.lane_occupancy"] =
        static_cast<double>(hold_ns_) /
        (static_cast<double>(sched_->config().lanes) *
         static_cast<double>(sim_.now().nanos()));
  }

 private:
  struct PathState {
    core::ProbeProfile profile;
    Duration hold;
    int sweeps_done = 0;
    std::int64_t last_done_ns = -1;
  };

  void enqueue(std::size_t i) {
    Span span(kSpanSchedEnqueue);
    // The scheduler adopts the footprint buffer, so each round hands it a
    // copy, as the director does with its cached route profiles.
    sched_->enqueue(
        [this, i](core::LaneScheduler::Done done) {
          const Duration hold = paths_[i].hold;
          hold_ns_ += hold.nanos();
          sim_.schedule_in(hold, [this, i, done = std::move(done)] {
            complete(i, done);
          });
        },
        paths_[i].profile);
  }

  void complete(std::size_t i, const core::LaneScheduler::Done& done) {
    PathState& p = paths_[i];
    const std::int64_t now = sim_.now().nanos();
    if (p.last_done_ns >= 0) gaps_.push_back(now - p.last_done_ns);
    p.last_done_ns = now;
    ++completions_;
    digest_.add(i);
    digest_.add(static_cast<std::uint64_t>(now));
    {
      Span span(kSpanSchedRelease);
      done();
    }
    if (++p.sweeps_done < kSweeps) enqueue(i);
  }

  sim::Simulator sim_;
  std::unique_ptr<apps::FabricTestbed> bed_;
  std::unique_ptr<core::LaneScheduler> sched_;
  std::vector<PathState> paths_;
  std::vector<std::int64_t> gaps_;
  std::uint64_t completions_ = 0;
  std::uint64_t profile_calls_ = 0;
  std::int64_t hold_ns_ = 0;
  Digest digest_;
};

}  // namespace

std::unique_ptr<Workload> make_admit_contended() {
  return std::make_unique<AdmitContended>();
}

}  // namespace perfbench
