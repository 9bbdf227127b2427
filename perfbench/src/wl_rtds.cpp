// rtds9x3: the paper's HiPer-D round (the examples/rtds_failover scenario).
// 3 servers x 9 clients; the active server streams L = 8192 B tracks every
// 30 ms; the serial (K = 1) sequencer probes reachability of all 27 paths
// back to back; the resource manager fails the service over when the
// active server host is killed. Per-frame and per-sample costs dominate:
// the topology is tiny and 27 paths cannot contend.
//
// Seed: testbed clock noise and link propagation delay (4.5-5.5 us). The
// kill instant is fixed at 10 s, as in the example: how many samples fall
// before and after it shapes the senescence distribution.

#include <algorithm>
#include <memory>
#include <vector>

#include "apps/rtds.hpp"
#include "apps/testbed.hpp"
#include "core/high_fidelity_monitor.hpp"
#include "harness.hpp"
#include "manager/resource_manager.hpp"
#include "obs/intrusiveness.hpp"
#include "obs/metrics.hpp"
#include "util/rng.hpp"

namespace perfbench {
namespace {

using namespace netmon;
using sim::Duration;

constexpr std::int64_t kKillSeconds = 10;
// The run ends 10 s after the kill: failover completes within about a
// second and the resumed track stream is checked; the example's longer
// steady-state tail would only add repetitions of the same per-frame work.
constexpr std::int64_t kRunSeconds = 20;

class Rtds9x3 : public Workload {
 public:
  void setup(std::uint64_t seed, bool traced) override {
    util::Rng rng(seed);

    apps::TestbedOptions options;
    options.servers = 3;
    options.clients = 9;
    options.seed = seed;
    options.link_delay = Duration::ns(4500 + rng.uniform_int(0, 1000));
    {
      Span span(kSpanSetupTopology);
      bed_ = std::make_unique<apps::Testbed>(sim_, options);
    }
    for (int s = 0; s < bed_->server_count(); ++s) {
      servers_.push_back(std::make_unique<apps::RtdsServer>(
          bed_->server(s), apps::RtdsServer::Config{}));
    }
    servers_[0]->start();
    for (int c = 0; c < bed_->client_count(); ++c) {
      clients_.push_back(std::make_unique<apps::RtdsClient>(
          bed_->client(c), apps::RtdsClient::Config{}));
      clients_.back()->connect(bed_->server_ip(0));
    }

    core::HighFidelityMonitor::Config mon_cfg;
    mon_cfg.probe.message_length = 8192;
    mon_cfg.probe.inter_send = Duration::ms(5);
    mon_cfg.probe.message_count = 4;
    mon_cfg.probe.result_timeout = Duration::ms(500);
    monitor_ = std::make_unique<core::HighFidelityMonitor>(bed_->network(),
                                                           mon_cfg);
    if (traced) {
      traced_sensor_ = std::make_unique<TracedSensor>(
          sim_, monitor_->sensor(), kSpanNttcpLaunch);
      monitor_->director().register_sensor(core::Metric::kReachability,
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

    mgr::ResourceManager::Config rm_cfg;
    rm_cfg.metrics = {core::Metric::kReachability};
    rm_cfg.strikes = 2;
    manager_ = std::make_unique<mgr::ResourceManager>(monitor_->director(),
                                                      rm_cfg);
    mgr::ManagedApplication app;
    app.name = "rtds";
    for (int s = 0; s < bed_->server_count(); ++s) {
      app.server_pool.push_back(bed_->server_ip(s));
    }
    for (int c = 0; c < bed_->client_count(); ++c) {
      app.client_pool.push_back(bed_->client_ip(c));
    }
    app.port = apps::kRtdsPort;
    pool_ = app.server_pool;
    manager_->set_reconfiguration_callback(
        [this](const mgr::ReconfigurationEvent& event) {
          reconfigs_.push_back(event);
          tracks_at_reconfig_ = clients_[0]->tracks_received();
          for (int s = 0; s < bed_->server_count(); ++s) {
            if (bed_->server_ip(s) == event.new_server) {
              servers_[s]->start();
            } else {
              servers_[s]->stop();
            }
          }
          for (auto& client : clients_) client->connect(event.new_server);
        });
    manager_->manage(app, bed_->server_ip(0));
    admitted0_ = monitor_->director().sequencer().scheduler_stats().admitted;
    started0_ = monitor_->director().stats().measurements_started;
  }

  void run(Rep&) override {
    {
      Span span(kSpanSimRun);
      sim_.run_until(
          sim::TimePoint::from_nanos(Duration::sec(kKillSeconds).nanos()));
    }
    bed_->server(0).set_up(false);
    {
      Span span(kSpanSimRun);
      sim_.run_until(
          sim::TimePoint::from_nanos(Duration::sec(kRunSeconds).nanos()));
    }
  }

  void finish(Rep& rep) override {
    core::SensorDirector& director = monitor_->director();
    const auto& sched = director.sequencer().scheduler_stats();
    rep.sim_s = sim_.now().to_seconds();
    rep.samples = log_.samples();
    rep.admissions = sched.admitted - admitted0_;
    rep.attempted = director.stats().measurements_started - started0_;
    rep.failed = log_.failed();

    // Gates: exactly one reconfiguration, to a live pool server, after
    // which the track stream resumes.
    check(rep, manager_->reconfigurations() == 1,
          "rtds9x3: expected exactly one reconfiguration");
    bool to_pool = false;
    if (reconfigs_.size() == 1) {
      for (std::size_t s = 1; s < pool_.size(); ++s) {
        to_pool = to_pool || reconfigs_[0].new_server == pool_[s];
      }
    }
    check(rep, to_pool, "rtds9x3: failover target is not a surviving pool server");
    check(rep, clients_[0]->tracks_received() > tracks_at_reconfig_ + 100,
          "rtds9x3: tracks did not resume after failover");
    bool consistent = true;
    try {
      director.sequencer().check_consistency();
    } catch (const std::exception&) {
      consistent = false;
    }
    check(rep, consistent, "rtds9x3: sequencer inconsistent");

    // Recovery: the longest interruption of the track stream any client saw.
    double longest_gap = 0.0;
    for (const auto& client : clients_) {
      longest_gap = std::max(longest_gap, client->interarrival_seconds().max());
    }
    rep.sim_metrics["senescence_p50_s"] = log_.gap_quantile_s(0.5);
    rep.sim_metrics["senescence_p99_s"] = log_.gap_quantile_s(0.99);
    rep.sim_metrics["recovery_s"] = longest_gap;
    rep.sim_metrics["monitor_peak_bps"] =
        meter_->peak_bps(net::TrafficClass::kMonitoring);

    const NetCounts net = net_counts(bed_->network());
    Digest& d = log_.digest();
    d.add(sim_.events_executed());
    d.add(net.frames);
    d.add(manager_->reconfigurations());
    for (const auto& r : reconfigs_) {
      d.add(static_cast<std::uint64_t>(r.at.nanos()));
      d.add(r.new_server.to_string());
    }
    for (const auto& client : clients_) d.add(client->tracks_received());
    rep.digest = d.value();

    auto& l = rep.layer;
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
    l["manager.tuples"] = static_cast<double>(manager_->tuples_consumed());
    l["manager.stale_tuples"] = static_cast<double>(manager_->stale_tuples());
    l["manager.reconfigurations"] =
        static_cast<double>(manager_->reconfigurations());
    l["fault.injected"] = 1.0;  // the scripted host kill
  }

 private:
  // Declared first so it outlives everything attached to it.
  obs::Registry registry_;
  sim::Simulator sim_;
  std::unique_ptr<apps::Testbed> bed_;
  std::vector<std::unique_ptr<apps::RtdsServer>> servers_;
  std::vector<std::unique_ptr<apps::RtdsClient>> clients_;
  std::unique_ptr<TracedSensor> traced_sensor_;
  std::unique_ptr<core::HighFidelityMonitor> monitor_;
  std::unique_ptr<obs::IntrusivenessMeter> meter_;
  std::unique_ptr<mgr::ResourceManager> manager_;
  std::vector<net::IpAddr> pool_;
  std::vector<mgr::ReconfigurationEvent> reconfigs_;
  std::uint64_t tracks_at_reconfig_ = 0;
  std::uint64_t admitted0_ = 0;
  std::uint64_t started0_ = 0;
  SampleLog log_;
};

}  // namespace

std::unique_ptr<Workload> make_rtds9x3() { return std::make_unique<Rtds9x3>(); }

}  // namespace perfbench
