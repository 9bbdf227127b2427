// zones_chaos: the composed soak. Two zones of a small leaf/spine fabric
// replicate to one parent manager at the station over simulated TCP
// (fed::FedChild -> fed::FedParent). Zone A is sampled by a ScalableMonitor
// polling SNMP agents the benchmark installs; zone B is written by the
// benchmark's own high-rate recorder through MeasurementDatabase::record.
// The benchmark range-queries the parent database on a fixed cadence. A
// reachability monitor and resource manager watch zone A's path matrix with
// the ControlPlane's route failover on and standby routes provisioned. A
// seeded FaultPlan partitions zone B's child long enough to overflow its
// spool, crashes and restarts zone A's child, flaps zone A's server trunk,
// and puts packet chaos on zone B's trunk. This is the only workload that
// loads snmp, tcp, fed, the tiered store (writes and reads), ctrl and fault.
//
// Seed: clock noise, link propagation delay (4.5-5.5 us), the chaos
// window's drop pattern, each fault's start time (jittered by up to 1 s),
// and the monitors' polling periods (within +-3%).

#include <algorithm>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "apps/fabric.hpp"
#include "core/high_fidelity_monitor.hpp"
#include "core/scalable_monitor.hpp"
#include "ctrl/control_plane.hpp"
#include "fault/fault_injector.hpp"
#include "fault/fault_plan.hpp"
#include "fed/child.hpp"
#include "fed/parent.hpp"
#include "harness.hpp"
#include "manager/resource_manager.hpp"
#include "obs/intrusiveness.hpp"
#include "obs/metrics.hpp"
#include "snmp/agent.hpp"
#include "util/rng.hpp"

namespace perfbench {
namespace {

using namespace netmon;
using sim::Duration;
using sim::TimePoint;

constexpr int kZoneServers = 4;   // per zone; the edge's 5th host runs the child
constexpr int kZoneClients = 8;
constexpr double kLoadEnd = 100.0;  // recorder and monitors stop (sim s)
constexpr double kQuiesceEnd = 150.0;
constexpr std::size_t kParentMaxPages = 1024;

TimePoint at_s(double s) {
  return TimePoint::from_nanos(static_cast<std::int64_t>(s * 1e9));
}

core::TieredStorageConfig zone_tiers() {
  core::TieredStorageConfig cfg;
  cfg.page_points = 8;
  cfg.rollup_factor = 4;
  cfg.tiers = 2;
  return cfg;
}

class ZonesChaos : public Workload {
 public:
  void setup(std::uint64_t seed, bool traced) override {
    util::Rng rng(seed);
    auto jitter = [&rng] { return rng.uniform(0.0, 1.0); };
    const double period_scale = rng.uniform(0.97, 1.03);
    flap_at_ = 40.0 + jitter();
    partition_at_ = 20.0 + jitter();
    crash_at_ = 60.0 + jitter();
    chaos_at_ = 75.0 + jitter();

    apps::FabricOptions fab;
    fab.spines = 2;
    fab.client_edges = 2;
    fab.clients_per_edge = kZoneClients;
    fab.server_edges = 2;
    fab.servers_per_edge = kZoneServers + 1;
    fab.seed = seed;
    fab.link_delay = Duration::ns(4500 + rng.uniform_int(0, 1000));
    {
      Span span(kSpanSetupTopology);
      bed_ = std::make_unique<apps::FabricTestbed>(sim_, fab);
    }
    net::Network& network = bed_->network();

    // Zone membership: zone z owns servers [5z, 5z+4) on server edge z and
    // clients [8z, 8z+8) on client edge z; server 5z+4 hosts its child.
    for (int z = 0; z < 2; ++z) {
      for (int s = 0; s < kZoneServers; ++s) {
        for (int c = 0; c < kZoneClients; ++c) {
          zone_paths_[z].push_back(bed_->path(z * (kZoneServers + 1) + s,
                                              z * kZoneClients + c));
        }
      }
    }
    for (int s = 0; s < kZoneServers; ++s) {
      agents_.push_back(std::make_unique<snmp::Agent>(bed_->server(s)));
    }
    for (int c = 0; c < kZoneClients; ++c) {
      agents_.push_back(std::make_unique<snmp::Agent>(bed_->client(c)));
    }
    for (int s = 0; s < kZoneServers; ++s) {
      for (int c = 0; c < kZoneClients; ++c) bed_->provision_standby(s, c);
    }

    // Zone A: SNMP monitor at the station; its database replicates.
    core::ScalableMonitor::Config scfg;
    scfg.manager.timeout = Duration::ms(250);
    scfg.manager.retries = 1;
    scfg.storage = zone_tiers();
    scfg.supervision.deadline = Duration::sec(2);
    scfg.supervision.breaker_threshold = 3;
    scfg.supervision.breaker_open_for = Duration::sec(4);
    snmp_mon_ = std::make_unique<core::ScalableMonitor>(network, bed_->station(),
                                                        scfg);
    db_b_ = std::make_unique<core::MeasurementDatabase>(4, zone_tiers());
    core::TieredStorageConfig ptiers;
    ptiers.page_points = 64;
    ptiers.rollup_factor = 8;
    ptiers.tiers = 2;
    ptiers.max_pages = kParentMaxPages;
    parent_db_ = std::make_unique<core::MeasurementDatabase>(4, ptiers);

    // Reachability monitor + manager + control plane over zone A's matrix.
    core::HighFidelityMonitor::Config hcfg;
    hcfg.probe.message_count = 2;
    hcfg.probe.inter_send = Duration::ms(5);
    hcfg.probe.result_timeout = Duration::ms(500);
    hcfg.reach.attempts = 1;
    hcfg.reach.timeout = Duration::ms(200);
    hcfg.max_concurrent = 8;  // a dead round of 32 paths stays under 1 s
    reach_mon_ = std::make_unique<core::HighFidelityMonitor>(network, hcfg);
    if (traced) {
      traced_snmp_ = std::make_unique<TracedSensor>(sim_, snmp_mon_->sensor(),
                                                    kSpanSnmpLaunch);
      snmp_mon_->director().register_sensor(core::Metric::kThroughput,
                                            traced_snmp_.get());
      traced_nttcp_ = std::make_unique<TracedSensor>(
          sim_, reach_mon_->sensor(), kSpanNttcpLaunch);
      reach_mon_->director().register_sensor(core::Metric::kReachability,
                                             traced_nttcp_.get());
      snmp_mon_->director().attach_observability(registry_, "zone_a");
      reach_mon_->director().attach_observability(registry_, "reach");
    }
    core::MeasurementDatabase& rdb = reach_mon_->database();
    rdb.set_record_hook([this, &rdb](core::PathId id, core::Metric metric,
                                     const core::MetricValue& v) {
      log_.on_sample(rdb.series_slot(id, metric), v);
    });

    mgr::ResourceManager::Config rm_cfg;
    rm_cfg.mode = core::MonitorRequest::Mode::kPeriodic;
    rm_cfg.metrics = {core::Metric::kReachability};
    rm_cfg.period = Duration::ns(static_cast<std::int64_t>(500e6 * period_scale));
    rm_cfg.strikes = 3;  // route repair (2 strikes) lands first
    manager_ = std::make_unique<mgr::ResourceManager>(reach_mon_->director(),
                                                      rm_cfg);
    ctrl::ControlConfig ccfg;
    ccfg.enabled = true;
    ccfg.route_failover = true;
    ccfg.failover_strikes = 2;
    ccfg.failover_cooldown = Duration::sec(2);
    ccfg.probe_retuning = false;
    ccfg.priority_boost = true;
    ccfg.policy.action_deadline = Duration::sec(5);
    ccfg.policy.hold = Duration::sec(8);
    plane_ = std::make_unique<ctrl::ControlPlane>(sim_, network, ccfg);
    plane_->attach(*manager_);
    manager_->set_tuple_observer(
        [this](const std::string& app, const core::PathMetricTuple& tuple) {
          on_reach_tuple(tuple);
          plane_->observe_tuple(app, tuple);
        });
    mgr::ManagedApplication app;
    app.name = "zone-a";
    for (int s = 0; s < kZoneServers; ++s) {
      app.server_pool.push_back(bed_->server_ip(s));
    }
    for (int c = 0; c < kZoneClients; ++c) {
      app.client_pool.push_back(bed_->client_ip(c));
    }
    app.port = 5000;
    manager_->manage(app, bed_->server_ip(0));

    meter_ = std::make_unique<obs::IntrusivenessMeter>(
        sim_, network, registry_, "net.intrusiveness", Duration::ms(500));

    // Federation: parent at the station, one child per zone.
    parent_ = std::make_unique<fed::FedParent>(bed_->station(), *parent_db_,
                                               fed::FedParentConfig{});
    auto child_config = [this](const std::string& zone) {
      fed::FedChildConfig cfg;
      cfg.zone = zone;
      cfg.parent_ip = bed_->station().primary_ip();
      cfg.spool_max_pages = 256;  // zone B's partition must overflow this
      cfg.retry_max = Duration::sec(4);
      cfg.ack_timeout = Duration::sec(2);
      cfg.delta_min_gap = Duration::sec(2);
      return cfg;
    };
    child_a_ = std::make_unique<fed::FedChild>(
        bed_->server(kZoneServers), snmp_mon_->database(), child_config("zone-a"));
    child_b_ = std::make_unique<fed::FedChild>(
        bed_->server(2 * kZoneServers + 1), *db_b_, child_config("zone-b"));
    parent_->set_page_hook([this](const std::string&, const fed::PageMsg& m) {
      const std::int64_t now = sim_.now().nanos();
      for (const core::TierPoint& p : m.points) {
        fed_lag_ns_.push_back(now - p.last_ns);
      }
    });
    parent_->start();
    child_a_->start();
    child_b_->start();

    // Zone B's recorder writes 64 series (32 paths x 2 metrics) at 20 Hz.
    for (const core::Path& p : zone_paths_[1]) {
      zone_b_ids_.push_back(db_b_->id_of(p));
    }

    // Faults.
    injector_ = std::make_unique<fault::FaultInjector>(sim_);
    for (const auto& link : network.links()) {
      injector_->register_link(link->name(), *link);
    }
    injector_->register_host("child-a", bed_->server(kZoneServers));
    injector_->register_host("child-b", bed_->server(2 * kZoneServers + 1));
    fault::FaultPlan plan;
    plan.seed = seed;
    plan.partition(Duration::ns(static_cast<std::int64_t>(partition_at_ * 1e9)),
                   "child-b", Duration::sec(12));
    plan.link_flap(Duration::ns(static_cast<std::int64_t>(flap_at_ * 1e9)),
                   "spine0<->sedge0", 2, Duration::sec(4), Duration::sec(4));
    plan.host_crash(Duration::ns(static_cast<std::int64_t>(crash_at_ * 1e9)),
                    "child-a");
    plan.host_restart(
        Duration::ns(static_cast<std::int64_t>((crash_at_ + 8.0) * 1e9)),
        "child-a");
    plan.packet_chaos(Duration::ns(static_cast<std::int64_t>(chaos_at_ * 1e9)),
                      "spine1<->sedge1", Duration::sec(10), 0.05, 0.01);
    injector_->arm(plan);
    // The replication agent rides its host: crash loses its session state.
    sim_.schedule_at(at_s(crash_at_ + 0.001), [this] { child_a_->crash(); });
    sim_.schedule_at(at_s(crash_at_ + 8.001), [this] { child_a_->restart(); });

    core::MonitorRequest req;
    for (const core::Path& p : zone_paths_[0]) {
      req.paths.push_back(core::PathRequest{p, {core::Metric::kThroughput}});
    }
    req.mode = core::MonitorRequest::Mode::kPeriodic;
    req.period = Duration::ns(static_cast<std::int64_t>(1e9 * period_scale));
    snmp_request_ = snmp_mon_->director().submit(
        std::move(req), [this](const core::PathMetricTuple& tuple) {
          const core::MeasurementDatabase& db = snmp_mon_->database();
          log_.on_sample(
              kSnmpSeriesBase + db.series_slot(db.find(tuple.path), tuple.metric),
              tuple.value);
        });
    admitted0_ = admitted();
    started0_ = started();
  }

  void run(Rep&) override {
    sim::EventHandle recorder =
        sim_.schedule_periodic(Duration::ms(50), [this] { record_zone_b(); });
    sim::EventHandle querier =
        sim_.schedule_periodic(Duration::sec(1), [this] { query_parent(); });
    sim_.schedule_at(at_s(kLoadEnd), [&] {
      recorder.cancel();
      querier.cancel();
      snmp_mon_->director().cancel(snmp_request_);
      manager_->stop("zone-a");
    });
    Span span(kSpanSimRun);
    sim_.run_until(at_s(kQuiesceEnd));
  }

  void finish(Rep& rep) override {
    const auto& pa = parent_->stats();
    const auto& ca = child_a_->stats();
    const auto& cb = child_b_->stats();
    const core::StoreStats& ps = parent_db_->tiered().stats();
    rep.sim_s = sim_.now().to_seconds();
    rep.samples = snmp_mon_->database().records_written() +
                  db_b_->records_written() +
                  reach_mon_->database().records_written();
    rep.admissions = admitted() - admitted0_;
    rep.attempted = started() - started0_ + zone_b_records_;
    rep.failed = log_.failed();

    // Gates: federation conservation, parent pool bound, no overcommit, and
    // the faults actually happened and were repaired.
    check(rep, child_a_->spool_pages() == 0 && child_b_->spool_pages() == 0,
          "zones_chaos: spools not drained at quiesce");
    check(rep, pa.points_merged + pa.points_lost ==
                   ca.points_spooled + cb.points_spooled,
          "zones_chaos: fed conservation violated (merged + lost != spooled)");
    check(rep, pa.implicit_gap_pages == 0 && pa.protocol_errors == 0,
          "zones_chaos: parent saw implicit gaps or protocol errors");
    check(rep, ps.pages_in_use <= kParentMaxPages,
          "zones_chaos: parent pool exceeds max_pages");
    check(rep, ps.overcommits == 0, "zones_chaos: parent pool overcommitted");
    check(rep, cb.pages_shed > 0, "zones_chaos: partition did not overflow the spool");
    check(rep, ca.crashes == 1 && ca.restarts == 1,
          "zones_chaos: child crash/restart did not happen");
    check(rep, plane_->stats().failovers_applied > 0 && recovery_s_ > 0.0,
          "zones_chaos: trunk flap was not repaired by route failover");
    check(rep, manager_->reconfigurations() == 0,
          "zones_chaos: server failover fired where route repair should");

    rep.sim_metrics["senescence_p50_s"] = log_.gap_quantile_s(0.5);
    rep.sim_metrics["senescence_p99_s"] = log_.gap_quantile_s(0.99);
    rep.sim_metrics["recovery_s"] = recovery_s_;
    rep.sim_metrics["monitor_peak_bps"] =
        meter_->peak_bps(net::TrafficClass::kMonitoring);
    std::sort(fed_lag_ns_.begin(), fed_lag_ns_.end());
    rep.sim_metrics["fed_lag_p99_s"] =
        fed_lag_ns_.empty()
            ? 0.0
            : static_cast<double>(
                  fed_lag_ns_[static_cast<std::size_t>(
                      0.99 * static_cast<double>(fed_lag_ns_.size() - 1))]) *
                  1e-9;

    const NetCounts net = net_counts(bed_->network());
    Digest& d = log_.digest();
    d.add(sim_.events_executed());
    d.add(net.frames);
    d.add(query_points_);
    for (const auto& r : injector_->log()) {
      d.add(static_cast<std::uint64_t>(r.at.nanos()));
      d.add(r.description);
    }
    d.add(plane_->policy().log().export_text());
    d.add(pa.points_merged);
    d.add(pa.points_lost);
    d.add(pa.duplicates_skipped);
    d.add(ca.pages_sent);
    d.add(cb.pages_sent);
    rep.digest = d.value();

    auto& l = rep.layer;
    const ctrl::PolicyStats& policy = plane_->policy().stats();
    const snmp::ManagerCounters& snmp = snmp_mon_->manager().counters();
    l["net.frames"] = static_cast<double>(net.frames);
    l["net.drops"] = static_cast<double>(net.drops);
    l["net.octets_monitoring"] = static_cast<double>(
        bed_->network().octets_by_class()[static_cast<std::size_t>(
            net::TrafficClass::kMonitoring)]);
    l["sim.events"] = static_cast<double>(sim_.events_executed());
    if (traced_nttcp_) {
      l["nttcp.timeouts"] = static_cast<double>(traced_nttcp_->failed());
      const double lanes =
          static_cast<double>(snmp_mon_->director().sequencer().config().lanes +
                              reach_mon_->director().sequencer().config().lanes);
      l["sched.lane_occupancy"] =
          (traced_nttcp_->hold_s() + traced_snmp_->hold_s()) /
          (lanes * kLoadEnd);
      double trips = 0.0;
      for (const obs::SnapshotEntry& e : registry_.snapshot()) {
        const std::string& n = e.name;
        if (n.size() > 6 && n.compare(n.size() - 6, 6, ".trips") == 0) {
          trips += e.value;
        }
      }
      l["director.breaker_opens"] = trips;
    }
    l["nttcp.launches"] =
        static_cast<double>(reach_mon_->sensor().probes_launched());
    const core::DirectorStats& sa = snmp_mon_->director().stats();
    const core::DirectorStats& sr = reach_mon_->director().stats();
    l["director.retries"] = static_cast<double>(sa.retries + sr.retries);
    l["director.deadline_expired"] =
        static_cast<double>(sa.timeouts + sr.timeouts);
    add_sched_counts(l, snmp_mon_->director().sequencer().scheduler_stats());
    add_sched_counts(l, reach_mon_->director().sequencer().scheduler_stats());
    for (const core::MeasurementDatabase* db :
         {&snmp_mon_->database(), db_b_.get(), parent_db_.get(),
          &reach_mon_->database()}) {
      add_db_counts(l, *db);
    }
    l["snmp.requests"] = static_cast<double>(snmp.requests_sent);
    l["snmp.retries"] = static_cast<double>(snmp.retries);
    l["snmp.timeouts"] = static_cast<double>(snmp.timeouts);
    l["snmp.responses"] = static_cast<double>(snmp.responses);
    l["manager.tuples"] = static_cast<double>(manager_->tuples_consumed());
    l["manager.stale_tuples"] = static_cast<double>(manager_->stale_tuples());
    l["manager.reconfigurations"] =
        static_cast<double>(manager_->reconfigurations());
    l["ctrl.actuations"] = static_cast<double>(policy.fired);
    l["ctrl.rollbacks"] = static_cast<double>(policy.rolled_back);
    l["ctrl.blocked"] =
        static_cast<double>(policy.blocked_hold + policy.blocked_cooldown +
                            policy.blocked_breaker + policy.blocked_pending);
    l["fed.pages_sent"] = static_cast<double>(ca.pages_sent + cb.pages_sent);
    l["fed.pages_merged"] = static_cast<double>(pa.pages_merged);
    l["fed.points_merged"] = static_cast<double>(pa.points_merged);
    l["fed.points_lost"] = static_cast<double>(pa.points_lost);
    l["fed.resends"] = static_cast<double>(ca.pages_resent + cb.pages_resent);
    l["fed.spool_peak"] = static_cast<double>(spool_peak_);
    l["fault.injected"] =
        static_cast<double>(injector_->stats().faults_applied);
  }

 private:
  // Zone A's SNMP samples are logged under series ids offset past the
  // reachability monitor's, so the two databases' slots never collide.
  static constexpr std::size_t kSnmpSeriesBase = 1u << 20;

  std::uint64_t admitted() const {
    return snmp_mon_->director().sequencer().scheduler_stats().admitted +
           reach_mon_->director().sequencer().scheduler_stats().admitted;
  }
  std::uint64_t started() const {
    return snmp_mon_->director().stats().measurements_started +
           reach_mon_->director().stats().measurements_started;
  }

  void record_zone_b() {
    ++tick_;
    const sim::TimePoint now = sim_.now();
    for (std::size_t i = 0; i < zone_b_ids_.size(); ++i) {
      const double v = static_cast<double>((i * 7 + tick_ * 13) % 997);
      for (core::Metric m :
           {core::Metric::kThroughput, core::Metric::kOneWayLatency}) {
        Span span(kSpanDbRecord);
        db_b_->record(zone_b_ids_[i], m, core::MetricValue::of(v, now));
      }
      zone_b_records_ += 2;
    }
    spool_peak_ = std::max({spool_peak_, child_a_->spool_pages(),
                            child_b_->spool_pages()});
  }

  void query_parent() {
    // The newest 30 s of 8 zone-B series and 4 zone-A series, finest tier.
    const sim::TimePoint now = sim_.now();
    const sim::TimePoint from = at_s(std::max(0.0, now.to_seconds() - 30.0));
    for (int z = 0; z < 2; ++z) {
      const std::size_t n = z == 0 ? 4 : 8;
      for (std::size_t k = 0; k < n; ++k) {
        const core::Path& p =
            zone_paths_[z][(k * 5 + static_cast<std::size_t>(tick_)) %
                           zone_paths_[z].size()];
        const core::PathId id = parent_db_->find(p);
        if (id == core::kInvalidPathId) continue;
        Span span(kSpanDbQuery);
        const core::TierQueryResult r = parent_db_->query(
            id, core::Metric::kThroughput, from, now, Duration::ns(0));
        query_points_ += r.points.size();
      }
    }
  }

  // Recovery: from the trunk flap to the first good sample, on a path the
  // flap broke, after the control plane's first route failover.
  void on_reach_tuple(const core::PathMetricTuple& tuple) {
    if (sim_.now().to_seconds() < flap_at_ || recovery_s_ > 0.0) return;
    const bool bad = !tuple.value.valid || tuple.value.value < 0.5;
    if (bad) {
      broken_.insert(tuple.path.to_string());
    } else if (plane_->stats().failovers_applied > 0 &&
               broken_.count(tuple.path.to_string()) != 0) {
      recovery_s_ = sim_.now().to_seconds() - flap_at_;
    }
  }

  obs::Registry registry_;
  sim::Simulator sim_;
  std::unique_ptr<apps::FabricTestbed> bed_;
  std::vector<std::unique_ptr<snmp::Agent>> agents_;
  std::unique_ptr<TracedSensor> traced_snmp_;
  std::unique_ptr<TracedSensor> traced_nttcp_;
  std::unique_ptr<core::ScalableMonitor> snmp_mon_;
  std::unique_ptr<core::MeasurementDatabase> db_b_;
  std::unique_ptr<core::MeasurementDatabase> parent_db_;
  std::unique_ptr<core::HighFidelityMonitor> reach_mon_;
  std::unique_ptr<mgr::ResourceManager> manager_;
  std::unique_ptr<ctrl::ControlPlane> plane_;
  std::unique_ptr<obs::IntrusivenessMeter> meter_;
  std::unique_ptr<fed::FedParent> parent_;
  std::unique_ptr<fed::FedChild> child_a_;
  std::unique_ptr<fed::FedChild> child_b_;
  std::unique_ptr<fault::FaultInjector> injector_;
  std::vector<core::Path> zone_paths_[2];
  std::vector<core::PathId> zone_b_ids_;
  core::SensorDirector::RequestId snmp_request_ = 0;
  std::set<std::string> broken_;
  std::vector<std::int64_t> fed_lag_ns_;
  double flap_at_ = 0.0;
  double partition_at_ = 0.0;
  double crash_at_ = 0.0;
  double chaos_at_ = 0.0;
  double recovery_s_ = 0.0;
  std::uint64_t tick_ = 0;
  std::uint64_t zone_b_records_ = 0;
  std::uint64_t query_points_ = 0;
  std::size_t spool_peak_ = 0;
  std::uint64_t admitted0_ = 0;
  std::uint64_t started0_ = 0;
  SampleLog log_;
};

}  // namespace

std::unique_ptr<Workload> make_zones_chaos() {
  return std::make_unique<ZonesChaos>();
}

}  // namespace perfbench
