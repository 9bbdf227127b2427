#include "core/hybrid_monitor.hpp"

#include "util/logging.hpp"

namespace netmon::core {

namespace {
ScalableMonitor::Config background_config(const HybridMonitor::Config& c) {
  ScalableMonitor::Config out;
  out.manager = c.manager;
  out.sensor = c.snmp;
  out.max_concurrent = c.background_concurrency;
  out.supervision = c.supervision;
  return out;
}
}  // namespace

HybridMonitor::HybridMonitor(net::Network& network, net::Host& station,
                             Config config)
    : network_(network),
      config_(config),
      background_(network, station, background_config(config)),
      targeted_sensor_(network, config.probe) {
  background_.set_trap_callback([this](const snmp::TrapEvent& event) {
    if (event.trap_oid != rmon::rmon_mib::kRisingAlarmTrap) return;
    ++escalations_;
    for (const PathRequest& pr : paths_) escalate(pr.path);
  });
}

void HybridMonitor::start(std::vector<PathRequest> paths,
                          SensorDirector::TupleCallback on_tuple) {
  paths_ = std::move(paths);
  on_tuple_ = std::move(on_tuple);
  MonitorRequest request;
  request.paths = paths_;
  request.mode = MonitorRequest::Mode::kPeriodic;
  request.period = config_.background_period;
  request.reporting = MonitorRequest::Reporting::kAsynchronous;
  // The hybrid applies its own fidelity-authority rule before recording.
  request.record_to_database = false;
  background_request_ = background_.director().submit(
      request, [this](const PathMetricTuple& t) { on_background_tuple(t); });
}

void HybridMonitor::stop() {
  if (background_request_ != 0) {
    background_.director().cancel(background_request_);
    background_request_ = 0;
  }
}

void HybridMonitor::on_background_tuple(const PathMetricTuple& tuple) {
  // Record unless a fresher high-fidelity sample holds authority for this
  // (path, metric) series.
  auto it = targeted_recorded_.find({tuple.path, tuple.metric});
  const bool targeted_fresh =
      it != targeted_recorded_.end() &&
      network_.simulator().now() - it->second < config_.targeted_authority;
  if (!targeted_fresh) {
    background_.database().record(tuple.path, tuple.metric, tuple.value);
  }
  if (on_tuple_) on_tuple_(tuple);

  const bool reach_lost = tuple.metric == Metric::kReachability &&
                          tuple.value.valid && tuple.value.value < 0.5;
  const bool throughput_low =
      tuple.metric == Metric::kThroughput && tuple.value.valid &&
      config_.throughput_alert_bps > 0.0 &&
      tuple.value.value < config_.throughput_alert_bps;
  const bool failed = !tuple.value.valid;
  if (reach_lost || throughput_low || failed) {
    ++escalations_;
    escalate(tuple.path);
  }
}

bool HybridMonitor::cooldown_ok(const Path& path) {
  const auto now = network_.simulator().now();
  auto it = last_targeted_.find(path);
  if (it != last_targeted_.end() &&
      now - it->second < config_.targeted_cooldown) {
    return false;
  }
  last_targeted_[path] = now;
  return true;
}

void HybridMonitor::escalate(const Path& path) {
  if (!cooldown_ok(path)) return;
  probe_now(path, Metric::kReachability);
  probe_now(path, Metric::kThroughput);
}

void HybridMonitor::probe_now(const Path& path, Metric metric) {
  targeted_sequencer_.enqueue([this, path, metric](TestSequencer::Done done) {
    targeted_sensor_.measure(
        path, metric, [this, path, metric, done](MetricValue value) {
          ++targeted_done_;
          background_.database().record(path, metric, value);
          if (value.valid) {
            targeted_recorded_[{path, metric}] = network_.simulator().now();
          }
          if (on_tuple_) on_tuple_(PathMetricTuple{path, metric, value});
          done();
        });
  });
}

void HybridMonitor::attach_observability(obs::Registry& registry,
                                         std::string prefix) {
  obs_ = obs::Scope(registry, std::move(prefix));
  obs_.gauge_of("escalations", escalations_);
  obs_.gauge_of("targeted_measurements", targeted_done_);
  background_.director().attach_observability(registry,
                                              obs_.prefix() + ".background");
  targeted_sequencer_.attach_observability(
      registry, obs_.prefix() + ".targeted",
      [this] { return network_.simulator().now().nanos(); });
}

rmon::Alarm& HybridMonitor::arm_utilization_alarm(rmon::Probe& probe,
                                                  double rising,
                                                  double falling,
                                                  sim::Duration interval) {
  return background_.arm_utilization_alarm(probe, rising, falling, interval);
}

}  // namespace netmon::core
