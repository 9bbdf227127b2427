#include "core/scalable_monitor.hpp"

#include "snmp/mib2.hpp"
#include "util/logging.hpp"

namespace netmon::core {

SnmpSensor::SnmpSensor(net::Network& network, snmp::Manager& manager)
    : SnmpSensor(network, manager, Config{}) {}

SnmpSensor::SnmpSensor(net::Network& network, snmp::Manager& manager,
                       Config config)
    : network_(network), manager_(manager), config_(config) {}

void SnmpSensor::measure(const Path& path, Metric metric, Done done) {
  auto shared = std::make_shared<const Done>(std::move(done));
  switch (metric) {
    case Metric::kReachability:
      measure_reachability(path, std::move(shared));
      return;
    case Metric::kThroughput:
      measure_throughput(path, std::move(shared));
      return;
    case Metric::kOneWayLatency:
      measure_latency(path, std::move(shared));
      return;
  }
}

void SnmpSensor::measure_reachability(const Path& path, SharedDone done) {
  // A path is reachable when the agents on BOTH endpoints answer (paper
  // §5.2.2: "the sensor director could translate (path, metric)-tuples ...
  // to SNMP MIB queries"). A poll the manager abandons after its retries is
  // a *failed* sample, never a silently-missing or falsely-valid one: the
  // supervision layer decides whether to retry, fall back, or strike.
  ++polls_issued_;
  manager_.get(path.destination().host, {snmp::mib2::kSysUpTime},
               [this, src = path.source().host,
                done = std::move(done)](const snmp::SnmpResult& r) {
                 if (!r.ok) {
                   (*done)(MetricValue::failed(network_.simulator().now()));
                   return;
                 }
                 ++polls_issued_;
                 manager_.get(src, {snmp::mib2::kSysUpTime},
                              [this, done = std::move(done)](
                                  const snmp::SnmpResult& r2) {
                                (*done)(r2.ok ? MetricValue::of(
                                                 1.0,
                                                 network_.simulator().now())
                                           : MetricValue::failed(
                                                 network_.simulator().now()));
                              });
               });
}

void SnmpSensor::measure_throughput(const Path& path, SharedDone done) {
  // Two polls of ifOutOctets on the source host, Δ apart; the rate estimate
  // uses the management station's own (quantized, drifting) clock and
  // counts every byte the interface emitted — not just this path's.
  const net::IpAddr agent = path.source().host;
  const snmp::Oid oid =
      snmp::mib2::if_column(snmp::mib2::kIfOutOctets, config_.if_index);
  ++polls_issued_;
  auto t0 = manager_.host().clock().local_now();
  manager_.get(agent, {oid},
               [this, agent, oid, t0, done = std::move(done)](
                   const snmp::SnmpResult& first) {
    if (!first.ok || first.varbinds.empty() ||
        first.varbinds[0].value.is_exception()) {
      (*done)(MetricValue::failed(network_.simulator().now()));
      return;
    }
    const std::uint64_t octets0 = first.varbinds[0].value.to_uint64();
    manager_.host().simulator().schedule_in(
        config_.throughput_poll_gap,
        [this, agent, oid, t0, octets0, done = std::move(done)] {
          ++polls_issued_;
          manager_.get(agent, {oid},
                       [this, t0, octets0, done = std::move(done)](
                           const snmp::SnmpResult& second) {
            if (!second.ok || second.varbinds.empty() ||
                second.varbinds[0].value.is_exception()) {
              (*done)(MetricValue::failed(network_.simulator().now()));
              return;
            }
            const std::uint64_t octets1 =
                second.varbinds[0].value.to_uint64();
            const auto t1 = manager_.host().clock().local_now();
            const double dt = (t1 - t0).to_seconds();
            if (dt <= 0.0 || octets1 < octets0) {
              // Quantized clock showed no elapsed time, or counter wrap.
              (*done)(MetricValue::failed(network_.simulator().now()));
              return;
            }
            const double bps =
                static_cast<double>(octets1 - octets0) * 8.0 / dt;
            (*done)(MetricValue::of(bps, network_.simulator().now()));
          });
        });
  });
}

void SnmpSensor::measure_latency(const Path& path, SharedDone done) {
  // Best available approximation: half the management round trip to the
  // destination agent, on the station's quantized clock. Includes agent
  // processing time; can read zero outright on a coarse clock.
  ++polls_issued_;
  const auto t0 = manager_.host().clock().local_now();
  manager_.get(path.destination().host, {snmp::mib2::kSysUpTime},
               [this, t0, done = std::move(done)](const snmp::SnmpResult& r) {
                 if (!r.ok) {
                   (*done)(MetricValue::failed(network_.simulator().now()));
                   return;
                 }
                 const auto t1 = manager_.host().clock().local_now();
                 const double half_rtt = (t1 - t0).to_seconds() / 2.0;
                 (*done)(MetricValue::of(half_rtt, network_.simulator().now()));
               });
}

ScalableMonitor::ScalableMonitor(net::Network& network, net::Host& station)
    : ScalableMonitor(network, station, Config{}) {}

ScalableMonitor::ScalableMonitor(net::Network& network, net::Host& station,
                                 Config config)
    : station_(station),
      manager_(station, config.manager),
      sensor_(network, manager_, config.sensor),
      director_(network.simulator(), config.max_concurrent,
                config.supervision, std::move(config.storage)) {
  director_.register_sensor(Metric::kThroughput, &sensor_);
  director_.register_sensor(Metric::kOneWayLatency, &sensor_);
  director_.register_sensor(Metric::kReachability, &sensor_);
  SchedulerConfig scheduling = config.scheduling;
  if (scheduling.lanes == 1) scheduling.lanes = config.max_concurrent;
  director_.set_scheduling(scheduling);
  manager_.set_trap_handler([this](const snmp::TrapEvent& event) {
    if (trap_callback_) trap_callback_(event);
  });
}

rmon::Alarm& ScalableMonitor::arm_utilization_alarm(rmon::Probe& probe,
                                                    double rising,
                                                    double falling,
                                                    sim::Duration interval) {
  rmon::AlarmConfig alarm;
  alarm.description = "segment utilization";
  alarm.sample = probe.sample_utilization();
  alarm.sample_type = rmon::SampleType::kAbsolute;
  alarm.interval = interval;
  alarm.rising_threshold = rising;
  alarm.falling_threshold = falling;
  return probe.add_alarm(std::move(alarm), station_.primary_ip());
}

void ScalableMonitor::set_trap_callback(
    std::function<void(const snmp::TrapEvent&)> cb) {
  trap_callback_ = std::move(cb);
}

}  // namespace netmon::core
