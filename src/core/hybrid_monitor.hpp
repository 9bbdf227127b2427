#pragma once

// Hybrid monitor (paper §7, "a promising approach appears to be a hybrid
// implementation"): cheap, scalable SNMP polling in the background, with
// high-fidelity NTTCP probes triggered on demand — when an RMON alarm trap
// fires or when a background sample looks anomalous (reachability lost or
// throughput below requirement). The targeted probes stay serialized
// through their own sequencer, so the monitoring overhead remains bounded.

#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "core/high_fidelity_monitor.hpp"
#include "core/scalable_monitor.hpp"

namespace netmon::core {

class HybridMonitor {
 public:
  struct Config {
    nttcp::NttcpConfig probe;              // targeted high-fidelity probe
    SnmpSensor::Config snmp;               // background sensor
    snmp::Manager::Config manager;
    sim::Duration background_period = sim::Duration::sec(5);
    // Background anomaly rule that escalates to a targeted probe.
    double throughput_alert_bps = 0.0;     // <= 0 disables
    // Minimum spacing between targeted probes of the same path.
    sim::Duration targeted_cooldown = sim::Duration::sec(2);
    // While a targeted (high-fidelity) record is younger than this, lower-
    // fidelity background samples do not overwrite it in the database.
    sim::Duration targeted_authority = sim::Duration::sec(30);
    std::size_t background_concurrency = 8;
    // Deadline/retry/breaker supervision for the background director; all
    // off by default (identical to the unsupervised monitor).
    SupervisionConfig supervision;
  };

  HybridMonitor(net::Network& network, net::Host& station, Config config);

  // Starts background monitoring of the given paths; every tuple —
  // background or targeted — flows to `on_tuple`, and everything lands in
  // one measurement database. Targeted tuples carry NTTCP fidelity.
  void start(std::vector<PathRequest> paths,
             SensorDirector::TupleCallback on_tuple);
  void stop();

  // Escalate now: run a high-fidelity measurement of this path.
  void probe_now(const Path& path, Metric metric);

  // Arm an RMON utilization alarm whose rising trap escalates every
  // monitored path crossing that probe's segment.
  rmon::Alarm& arm_utilization_alarm(rmon::Probe& probe, double rising,
                                     double falling, sim::Duration interval);

  MeasurementDatabase& database() { return background_.database(); }
  ScalableMonitor& background() { return background_; }
  NttcpSensor& targeted_sensor() { return targeted_sensor_; }

  std::uint64_t escalations() const { return escalations_; }
  std::uint64_t targeted_measurements() const { return targeted_done_; }

  // Self-observability (DESIGN.md §10): escalation/targeted counters under
  // "<prefix>.", the background director under "<prefix>.background", the
  // targeted sequencer under "<prefix>.targeted" (slot waits measured on
  // the simulator clock).
  void attach_observability(obs::Registry& registry,
                            std::string prefix = "hybrid");

 private:
  void on_background_tuple(const PathMetricTuple& tuple);
  void escalate(const Path& path);
  bool cooldown_ok(const Path& path);

  net::Network& network_;
  Config config_;
  ScalableMonitor background_;
  NttcpSensor targeted_sensor_;
  TestSequencer targeted_sequencer_{1};
  SensorDirector::TupleCallback on_tuple_;
  std::vector<PathRequest> paths_;
  SensorDirector::RequestId background_request_ = 0;
  std::map<Path, sim::TimePoint> last_targeted_;
  std::map<std::pair<Path, Metric>, sim::TimePoint> targeted_recorded_;
  std::uint64_t escalations_ = 0;
  std::uint64_t targeted_done_ = 0;
  obs::Scope obs_;
};

}  // namespace netmon::core
