#pragma once

// Scalable (COTS) monitor implementation (paper §5.2): network sensors
// built from SNMP polling of standard MIB-II variables plus RMON probe
// traps. Cheap and standards-based, but lower fidelity: throughput is
// approximated from interface octet counters (which count *all* traffic),
// latency from management round trips on a granular clock, and results
// ride the same lossy UDP as everything else.

#include <functional>
#include <memory>

#include "core/sensor_director.hpp"
#include "net/topology.hpp"
#include "rmon/probe.hpp"
#include "snmp/manager.hpp"

namespace netmon::core {

class SnmpSensor : public NetworkSensor {
 public:
  struct Config {
    // Gap between the two ifOutOctets polls of a throughput estimate,
    // measured on the *management station's* quantized clock.
    sim::Duration throughput_poll_gap = sim::Duration::ms(500);
    std::uint32_t if_index = 1;  // interface polled on the source host
  };

  SnmpSensor(net::Network& network, snmp::Manager& manager);
  SnmpSensor(net::Network& network, snmp::Manager& manager, Config config);

  std::string name() const override { return "snmp-mib2"; }
  bool supports(Metric) const override { return true; }
  void measure(const Path& path, Metric metric, Done done) override;

  std::uint64_t polls_issued() const { return polls_issued_; }

 private:
  // The SNMP manager's response handlers are copyable std::functions; the
  // move-only Done rides through them behind one shared pointer.
  using SharedDone = std::shared_ptr<const Done>;
  void measure_reachability(const Path& path, SharedDone done);
  void measure_throughput(const Path& path, SharedDone done);
  void measure_latency(const Path& path, SharedDone done);

  net::Network& network_;
  snmp::Manager& manager_;
  Config config_;
  std::uint64_t polls_issued_ = 0;
};

class ScalableMonitor {
 public:
  struct Config {
    snmp::Manager::Config manager;
    SnmpSensor::Config sensor;
    // SNMP polls are light; modest parallelism is the realistic default.
    std::size_t max_concurrent = 8;
    // Budgeted multi-lane scheduling (DESIGN.md §11); the default defers
    // the lane count to max_concurrent above. SNMP polls carry no declared
    // load, so the budget/disjoint gates only bind if the caller installs a
    // profiler via director().set_probe_profiler().
    SchedulerConfig scheduling;
    // Tiered storage engine under the database (DESIGN.md §13).
    TieredStorageConfig storage;
    // Deadline/retry/breaker supervision; all off by default.
    SupervisionConfig supervision;
  };

  // `station` is the management-station host (SunNet Manager analogue).
  ScalableMonitor(net::Network& network, net::Host& station);
  ScalableMonitor(net::Network& network, net::Host& station, Config config);

  SensorDirector& director() { return director_; }
  MeasurementDatabase& database() { return director_.database(); }
  snmp::Manager& manager() { return manager_; }
  SnmpSensor& sensor() { return sensor_; }
  net::Host& station() { return station_; }

  // Asynchronous notification path: arm a utilization alarm on an RMON
  // probe; its rising/falling traps arrive at this station's manager.
  rmon::Alarm& arm_utilization_alarm(rmon::Probe& probe, double rising,
                                     double falling, sim::Duration interval);
  void set_trap_callback(std::function<void(const snmp::TrapEvent&)> cb);

 private:
  net::Host& station_;
  snmp::Manager manager_;
  SnmpSensor sensor_;
  SensorDirector director_;
  std::function<void(const snmp::TrapEvent&)> trap_callback_;
};

}  // namespace netmon::core
