#pragma once

// High-fidelity monitor implementation (paper §5.1): NTTCP-based active
// probing at the Application & Support layer. Probes launch *from the
// path's source host* (the "RTDS server simulator" of Figure 5) and mimic
// the monitored application's message length L and inter-send period P.
// The test sequencer bounds concurrency: 1 = the paper's serial sequencer.

#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <vector>

#include "core/sensor_director.hpp"
#include "net/topology.hpp"
#include "nttcp/nttcp.hpp"
#include "nttcp/reachability.hpp"

namespace netmon::core {

// Installs and owns the measurement endpoints (NTTCP sinks + echo
// responders — the "RTDS client simulators") on target hosts.
class SinkSet {
 public:
  void install(net::Host& host, std::uint16_t nttcp_port = nttcp::kNttcpPort,
               std::uint16_t echo_port = nttcp::kEchoPort);
  std::size_t size() const { return sinks_.size(); }

 private:
  std::vector<std::unique_ptr<nttcp::NttcpSink>> sinks_;
  std::vector<std::unique_ptr<nttcp::EchoResponder>> responders_;
};

// Application-layer sensor for all three metrics via active probing.
// Multi-leg paths are measured leg by leg: latency sums, throughput takes
// the minimum, reachability requires every leg.
class NttcpSensor : public NetworkSensor {
 public:
  NttcpSensor(net::Network& network, nttcp::NttcpConfig probe_config,
              nttcp::ReachabilityProbe::Config reach_config = {});

  std::string name() const override { return "nttcp"; }
  bool supports(Metric metric) const override;
  void measure(const Path& path, Metric metric, Done done) override;

  nttcp::NttcpConfig& probe_config() { return probe_config_; }
  nttcp::ReachabilityProbe::Config& reach_config() { return reach_config_; }
  std::uint64_t probes_launched() const { return probes_launched_; }
  std::uint64_t probe_bytes_on_wire() const { return probe_bytes_on_wire_; }

 private:
  struct LegAccumulator {
    double latency_sum_s = 0.0;
    double min_throughput_bps = 0.0;
    bool have_throughput = false;
    bool all_ok = true;
  };

  // One measure() call in flight. Slots recycle; assigning the path into a
  // recycled slot reuses its buffers, so a steady sensor copies no Path
  // onto the heap.
  struct Measurement {
    Path path;
    Metric metric = Metric::kThroughput;
    LegAccumulator acc;
    Done done;
  };
  // One leg's probe. Probes finish from inside their own callbacks, so a
  // slot is emptied on a fresh event (cleanup_later); the next leg's probe
  // takes another slot meanwhile. Deques keep both kinds of slot at stable
  // addresses: the probes register `this` with sockets and timers.
  struct ProbeSlot {
    std::optional<nttcp::ReachabilityProbe> reach;
    std::optional<nttcp::NttcpProbe> nttcp;
    std::uint32_t measurement = 0;
    std::size_t leg = 0;
  };

  void measure_leg(std::uint32_t m, std::size_t leg_index);
  void on_reach_result(std::uint32_t p, const nttcp::ReachabilityResult& r);
  void on_nttcp_result(std::uint32_t p, const nttcp::NttcpResult& r);
  void complete(std::uint32_t m, const MetricValue& value);
  void cleanup_later(std::uint32_t p);

  net::Network& network_;
  nttcp::NttcpConfig probe_config_;
  nttcp::ReachabilityProbe::Config reach_config_;
  std::deque<Measurement> measurements_;
  std::vector<std::uint32_t> free_measurements_;
  std::deque<ProbeSlot> probes_;
  std::vector<std::uint32_t> free_probes_;
  std::uint64_t probes_launched_ = 0;
  std::uint64_t probe_bytes_on_wire_ = 0;
};

// Builds a SensorDirector::ProbeProfiler from the live topology: offered
// load from the probe's wire footprint (NttcpProbe::peak_load_bps — the
// paper's L/P applied to wire sizes — times the data direction's L3 hop
// count, so declared loads share units with octets_by_class() and the
// IntrusivenessMeter the budget B is asserted against; reachability probes
// declare `reach_offered_bps`, negligible by default) and the
// link-disjointness footprint from Network::route_media over every path leg
// in both directions (data flows out, results flow back; asymmetric routes
// make the directions differ). Footprints are cached per path — construct
// the profiler after auto_route() and rebuild it if routes change.
SensorDirector::ProbeProfiler make_route_profiler(
    net::Network& network, const nttcp::NttcpConfig& probe,
    double reach_offered_bps = 0.0);

class HighFidelityMonitor {
 public:
  struct Config {
    nttcp::NttcpConfig probe;
    nttcp::ReachabilityProbe::Config reach;
    // 1 reproduces the paper's test sequencer; kUnlimited the naive
    // all-paths-in-parallel monitor.
    std::size_t max_concurrent = 1;
    // Budgeted multi-lane scheduling (DESIGN.md §11). The default —
    // lanes = 1, no budget, no disjointness — defers the lane count to
    // max_concurrent above and is bit-identical to the classic sequencer;
    // scheduling.lanes != 1 takes precedence over max_concurrent.
    SchedulerConfig scheduling;
    // With a budget or the disjointness gate active, derive each probe's
    // offered load and link footprint from the topology automatically
    // (make_route_profiler); set false to supply a custom profiler via
    // director().set_probe_profiler().
    bool auto_profile = true;
    // Samples retained per (path, metric) series. The 10k-path fabrics
    // multiply this by C·S·metrics — drop it when soaking large matrices.
    std::size_t history_depth = 64;
    // Tiered storage engine under the database (DESIGN.md §13); the default
    // keeps it enabled with the stock page/tier geometry.
    TieredStorageConfig storage;
    // Deadline/retry/breaker supervision; all off by default.
    SupervisionConfig supervision;
  };

  HighFidelityMonitor(net::Network& network, Config config);

  SensorDirector& director() { return director_; }
  MeasurementDatabase& database() { return director_.database(); }
  NttcpSensor& sensor() { return sensor_; }

 private:
  // The director must be destroyed before the sensor it drives: tearing the
  // sensor down first destroys its in-flight Done callbacks, and the
  // sequencer would pump the next queued measurement into a half-dead
  // sensor. Director-last keeps teardown a no-op (the sequencer's liveness
  // guard is already gone when the sensor's callbacks unwind).
  NttcpSensor sensor_;
  SensorDirector director_;
};

}  // namespace netmon::core
