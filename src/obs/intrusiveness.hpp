#pragma once

// Intrusiveness accounting (paper §4.4, DESIGN.md §10): how much of the
// network the monitor consumes versus the workload it observes. The meter
// ticks on a fixed simulated period, differences the per-TrafficClass NIC
// octet totals of a net::Network, and publishes per-class peak/mean
// bytes-per-second plus the monitoring share through an obs::Registry —
// turning the paper's 59 Mbit/s (parallel C·S·L/P) vs 2.18 Mbit/s
// (sequenced L/P) sequencer result into a measured quantity that
// tests/scenario_test.cpp bounds against the §5.1 formulas.
//
// Unlike registry instrumentation (which is passive), the meter schedules
// its own periodic sampling event, so it is an opt-in harness component —
// attach it in experiments and scenario tests, not inside monitors.

#include <array>
#include <cstdint>
#include <string>

#include "net/topology.hpp"
#include "obs/metrics.hpp"
#include "sim/simulator.hpp"

namespace netmon::obs {

class IntrusivenessMeter {
 public:
  // Registers gauges under "<prefix>.<class>.{peak_bps,mean_bps,total_bytes}"
  // plus "<prefix>.monitoring_share", and a per-class bps histogram fed one
  // observation per tick. Metrics are removed again on destruction.
  IntrusivenessMeter(sim::Simulator& sim, const net::Network& network,
                     Registry& registry,
                     std::string prefix = "net.intrusiveness",
                     sim::Duration tick = sim::Duration::ms(100));
  IntrusivenessMeter(const IntrusivenessMeter&) = delete;
  IntrusivenessMeter& operator=(const IntrusivenessMeter&) = delete;

  double peak_bps(net::TrafficClass cls) const {
    return lanes_[index(cls)].peak_bps;
  }
  double mean_bps(net::TrafficClass cls) const;
  // Most recent tick's rate — the live reading the lane scheduler's budget
  // gate cross-checks its declared-load ledger against (DESIGN.md §11).
  double last_bps(net::TrafficClass cls) const {
    return lanes_[index(cls)].last_bps;
  }
  std::uint64_t total_bytes(net::TrafficClass cls) const;
  // Monitoring + management octets as a fraction of all octets carried
  // since attach (0 when nothing moved).
  double monitoring_share() const;
  std::uint64_t ticks() const { return samples_; }

 private:
  struct Lane {
    std::uint64_t first = 0;
    std::uint64_t last = 0;
    double peak_bps = 0.0;
    double last_bps = 0.0;
    double sum_bps = 0.0;
    Histogram* bps_hist = nullptr;  // owned by the registry; null detached
  };

  static std::size_t index(net::TrafficClass cls) {
    return static_cast<std::size_t>(cls);
  }
  void sample();

  const net::Network& network_;
  Scope obs_;
  sim::Duration tick_;
  std::array<Lane, net::kTrafficClassCount> lanes_{};
  std::uint64_t samples_ = 0;
  sim::PeriodicTask task_;
};

}  // namespace netmon::obs
