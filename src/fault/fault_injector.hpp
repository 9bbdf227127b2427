#pragma once

// Executes a FaultPlan against a registered set of targets. Targets are
// registered by name (links, segments, hosts, chaos sensors); arm() validates
// every name up front — a typo throws at arm time instead of silently never
// firing — then schedules each fault on the simulator. Every applied fault is
// appended to a timestamped log so chaos runs can be asserted and diffed;
// the log is an obs::EventLog holding the newest kLogCapacity records.

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "fault/chaos_sensor.hpp"
#include "fault/fault_plan.hpp"
#include "net/host.hpp"
#include "net/link.hpp"
#include "net/shared_segment.hpp"
#include "obs/event_log.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"

namespace netmon::fault {

class FaultInjector {
 public:
  explicit FaultInjector(sim::Simulator& sim) : sim_(sim) {}

  // Registration. A link registers as both a link target (for down/up/flap)
  // and a medium target (for packet chaos); a segment only as a medium.
  void register_link(std::string name, net::Link& link);
  void register_segment(std::string name, net::SharedSegment& segment);
  void register_host(std::string name, net::Host& host);
  void register_sensor(std::string name, ChaosSensor& sensor);

  // Schedule every fault of the plan, relative to now(). Chaos-window RNG
  // streams are forked from plan.seed here, in plan order, so the schedule
  // is independent of event execution order. Throws std::invalid_argument
  // for unknown target names or malformed faults.
  void arm(const FaultPlan& plan);

  struct FaultRecord {
    sim::TimePoint at;
    std::string description;

    friend void digest_into(obs::Fnv1a& h, const FaultRecord& r) {
      h.u64(static_cast<std::uint64_t>(r.at.nanos()));
      h.str(r.description);
    }
  };
  static constexpr std::size_t kLogCapacity = 4096;
  // Retained records, oldest first.
  std::vector<FaultRecord> log() const { return log_.records(); }

  struct Stats {
    std::uint64_t faults_applied = 0;
    std::uint64_t link_transitions = 0;   // down or up edges (flaps count each)
    std::uint64_t host_transitions = 0;   // crashes + restarts
    std::uint64_t partitions = 0;         // HostPartition windows opened
    std::uint64_t chaos_windows = 0;      // PacketChaos windows opened
    std::uint64_t clock_steps = 0;
    std::uint64_t sensor_mode_changes = 0;
  };
  const Stats& stats() const { return stats_; }

  // Frame-level damage summed across every registered medium.
  net::MediumFaultStats frame_stats() const;

 private:
  // Active chaos window on one medium. shared_ptr-held by both the hook
  // closure and the window-close event; the close event uninstalls the hook
  // only if this window is still the one installed (a later window may have
  // replaced it).
  struct ChaosWindow {
    util::Rng rng;
    double drop_probability = 0.0;
    double corrupt_probability = 0.0;
    sim::Duration extra_delay{};
    explicit ChaosWindow(util::Rng r) : rng(std::move(r)) {}
  };

  void apply(const FaultAction& action,
             std::shared_ptr<ChaosWindow> window);
  void record(const std::string& description);
  void validate(const FaultAction& action) const;

  net::Link& link_target(const std::string& name) const;
  net::Medium& medium_target(const std::string& name) const;
  net::Host& host_target(const std::string& name) const;
  ChaosSensor& sensor_target(const std::string& name) const;

  sim::Simulator& sim_;
  std::map<std::string, net::Link*> links_;
  std::map<std::string, net::Medium*> media_;
  std::map<std::string, net::Host*> hosts_;
  std::map<std::string, ChaosSensor*> sensors_;
  std::map<const net::Medium*, std::shared_ptr<ChaosWindow>> active_windows_;
  obs::EventLog<FaultRecord> log_{kLogCapacity};
  Stats stats_;
};

}  // namespace netmon::fault
