#pragma once

// The closed control loop (DESIGN.md §12): ties the ControlPolicy rule
// engine and the concrete actuators to the live system. Sensors are the
// ResourceManager's tuple stream (per-sample, path-scoped rules) and the
// IntrusivenessMeter's octet counters (per-tick, request-scoped retuning);
// triggers are the three rules below; actuators change routes, probe
// periods, and lane priorities. Everything is opt-in: a ControlPlane with
// `enabled == false` installs no observer and schedules no events, so the
// event core's golden trace is unchanged when the plane is configured off.
//
// Rules:
//   route-failover  — consecutive liveness failures on a path reach
//     `failover_strikes` and every leg has a pre-provisioned standby route:
//     swap to the standby and boost the path to kCritical so the verifying
//     probe arrives quickly. Verified by the next good sample on the path
//     (which also clears the manager's strikes); unverified swaps roll back
//     at the deadline and count toward the pair's breaker.
//   probe-retune    — the windowed (EWMA) monitoring share of network
//     octets exceeds `share_budget`: stretch a request's period one level
//     (period × stretch_factor). Restores are predictive: only when the
//     current share times stretch_factor would stay under budget, so the
//     ladder cannot oscillate around the threshold.
//   priority-boost  — a path's sample drifts from its own P² p90 estimate
//     `drift_strikes` times in a row (or the manager is striking it):
//     reclassify to kCritical; after `calm_samples` quiet samples, restore.
//
// Both boost and retune actions mutate local scheduler state only — there
// is no remote recovery to await — so they self-verify immediately after a
// successful apply. Failover is the genuinely remote action and runs the
// full deadline / verify / rollback lifecycle.

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>

#include "ctrl/actuators.hpp"
#include "ctrl/control_policy.hpp"
#include "manager/resource_manager.hpp"
#include "obs/intrusiveness.hpp"
#include "obs/quantile.hpp"

namespace netmon::ctrl {

struct ControlConfig {
  // Master switch. When false the plane is inert: attach() installs
  // nothing, observe_tuple() returns immediately, no events are scheduled.
  bool enabled = false;

  PolicyConfig policy;

  // --- route failover ---
  bool route_failover = true;
  // Consecutive liveness-bearing failures (invalid, stale, or unreachable
  // samples) on one path before the standby swap fires.
  int failover_strikes = 2;
  sim::Duration failover_cooldown = sim::Duration::sec(5);

  // --- adaptive probe retuning ---
  bool probe_retuning = true;
  sim::Duration tick = sim::Duration::ms(500);
  // Budget for the windowed monitoring share (monitoring + management
  // octets over all octets, per tick, EWMA-smoothed).
  double share_budget = 0.05;
  double share_alpha = 0.4;  // EWMA weight of the newest window
  double stretch_factor = 2.0;
  int max_stretch_levels = 3;
  // Restore only when share × stretch_factor stays under budget × margin —
  // the predictive check that keeps the ladder from flapping.
  double restore_margin = 0.9;
  sim::Duration retune_cooldown = sim::Duration::sec(2);

  // --- volatility-driven priority boost ---
  bool priority_boost = true;
  core::Metric volatility_metric = core::Metric::kOneWayLatency;
  // Latency drifts when value > ratio × p90; throughput when
  // value × ratio < p90. Reachability has no meaningful p90 drift.
  double drift_ratio = 2.0;
  int drift_strikes = 3;
  int calm_samples = 8;
  // P² estimate is not consulted before this many samples on a path.
  std::size_t warmup_samples = 10;
  sim::Duration boost_cooldown = sim::Duration::sec(2);
  // Also boost paths the resource manager is currently striking.
  bool boost_striking_paths = true;
};

struct ControlStats {
  std::uint64_t tuples_seen = 0;
  std::uint64_t failovers_applied = 0;
  std::uint64_t failovers_verified = 0;
  std::uint64_t boosts = 0;
  std::uint64_t unboosts = 0;
  std::uint64_t stretches = 0;
  std::uint64_t restores = 0;
  std::uint64_t ticks = 0;
  std::uint64_t reconfigs_observed = 0;
};

class ControlPlane {
 public:
  ControlPlane(sim::Simulator& sim, net::Network& network,
               ControlConfig config);
  ~ControlPlane();
  ControlPlane(const ControlPlane&) = delete;
  ControlPlane& operator=(const ControlPlane&) = delete;

  // Installs the tuple observer and reconfiguration listener on the manager
  // and (when retuning is on) schedules the meter tick. No-op when the
  // plane is disabled. At most one manager may be attached.
  void attach(mgr::ResourceManager& manager);
  // The octet source for retuning; without a meter the retune rule idles.
  void set_meter(const obs::IntrusivenessMeter& meter) { meter_ = &meter; }

  // The sensor feed. attach() wires this to the manager; it is public so
  // benchmarks can drive rule evaluation directly without a manager.
  void observe_tuple(const std::string& application,
                     const core::PathMetricTuple& tuple);

  const ControlConfig& config() const { return config_; }
  ControlPolicy& policy() { return policy_; }
  const ControlPolicy& policy() const { return policy_; }
  RouteFailoverActuator& failover() { return failover_; }
  const ControlStats& stats() const { return stats_; }
  double share_ewma() const { return share_ewma_; }
  // Byte-weighted monitoring share over the last completed decision window
  // — the evidence the most recent retune decisions were made on.
  double window_share() const { return window_share_; }
  // Current stretch level of a request's retune ladder (0 = base period).
  int stretch_level(core::SensorDirector::RequestId request) const;
  std::size_t boosted_paths() const {
    return booster_ ? booster_->boosted() : 0;
  }

  // Registers "<prefix>.*" plane counters plus the policy's
  // "<prefix>.policy.*" set; SelfMib rows come along for free.
  void attach_observability(obs::Registry& registry, std::string prefix);

 private:
  struct PathState {
    core::Path path;
    std::string label;
    std::string app;
    int reach_failures = 0;
    bool failed_over = false;  // parity of verified standby swaps
    std::optional<ControlPolicy::ActuationId> pending_failover;
    bool verify_boost = false;  // boost applied to speed failover verify
    obs::P2Quantile p90{0.9};
    int drift_run = 0;
    int calm_run = 0;
    bool boosted = false;  // volatility/strike boost currently applied
  };

  PathState& path_state(const std::string& application,
                        const core::PathMetricTuple& tuple,
                        ControlPolicy::TargetKey key);
  void maybe_failover(ControlPolicy::TargetKey key, PathState& state);
  void evaluate_volatility(ControlPolicy::TargetKey key, PathState& state,
                           const core::PathMetricTuple& tuple);
  void fire_boost(ControlPolicy::TargetKey key, PathState& state,
                  const char* why);
  void fire_unboost(ControlPolicy::TargetKey key, PathState& state);
  void on_tick();
  void retune_request(const std::string& application,
                      core::SensorDirector::RequestId request);

  sim::Simulator& sim_;
  net::Network& network_;
  ControlConfig config_;
  ControlPolicy policy_;
  RouteFailoverActuator failover_;
  std::unique_ptr<PriorityBoostActuator> booster_;  // built at attach()
  mgr::ResourceManager* manager_ = nullptr;
  mgr::ResourceManager::ListenerHandle reconfig_listener_ = 0;
  const obs::IntrusivenessMeter* meter_ = nullptr;

  ControlPolicy::RuleId rule_failover_ = 0;
  ControlPolicy::RuleId rule_retune_ = 0;
  ControlPolicy::RuleId rule_boost_ = 0;

  std::map<ControlPolicy::TargetKey, PathState> paths_;
  std::map<core::SensorDirector::RequestId,
           std::unique_ptr<ProbeRetuneActuator>>
      retuners_;
  // Retune decision window (see on_tick): byte counters captured at the
  // last decision point, advanced only once a full settle interval — the
  // retune cooldown and every request's current period — has elapsed.
  std::int64_t window_start_ns_ = 0;
  std::uint64_t window_monitoring0_ = 0;
  std::uint64_t window_total0_ = 0;
  double window_share_ = 0.0;

  double share_ewma_ = 0.0;
  bool share_primed_ = false;
  std::uint64_t last_monitoring_bytes_ = 0;
  std::uint64_t last_total_bytes_ = 0;

  ControlStats stats_;
  sim::PeriodicTask tick_task_;

  obs::Scope obs_;
};

}  // namespace netmon::ctrl
