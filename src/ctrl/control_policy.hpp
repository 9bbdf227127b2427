#pragma once

// Condition → action rule engine (DESIGN.md §12), after ACME's
// sensor→trigger→actuator model: the control plane's rules fire actions
// through this engine, which owns the actuation lifecycle and every
// dampening gate between "condition holds" and "the network changes":
//
//   cooldown — per (rule, target): successive actuations of one rule on one
//              target are spaced out, so a persistent condition retries at
//              a bounded rate instead of every tuple;
//   hold     — the global anti-ping-pong rule, generalizing the resource
//              manager's replacement-no-healthier hold: after an actuation
//              in one direction (forward = failover/degrade/boost, reverse
//              = restore) on a target, the *opposite* direction is held off
//              until the hold expires. Same-direction refires stay legal
//              (escalation is not oscillation) — only flip-flops are damped;
//   breaker  — per (rule, target), reusing the supervision breaker shape
//              (core::BreakerState): consecutive failed actuations open the
//              pair, which then degrades to report-only — the condition is
//              still observed and counted, but nothing acts — until a
//              half-open probe succeeds;
//   deadline — every applied action must be verified (recovery observed)
//              within a deadline or its rollback runs and the attempt
//              counts as failed. A pending (unverified) actuation also
//              blocks refires of its (rule, target).
//
// Every lifecycle step lands in a bounded ActuationLog whose serialization
// is deterministic: same seed ⇒ bit-identical log bytes, which is what the
// scenario harness asserts and CI archives.

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "sim/simulator.hpp"

namespace netmon::ctrl {

// Lifecycle of one actuation attempt as recorded in the ActuationLog.
enum class ActuationOutcome : std::uint8_t {
  kApplied,     // the action ran; verification pending
  kVerified,    // recovery observed before the deadline
  kFailed,      // apply() itself reported failure
  kRolledBack,  // deadline expired unverified; rollback executed
  kNote,        // informational record (e.g. an observed RM reconfiguration)
};
const char* to_string(ActuationOutcome outcome);

struct ActuationRecord {
  std::uint64_t seq = 0;  // 0-based emission index, monotone across drops
  std::int64_t at_ns = 0;
  std::string rule;
  std::string target;  // human-readable target (a path, request, or app)
  std::string detail;  // action-specific description
  ActuationOutcome outcome = ActuationOutcome::kApplied;

  friend void digest_into(obs::Fnv1a& h, const ActuationRecord& r) {
    h.u64(r.seq);
    h.u64(static_cast<std::uint64_t>(r.at_ns));
    h.str(r.rule);
    h.str(r.target);
    h.str(r.detail);
    h.u64(static_cast<std::uint64_t>(r.outcome));
  }
};

// Bounded actuation trace: an obs::EventLog of the most recent records plus
// exact totals and a digest over every record, so a runaway control loop
// cannot grow memory without bound while tests still see everything.
class ActuationLog : public obs::EventLog<ActuationRecord> {
 public:
  explicit ActuationLog(std::size_t capacity = 1024) : EventLog(capacity) {}

  void append(std::int64_t at_ns, const std::string& rule,
              const std::string& target, const std::string& detail,
              ActuationOutcome outcome) {
    EventLog::append(
        ActuationRecord{emitted(), at_ns, rule, target, detail, outcome});
  }

  // Deterministic serializations: the same control run yields the identical
  // byte string (fixed field order, no floats, no addresses).
  static std::string to_text(const std::vector<ActuationRecord>& records);
  static std::string to_json(const std::vector<ActuationRecord>& records);
  std::string export_text() const { return to_text(records()); }
  std::string export_json() const { return to_json(records()); }
};

struct PolicyConfig {
  // Anti-ping-pong hold: after an actuation on a target, the opposite
  // direction on the same (rule, target) is blocked this long.
  sim::Duration hold = sim::Duration::sec(8);
  // An applied action must be verified within this or it is rolled back and
  // counted failed. Zero disables deadlines (actions must self-verify).
  sim::Duration action_deadline = sim::Duration::sec(3);
  // Consecutive failed actuations that open a (rule, target) breaker;
  // 0 disables the breaker.
  int breaker_threshold = 2;
  sim::Duration breaker_open_for = sim::Duration::sec(30);
  std::size_t log_capacity = 1024;
};

struct PolicyStats {
  std::uint64_t fired = 0;     // apply() invocations
  std::uint64_t verified = 0;
  std::uint64_t failed = 0;       // apply() returned false
  std::uint64_t rolled_back = 0;  // deadline expired unverified
  std::uint64_t blocked_hold = 0;
  std::uint64_t blocked_cooldown = 0;
  std::uint64_t blocked_breaker = 0;
  std::uint64_t blocked_pending = 0;  // refire while unverified
  std::uint64_t breaker_trips = 0;
};

class ControlPolicy {
 public:
  using RuleId = std::size_t;
  using ActuationId = std::uint64_t;
  // Opaque target identity; callers namespace their keys (the control plane
  // uses PathIds for paths and a tagged space for requests).
  using TargetKey = std::uint64_t;

  // +1 forward (failover / degrade / boost), -1 reverse (restore). The hold
  // gate only blocks direction *changes* on a (rule, target).
  enum class Direction : std::int8_t { kForward = 1, kReverse = -1 };

  struct Action {
    std::function<bool()> apply;     // returns false on immediate failure
    std::function<void()> rollback;  // undoes an unverified action; optional
    std::string detail;              // deterministic description for the log
  };

  ControlPolicy(sim::Simulator& sim, PolicyConfig config);
  ~ControlPolicy();
  ControlPolicy(const ControlPolicy&) = delete;
  ControlPolicy& operator=(const ControlPolicy&) = delete;

  RuleId add_rule(std::string name, sim::Duration cooldown);
  const std::string& rule_name(RuleId rule) const {
    return rules_.at(rule).name;
  }

  // Gates + executes: returns the actuation id when the action was applied
  // (verification now pending, unless the deadline is disabled), nullopt
  // when a gate blocked it or apply() failed. Gates are evaluated in order
  // hold → pending → breaker → cooldown; blocked attempts are counted in
  // stats() but not logged (the log records actuations, not conditions).
  std::optional<ActuationId> fire(RuleId rule, TargetKey target,
                                  const std::string& target_label,
                                  Action action,
                                  Direction direction = Direction::kForward);
  // Marks a pending actuation verified: cancels its deadline, closes the
  // breaker window, logs kVerified. False for unknown/expired ids.
  bool verified(ActuationId id);

  bool held(RuleId rule, TargetKey target, Direction direction) const;
  bool breaker_open(RuleId rule, TargetKey target) const;
  // (rule, target) pairs currently degraded to report-only (open breaker).
  std::size_t report_only_pairs() const;
  std::size_t pending() const { return pending_.size(); }

  const PolicyStats& stats() const { return stats_; }
  ActuationLog& log() { return log_; }
  const ActuationLog& log() const { return log_; }

  // Gate-free informational record riding the same log (e.g. a resource
  // manager reconfiguration the plane observed but did not initiate).
  void note(const std::string& rule, const std::string& target,
            const std::string& detail,
            ActuationOutcome outcome = ActuationOutcome::kNote);

  // Registers "<prefix>.policy.*" lifecycle counters and gauges; breaker
  // trips additionally emit trace events when the registry has a TraceSink.
  void attach_observability(obs::Registry& registry, std::string prefix);

 private:
  struct RuleState {
    std::string name;
    sim::Duration cooldown;
  };
  struct PairState {
    sim::TimePoint cooldown_until{};
    // Hold bookkeeping: the last applied direction and when its hold ends.
    std::int8_t last_direction = 0;
    sim::TimePoint hold_until{};
    int consecutive_failures = 0;
    bool breaker_is_open = false;
    sim::TimePoint breaker_open_until{};
    bool has_pending = false;
  };
  struct Pending {
    RuleId rule = 0;
    TargetKey target = 0;
    std::string target_label;
    std::string detail;
    std::function<void()> rollback;
    sim::EventHandle deadline;
  };

  PairState& pair(RuleId rule, TargetKey target) {
    return pairs_[{rule, target}];
  }
  const PairState* find_pair(RuleId rule, TargetKey target) const;
  void expire(ActuationId id);
  void record_failure(RuleId rule, PairState& state);

  sim::Simulator& sim_;
  PolicyConfig config_;
  std::vector<RuleState> rules_;
  std::map<std::pair<RuleId, TargetKey>, PairState> pairs_;
  std::map<ActuationId, Pending> pending_;
  ActuationId next_id_ = 1;
  PolicyStats stats_;
  ActuationLog log_;

  obs::Scope obs_;
};

}  // namespace netmon::ctrl
