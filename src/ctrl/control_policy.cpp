#include "ctrl/control_policy.hpp"

#include <stdexcept>

namespace netmon::ctrl {

const char* to_string(ActuationOutcome outcome) {
  switch (outcome) {
    case ActuationOutcome::kApplied: return "applied";
    case ActuationOutcome::kVerified: return "verified";
    case ActuationOutcome::kFailed: return "failed";
    case ActuationOutcome::kRolledBack: return "rolled-back";
    case ActuationOutcome::kNote: return "note";
  }
  return "?";
}

std::string ActuationLog::to_text(const std::vector<ActuationRecord>& records) {
  std::string out;
  for (const ActuationRecord& r : records) {
    out += std::to_string(r.seq);
    out += " t=";
    out += std::to_string(r.at_ns);
    out += " [";
    out += r.rule;
    out += "] ";
    out += r.target;
    out += " :: ";
    out += r.detail;
    out += " -> ";
    out += to_string(r.outcome);
    out += '\n';
  }
  return out;
}

namespace {
void json_escape_into(std::string& out, const std::string& s) {
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      default: out += c; break;
    }
  }
}
}  // namespace

std::string ActuationLog::to_json(const std::vector<ActuationRecord>& records) {
  std::string out = "[\n";
  for (std::size_t i = 0; i < records.size(); ++i) {
    const ActuationRecord& r = records[i];
    out += "  {\"seq\": ";
    out += std::to_string(r.seq);
    out += ", \"at_ns\": ";
    out += std::to_string(r.at_ns);
    out += ", \"rule\": \"";
    json_escape_into(out, r.rule);
    out += "\", \"target\": \"";
    json_escape_into(out, r.target);
    out += "\", \"detail\": \"";
    json_escape_into(out, r.detail);
    out += "\", \"outcome\": \"";
    out += to_string(r.outcome);
    out += "\"}";
    if (i + 1 < records.size()) out += ',';
    out += '\n';
  }
  out += "]\n";
  return out;
}

ControlPolicy::ControlPolicy(sim::Simulator& sim, PolicyConfig config)
    : sim_(sim), config_(config), log_(config.log_capacity) {}

ControlPolicy::~ControlPolicy() {
  // Deadline closures capture `this`; cancel them so a simulator outliving
  // the policy cannot fire into freed memory.
  for (auto& [id, p] : pending_) p.deadline.cancel();
}

ControlPolicy::RuleId ControlPolicy::add_rule(std::string name,
                                              sim::Duration cooldown) {
  rules_.push_back(RuleState{std::move(name), cooldown});
  return rules_.size() - 1;
}

const ControlPolicy::PairState* ControlPolicy::find_pair(
    RuleId rule, TargetKey target) const {
  auto it = pairs_.find({rule, target});
  return it == pairs_.end() ? nullptr : &it->second;
}

bool ControlPolicy::held(RuleId rule, TargetKey target,
                         Direction direction) const {
  const PairState* state = find_pair(rule, target);
  if (state == nullptr || state->last_direction == 0) return false;
  return state->last_direction != static_cast<std::int8_t>(direction) &&
         sim_.now() < state->hold_until;
}

bool ControlPolicy::breaker_open(RuleId rule, TargetKey target) const {
  const PairState* state = find_pair(rule, target);
  return state != nullptr && state->breaker_is_open &&
         sim_.now() < state->breaker_open_until;
}

std::size_t ControlPolicy::report_only_pairs() const {
  std::size_t n = 0;
  for (const auto& [key, state] : pairs_) {
    if (state.breaker_is_open && sim_.now() < state.breaker_open_until) ++n;
  }
  return n;
}

std::optional<ControlPolicy::ActuationId> ControlPolicy::fire(
    RuleId rule, TargetKey target, const std::string& target_label,
    Action action, Direction direction) {
  if (rule >= rules_.size()) {
    throw std::out_of_range("ControlPolicy::fire: unknown rule");
  }
  const sim::TimePoint now = sim_.now();
  PairState& state = pair(rule, target);

  // Anti-ping-pong hold: only a direction *change* within the hold window
  // is blocked; escalation in the same direction falls through to cooldown.
  if (state.last_direction != 0 &&
      state.last_direction != static_cast<std::int8_t>(direction) &&
      now < state.hold_until) {
    ++stats_.blocked_hold;
    return std::nullopt;
  }
  if (state.has_pending) {
    ++stats_.blocked_pending;
    return std::nullopt;
  }
  if (state.breaker_is_open) {
    if (now < state.breaker_open_until) {
      ++stats_.blocked_breaker;
      return std::nullopt;
    }
    // Half-open: admit this one attempt; one more failure re-opens at once.
    state.breaker_is_open = false;
    state.consecutive_failures =
        config_.breaker_threshold > 0 ? config_.breaker_threshold - 1 : 0;
  }
  if (now < state.cooldown_until) {
    ++stats_.blocked_cooldown;
    return std::nullopt;
  }

  // Gates passed — arm cooldown and hold at apply time so the verification
  // window cannot be pre-empted by an immediate refire.
  state.cooldown_until = now + rules_[rule].cooldown;
  state.last_direction = static_cast<std::int8_t>(direction);
  state.hold_until = now + config_.hold;
  ++stats_.fired;

  const bool applied = action.apply ? action.apply() : false;
  if (!applied) {
    ++stats_.failed;
    log_.append(now.nanos(), rules_[rule].name, target_label, action.detail,
                ActuationOutcome::kFailed);
    record_failure(rule, state);
    return std::nullopt;
  }

  const ActuationId id = next_id_++;
  log_.append(now.nanos(), rules_[rule].name, target_label, action.detail,
              ActuationOutcome::kApplied);
  Pending pending;
  pending.rule = rule;
  pending.target = target;
  pending.target_label = target_label;
  pending.detail = std::move(action.detail);
  pending.rollback = std::move(action.rollback);
  if (config_.action_deadline.nanos() > 0) {
    state.has_pending = true;
    pending.deadline =
        sim_.schedule_in(config_.action_deadline, [this, id] { expire(id); });
    pending_.emplace(id, std::move(pending));
  } else {
    // No deadline: the caller must self-verify. Keep the pending entry so
    // verified(id) still resolves, but do not block refires on it.
    pending_.emplace(id, std::move(pending));
  }
  return id;
}

bool ControlPolicy::verified(ActuationId id) {
  auto it = pending_.find(id);
  if (it == pending_.end()) return false;
  it->second.deadline.cancel();
  PairState& state = pair(it->second.rule, it->second.target);
  state.has_pending = false;
  state.consecutive_failures = 0;
  ++stats_.verified;
  log_.append(sim_.now().nanos(), rules_[it->second.rule].name,
              it->second.target_label, it->second.detail,
              ActuationOutcome::kVerified);
  pending_.erase(it);
  return true;
}

void ControlPolicy::expire(ActuationId id) {
  auto it = pending_.find(id);
  if (it == pending_.end()) return;
  Pending pending = std::move(it->second);
  pending_.erase(it);
  ++stats_.rolled_back;
  if (pending.rollback) pending.rollback();
  log_.append(sim_.now().nanos(), rules_[pending.rule].name,
              pending.target_label, pending.detail,
              ActuationOutcome::kRolledBack);
  PairState& state = pair(pending.rule, pending.target);
  state.has_pending = false;
  record_failure(pending.rule, state);
}

void ControlPolicy::record_failure(RuleId rule, PairState& state) {
  if (config_.breaker_threshold <= 0) return;
  if (++state.consecutive_failures >= config_.breaker_threshold) {
    state.breaker_is_open = true;
    state.breaker_open_until = sim_.now() + config_.breaker_open_for;
    ++stats_.breaker_trips;
    if (obs_.attached()) {
      obs_.emit(sim_.now().nanos(), "ctrl",
                rules_[rule].name + ".breaker_open", 1.0);
    }
  }
}

void ControlPolicy::note(const std::string& rule, const std::string& target,
                         const std::string& detail, ActuationOutcome outcome) {
  log_.append(sim_.now().nanos(), rule, target, detail, outcome);
}

void ControlPolicy::attach_observability(obs::Registry& registry,
                                         std::string prefix) {
  obs_ = obs::Scope(registry, std::move(prefix));
  obs_.gauge_of("fired", stats_.fired);
  obs_.gauge_of("verified", stats_.verified);
  obs_.gauge_of("failed", stats_.failed);
  obs_.gauge_of("rolled_back", stats_.rolled_back);
  obs_.gauge_of("blocked_hold", stats_.blocked_hold);
  obs_.gauge_of("blocked_cooldown", stats_.blocked_cooldown);
  obs_.gauge_of("blocked_breaker", stats_.blocked_breaker);
  obs_.gauge_of("breaker_trips", stats_.breaker_trips);
  obs_.gauge_fn("report_only_pairs",
                [this] { return static_cast<double>(report_only_pairs()); });
  obs_.gauge_fn("pending",
                [this] { return static_cast<double>(pending_.size()); });
  obs_.gauge_fn("log_emitted",
                [this] { return static_cast<double>(log_.emitted()); });
}

}  // namespace netmon::ctrl
