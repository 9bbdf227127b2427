#include "ctrl/control_plane.hpp"

#include <stdexcept>

#include "net/packet.hpp"

namespace netmon::ctrl {

ControlPlane::ControlPlane(sim::Simulator& sim, net::Network& network,
                           ControlConfig config)
    : sim_(sim),
      network_(network),
      config_(std::move(config)),
      policy_(sim, config_.policy),
      failover_(network_) {
  rule_failover_ =
      policy_.add_rule("route-failover", config_.failover_cooldown);
  rule_retune_ = policy_.add_rule("probe-retune", config_.retune_cooldown);
  rule_boost_ = policy_.add_rule("priority-boost", config_.boost_cooldown);
}

ControlPlane::~ControlPlane() {
  // The observer and listener closures capture `this`; a manager outliving
  // the plane must not call into freed memory.
  if (manager_ != nullptr) {
    manager_->set_tuple_observer({});
    manager_->remove_reconfiguration_listener(reconfig_listener_);
  }
}

void ControlPlane::attach(mgr::ResourceManager& manager) {
  if (!config_.enabled) return;  // inert: nothing installed, nothing runs
  if (manager_ != nullptr) {
    throw std::logic_error("ControlPlane: a manager is already attached");
  }
  manager_ = &manager;
  booster_ = std::make_unique<PriorityBoostActuator>(manager.director());
  manager.set_tuple_observer(
      [this](const std::string& app, const core::PathMetricTuple& tuple) {
        observe_tuple(app, tuple);
      });
  reconfig_listener_ = manager.add_reconfiguration_listener(
      [this](const mgr::ReconfigurationEvent& event) {
        ++stats_.reconfigs_observed;
        policy_.note("server-failover", event.application,
                     event.old_server.to_string() + " -> " +
                         event.new_server.to_string() + " (" + event.reason +
                         ")");
      });
  if (config_.probe_retuning) {
    tick_task_ =
        sim::PeriodicTask(sim_, config_.tick, [this] { on_tick(); });
  }
}

ControlPlane::PathState& ControlPlane::path_state(
    const std::string& application, const core::PathMetricTuple& tuple,
    ControlPolicy::TargetKey key) {
  auto it = paths_.find(key);
  if (it == paths_.end()) {
    PathState state;
    state.path = tuple.path;
    state.label = tuple.path.to_string();
    state.app = application;
    it = paths_.emplace(key, std::move(state)).first;
  }
  return it->second;
}

void ControlPlane::observe_tuple(const std::string& application,
                                 const core::PathMetricTuple& tuple) {
  if (!config_.enabled) return;
  ++stats_.tuples_seen;
  const auto key = static_cast<ControlPolicy::TargetKey>(tuple.path.hash());
  PathState& state = path_state(application, tuple, key);

  // Liveness evidence: an invalid or stale sample of any metric, or an
  // explicit unreachable reading, argues the path is down; any valid fresh
  // sample argues it is up (a measured throughput/latency implies packets
  // flowed).
  const bool stale = tuple.value.quality == core::SampleQuality::kStale;
  const bool down = !tuple.value.valid || stale ||
                    (tuple.metric == core::Metric::kReachability &&
                     tuple.value.value < 0.5);

  if (down) {
    ++state.reach_failures;
    state.calm_run = 0;
    if (config_.route_failover) maybe_failover(key, state);
    // A path the manager is striking is decision-critical: concentrate
    // probe budget on it so the next (possibly recovering) sample arrives
    // sooner.
    if (config_.priority_boost && config_.boost_striking_paths &&
        manager_ != nullptr && !state.boosted && !state.verify_boost &&
        manager_->path_strikes(state.app, tuple.path.source().host,
                               tuple.path.destination().host) >= 1) {
      fire_boost(key, state, "manager strikes");
    }
  } else {
    state.reach_failures = 0;
    if (state.pending_failover) {
      // Recovery observed on the rerouted path. The same good sample also
      // clears the manager's strikes (it ran first), so verification and
      // strike-clearing are one event, per the rule's contract.
      if (policy_.verified(*state.pending_failover)) {
        ++stats_.failovers_verified;
      }
      state.pending_failover.reset();
      if (state.verify_boost && booster_ != nullptr && manager_ != nullptr) {
        booster_->restore(manager_->request_id(state.app), state.path);
        state.verify_boost = false;
      }
    }
    if (config_.priority_boost) evaluate_volatility(key, state, tuple);
  }
}

void ControlPlane::maybe_failover(ControlPolicy::TargetKey key,
                                  PathState& state) {
  if (state.reach_failures < config_.failover_strikes) return;
  if (!failover_.available(state.path)) return;

  ControlPolicy::Action action;
  action.detail = "standby reroute";
  action.apply = [this, key] {
    PathState& st = paths_.at(key);
    if (!failover_.apply(st.path)) return false;
    st.failed_over = !st.failed_over;
    // Concentrate probe budget on the rerouted path so the verifying
    // sample arrives before the action deadline.
    if (booster_ != nullptr && manager_ != nullptr) {
      st.verify_boost = booster_->boost(manager_->request_id(st.app),
                                        st.path, core::ProbeClass::kCritical);
    }
    return true;
  };
  action.rollback = [this, key] {
    PathState& st = paths_.at(key);
    failover_.rollback(st.path);  // the swap is an involution
    st.failed_over = !st.failed_over;
    st.reach_failures = 0;  // count afresh against the restored route
    st.pending_failover.reset();
    if (st.verify_boost && booster_ != nullptr && manager_ != nullptr) {
      booster_->restore(manager_->request_id(st.app), st.path);
      st.verify_boost = false;
    }
  };
  const auto id =
      policy_.fire(rule_failover_, key, state.label, std::move(action),
                   ControlPolicy::Direction::kForward);
  if (id) {
    state.pending_failover = id;
    ++stats_.failovers_applied;
  }
}

void ControlPlane::evaluate_volatility(ControlPolicy::TargetKey key,
                                       PathState& state,
                                       const core::PathMetricTuple& tuple) {
  // Only valid, non-stale samples reach here (observe_tuple's down branch
  // filters the rest). Samples of the volatility metric feed the P² drift
  // detector; samples of other metrics merely count as calm time.
  if (tuple.metric == config_.volatility_metric &&
      config_.volatility_metric != core::Metric::kReachability) {
    const double v = tuple.value.value;
    bool drift = false;
    if (state.p90.count() >= config_.warmup_samples) {
      const double est = state.p90.value();
      if (est > 0.0) {
        drift = config_.volatility_metric == core::Metric::kOneWayLatency
                    ? v > est * config_.drift_ratio
                    : v * config_.drift_ratio < est;
      }
    }
    state.p90.add(v);
    if (drift) {
      ++state.drift_run;
      state.calm_run = 0;
    } else {
      ++state.calm_run;
      state.drift_run = 0;
    }
  } else {
    ++state.calm_run;
  }

  int strikes = 0;
  if (manager_ != nullptr) {
    strikes = manager_->path_strikes(state.app, tuple.path.source().host,
                                     tuple.path.destination().host);
  }

  const bool drifting = state.drift_run >= config_.drift_strikes;
  const bool striking =
      config_.boost_striking_paths && manager_ != nullptr && strikes >= 1;
  if ((drifting || striking) && !state.boosted && !state.verify_boost) {
    fire_boost(key, state, drifting ? "p90 drift" : "manager strikes");
  } else if (state.boosted && strikes == 0 &&
             state.calm_run >= config_.calm_samples) {
    fire_unboost(key, state);
  }
}

void ControlPlane::fire_boost(ControlPolicy::TargetKey key, PathState& state,
                              const char* why) {
  // Without a manager there is no request to reprioritize (benchmark
  // mode): the condition was still evaluated, which is what gets timed.
  if (booster_ == nullptr || manager_ == nullptr) return;
  ControlPolicy::Action action;
  action.detail = std::string("boost to critical (") + why + ")";
  action.apply = [this, key] {
    PathState& st = paths_.at(key);
    if (!booster_->boost(manager_->request_id(st.app), st.path,
                         core::ProbeClass::kCritical)) {
      return false;
    }
    st.boosted = true;
    return true;
  };
  action.rollback = [this, key] {
    PathState& st = paths_.at(key);
    if (st.boosted) {
      booster_->restore(manager_->request_id(st.app), st.path);
      st.boosted = false;
    }
  };
  const auto id = policy_.fire(rule_boost_, key, state.label,
                               std::move(action),
                               ControlPolicy::Direction::kForward);
  if (id) {
    // The boost mutates local scheduler state only — nothing remote to
    // await, so it self-verifies.
    policy_.verified(*id);
    ++stats_.boosts;
    state.drift_run = 0;
  }
}

void ControlPlane::fire_unboost(ControlPolicy::TargetKey key,
                                PathState& state) {
  if (booster_ == nullptr || manager_ == nullptr) return;
  ControlPolicy::Action action;
  action.detail = "restore priority";
  action.apply = [this, key] {
    PathState& st = paths_.at(key);
    if (!booster_->restore(manager_->request_id(st.app), st.path)) {
      return false;
    }
    st.boosted = false;
    return true;
  };
  const auto id = policy_.fire(rule_boost_, key, state.label,
                               std::move(action),
                               ControlPolicy::Direction::kReverse);
  if (id) {
    policy_.verified(*id);  // self-verified, like the boost
    ++stats_.unboosts;
    state.calm_run = 0;
  }
}

void ControlPlane::on_tick() {
  ++stats_.ticks;
  if (meter_ == nullptr || manager_ == nullptr) return;

  // Windowed monitoring share: per-tick deltas of the meter's cumulative
  // octet counters. The cumulative monitoring_share() smooths over the
  // whole run and would react far too slowly to act on.
  const std::uint64_t monitoring =
      meter_->total_bytes(net::TrafficClass::kMonitoring) +
      meter_->total_bytes(net::TrafficClass::kManagement);
  std::uint64_t total = 0;
  for (std::size_t c = 0; c < net::kTrafficClassCount; ++c) {
    total += meter_->total_bytes(static_cast<net::TrafficClass>(c));
  }
  const std::uint64_t window_monitoring = monitoring - last_monitoring_bytes_;
  const std::uint64_t window_total = total - last_total_bytes_;
  last_monitoring_bytes_ = monitoring;
  last_total_bytes_ = total;
  if (window_total == 0) return;  // nothing moved; no evidence either way

  const double share = static_cast<double>(window_monitoring) /
                       static_cast<double>(window_total);
  share_ewma_ = share_primed_ ? config_.share_alpha * share +
                                    (1.0 - config_.share_alpha) * share_ewma_
                              : share;
  share_primed_ = true;

  // Retune decisions use the byte-weighted share over a full settle window
  // — at least the configured cooldown AND every request's current period —
  // never the per-tick EWMA. Probe rounds are bursty: at a stretched
  // period the idle ticks between rounds duty-cycle the EWMA toward zero,
  // faking recovery, and a decision made on that ripple cascades down the
  // whole ladder. The windowed byte average is self-consistent: halving the
  // probe rate can reduce its share to at worst half, so the share measured
  // after a stretch always exceeds the predictive-restore bound derived
  // from the share that justified the stretch — the ladder converges
  // monotonically instead of flapping.
  const std::int64_t now_ns = sim_.now().nanos();
  std::int64_t settle_ns = config_.retune_cooldown.nanos();
  for (const std::string& app : manager_->applications()) {
    const auto request = manager_->request_id(app);
    if (request == 0) continue;
    if (const auto period = manager_->director().period_of(request);
        period && period->nanos() > settle_ns) {
      settle_ns = period->nanos();
    }
  }
  if (now_ns - window_start_ns_ < settle_ns) return;
  const std::uint64_t decision_monitoring = monitoring - window_monitoring0_;
  const std::uint64_t decision_total = total - window_total0_;
  window_start_ns_ = now_ns;
  window_monitoring0_ = monitoring;
  window_total0_ = total;
  if (decision_total == 0) return;
  window_share_ = static_cast<double>(decision_monitoring) /
                  static_cast<double>(decision_total);

  for (const std::string& app : manager_->applications()) {
    const auto request = manager_->request_id(app);
    if (request == 0) continue;
    retune_request(app, request);
  }
}

void ControlPlane::retune_request(const std::string& application,
                                  core::SensorDirector::RequestId request) {
  auto it = retuners_.find(request);
  if (it == retuners_.end()) {
    it = retuners_
             .emplace(request, std::make_unique<ProbeRetuneActuator>(
                                   manager_->director(), request,
                                   config_.stretch_factor,
                                   config_.max_stretch_levels))
             .first;
  }
  ProbeRetuneActuator& retuner = *it->second;
  const auto key = static_cast<ControlPolicy::TargetKey>(request);
  const std::string label =
      "request#" + std::to_string(request) + " (" + application + ")";

  if (window_share_ > config_.share_budget &&
      retuner.level() < config_.max_stretch_levels) {
    ControlPolicy::Action action;
    action.detail =
        "stretch period to level " + std::to_string(retuner.level() + 1);
    action.apply = [&retuner] { return retuner.stretch(); };
    const auto id = policy_.fire(rule_retune_, key, label, std::move(action),
                                 ControlPolicy::Direction::kForward);
    if (id) {
      policy_.verified(*id);  // local period change, self-verified
      ++stats_.stretches;
    }
  } else if (retuner.level() > 0 &&
             window_share_ * config_.stretch_factor <=
                 config_.share_budget * config_.restore_margin) {
    // Predictive restore: un-stretching one level multiplies the probe rate
    // by stretch_factor, so only restore when the projected share still
    // clears the budget (with margin) — the ladder converges instead of
    // flapping around the threshold.
    ControlPolicy::Action action;
    action.detail =
        "restore period to level " + std::to_string(retuner.level() - 1);
    action.apply = [&retuner] { return retuner.restore(); };
    const auto id = policy_.fire(rule_retune_, key, label, std::move(action),
                                 ControlPolicy::Direction::kReverse);
    if (id) {
      policy_.verified(*id);
      ++stats_.restores;
    }
  }
}

int ControlPlane::stretch_level(
    core::SensorDirector::RequestId request) const {
  auto it = retuners_.find(request);
  return it == retuners_.end() ? 0 : it->second->level();
}

void ControlPlane::attach_observability(obs::Registry& registry,
                                        std::string prefix) {
  obs_ = obs::Scope(registry, std::move(prefix));
  obs_.gauge_of("tuples_seen", stats_.tuples_seen);
  obs_.gauge_of("failovers_applied", stats_.failovers_applied);
  obs_.gauge_of("failovers_verified", stats_.failovers_verified);
  obs_.gauge_of("boosts", stats_.boosts);
  obs_.gauge_of("unboosts", stats_.unboosts);
  obs_.gauge_of("stretches", stats_.stretches);
  obs_.gauge_of("restores", stats_.restores);
  obs_.gauge_of("reconfigs_observed", stats_.reconfigs_observed);
  obs_.gauge_fn("boosted_paths",
                [this] { return static_cast<double>(boosted_paths()); });
  obs_.gauge_of("share_ewma", share_ewma_);
  obs_.gauge_of("window_share", window_share_);
  policy_.attach_observability(registry, obs_.prefix() + ".policy");
}

}  // namespace netmon::ctrl
