#include "fault/chaos_sensor.hpp"

#include <memory>
#include <utility>

namespace netmon::fault {

const char* ChaosSensor::to_string(Mode mode) {
  switch (mode) {
    case Mode::kPassthrough: return "passthrough";
    case Mode::kHang: return "hang";
    case Mode::kNeverDone: return "never-done";
    case Mode::kDoubleDone: return "double-done";
    case Mode::kStaleValue: return "stale-value";
    case Mode::kFail: return "fail";
    case Mode::kDelay: return "delay";
  }
  return "?";
}

void ChaosSensor::remember(const core::Path& path, core::Metric metric,
                           const core::MetricValue& value) {
  if (value.valid) last_good_[{path, metric}] = value;
}

void ChaosSensor::measure(const core::Path& path, core::Metric metric,
                          Done done) {
  ++stats_.intercepted;
  switch (mode_) {
    case Mode::kPassthrough:
      inner_.measure(path, metric,
                     [this, path, metric, done = std::move(done)](
                         const core::MetricValue& value) {
                       remember(path, metric, value);
                       done(value);
                     });
      return;

    case Mode::kHang:
      // Park the callback forever; the sequencer slot stays occupied until
      // the supervision deadline reclaims it.
      ++stats_.hangs;
      held_.push_back(std::move(done));
      return;

    case Mode::kNeverDone:
      // Let `done` fall out of scope uncalled — exercises the sequencer's
      // abandoned-completion recovery.
      ++stats_.dropped_dones;
      return;

    case Mode::kDoubleDone:
      inner_.measure(path, metric,
                     [this, path, metric, done = std::move(done)](
                         const core::MetricValue& value) {
                       remember(path, metric, value);
                       done(value);
                       ++stats_.double_dones;
                       done(value);
                     });
      return;

    case Mode::kStaleValue: {
      // Serve the last value this wrapper ever saw, original timestamp and
      // all, without touching the network. A lying sensor, not a failing one.
      auto it = last_good_.find({path, metric});
      if (it != last_good_.end()) {
        ++stats_.stale_served;
        done(it->second);
      } else {
        done(core::MetricValue::failed(sim_.now()));
      }
      return;
    }

    case Mode::kFail:
      ++stats_.failures_injected;
      done(core::MetricValue::failed(sim_.now()));
      return;

    case Mode::kDelay: {
      // Shared, not moved, into the timer: an inner sensor that completes
      // twice gets both completions delayed, as before.
      auto shared = std::make_shared<const Done>(std::move(done));
      inner_.measure(path, metric,
                     [this, path, metric, shared = std::move(shared)](
                         const core::MetricValue& value) {
                       remember(path, metric, value);
                       ++stats_.delayed;
                       sim_.schedule_in(extra_delay_, [shared, value] {
                         (*shared)(value);
                       });
                     });
      return;
    }
  }
}

}  // namespace netmon::fault
