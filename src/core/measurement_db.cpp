#include "core/measurement_db.hpp"

namespace netmon::core {

PathId MeasurementDatabase::id_of(const Path& path) {
  auto [it, inserted] =
      ids_.try_emplace(path, static_cast<PathId>(paths_.size()));
  if (inserted) {
    paths_.push_back(&it->first);  // map nodes are stable
    series_.resize(series_.size() + kMetricCount);
  }
  return it->second;
}

PathId MeasurementDatabase::find(const Path& path) const {
  auto it = ids_.find(path);
  return it == ids_.end() ? kInvalidPathId : it->second;
}

void MeasurementDatabase::record(PathId id, Metric metric,
                                 const MetricValue& value) {
  record_current(id, metric, value);
  // The tiered store rides beside the two fields and never feeds back into
  // them: current/last_known stay bit-identical with tiers on or off.
  if (store_.enabled()) {
    store_.record(static_cast<std::uint32_t>(slot(id, metric)),
                  value.measured_at.nanos(), value.value, value.valid);
  }
  if (record_hook_) record_hook_(id, metric, value);
}

void MeasurementDatabase::record_current(PathId id, Metric metric,
                                         const MetricValue& value) {
  Series& series = series_[slot(id, metric)];
  if (!series.newest) {
    ++tracked_series_;
  } else if constexpr (obs::kCompiledIn) {
    if (obs_interval_ != nullptr) {
      // Gap since the previous sample of this series: the measured
      // senescence floor the paper's C·S·T bound must dominate.
      obs_interval_->observe(static_cast<double>(
          (value.measured_at - series.newest->measured_at).nanos()));
    }
  }
  series.newest = value;
  if (value.valid) series.last_valid = value;
  ++records_written_;
}

std::optional<MetricValue> MeasurementDatabase::current(
    PathId id, Metric metric, sim::TimePoint now, sim::Duration max_age) const {
  const Series& series = series_[slot(id, metric)];
  if (!series.last_valid) return std::nullopt;
  const sim::Duration age = now - series.last_valid->measured_at;
  if constexpr (obs::kCompiledIn) {
    if (obs_age_read_ != nullptr) {
      obs_age_read_->observe(static_cast<double>(age.nanos()));
    }
  }
  if (age > max_age) return std::nullopt;
  return series.last_valid;
}

std::optional<MetricValue> MeasurementDatabase::last_known(
    PathId id, Metric metric) const {
  return series_[slot(id, metric)].last_valid;
}

std::optional<sim::Duration> MeasurementDatabase::senescence(
    PathId id, Metric metric, sim::TimePoint now) const {
  const Series& series = series_[slot(id, metric)];
  if (!series.newest) return std::nullopt;
  return now - series.newest->measured_at;
}

void MeasurementDatabase::attach_observability(obs::Registry& registry,
                                               std::string prefix) {
  obs_ = obs::Scope(registry, std::move(prefix));
  // The store shares this prefix, so it attaches before anything of ours is
  // registered: its re-attach removes whatever the old prefix held.
  store_.attach_observability(registry, obs_.prefix());
  obs_interval_ = obs_.histogram("sample_interval_ns");
  obs_age_read_ = obs_.histogram("age_at_read_ns");
  obs_.gauge_of("records_written", records_written_);
  obs_.gauge_of("tracked_series", tracked_series_);
  obs_.gauge_fn("interned_paths",
                [this] { return static_cast<double>(paths_.size()); });
}

void MeasurementDatabase::publish_retention_horizons(obs::Registry& registry,
                                                     const std::string& prefix) {
  horizons_ = obs::Scope(registry, prefix);
  for (std::size_t s = 0; s < series_.size(); ++s) {
    if (!series_[s].newest) continue;
    horizons_.gauge_fn(path_of(slot_path(s)).to_string() + "." +
                           to_string(slot_metric(s)) + ".retention_horizon_ns",
                       [this, s] {
                         const auto h = store_.retention_horizon(
                             static_cast<std::uint32_t>(s));
                         return h ? static_cast<double>(*h) : -1.0;
                       });
  }
}

}  // namespace netmon::core
