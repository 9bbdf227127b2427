#include "core/measurement_db.hpp"

namespace netmon::core {

PathId MeasurementDatabase::id_of(const Path& path) {
  auto [it, inserted] =
      ids_.try_emplace(path, static_cast<PathId>(paths_.size()));
  if (inserted) {
    paths_.push_back(&it->first);  // map nodes are stable
    for (std::size_t m = 0; m < kMetricCount; ++m) {
      series_.emplace_back(history_depth_);
    }
  }
  return it->second;
}

PathId MeasurementDatabase::find(const Path& path) const {
  auto it = ids_.find(path);
  return it == ids_.end() ? kInvalidPathId : it->second;
}

void MeasurementDatabase::record(PathId id, Metric metric,
                                 const MetricValue& value) {
  Series& series = series_[slot(id, metric)];
  if (series.history.empty()) {
    ++tracked_series_;
  } else if constexpr (obs::kCompiledIn) {
    if (obs_interval_ != nullptr) {
      // Gap since the previous sample of this series: the measured
      // senescence floor the paper's C·S·T bound must dominate.
      obs_interval_->observe(static_cast<double>(
          (value.measured_at - series.history.newest().value.measured_at)
              .nanos()));
    }
  }
  const Measurement m{value};
  series.history.push(m);
  if (value.valid) series.last_valid = m;
  ++records_written_;
  // The tiered store rides alongside the ring/last-known fast path and never
  // feeds back into it: current/last_known stay bit-identical with tiers on.
  if (store_.enabled()) {
    store_.record(static_cast<std::uint32_t>(slot(id, metric)),
                  value.measured_at.nanos(), value.value, value.valid);
  }
  if (record_hook_) record_hook_(id, metric, value);
}

void MeasurementDatabase::record_current(PathId id, Metric metric,
                                         const MetricValue& value) {
  Series& series = series_[slot(id, metric)];
  if (series.history.empty()) ++tracked_series_;
  const Measurement m{value};
  series.history.push(m);
  if (value.valid) series.last_valid = m;
  ++records_written_;
}

std::optional<Measurement> MeasurementDatabase::current(
    PathId id, Metric metric, sim::TimePoint now, sim::Duration max_age) const {
  const Series& series = series_[slot(id, metric)];
  if (!series.last_valid) return std::nullopt;
  const Measurement& m = *series.last_valid;
  if constexpr (obs::kCompiledIn) {
    if (obs_age_read_ != nullptr) {
      obs_age_read_->observe(static_cast<double>(m.age(now).nanos()));
    }
  }
  if (m.age(now) > max_age) return std::nullopt;
  return m;
}

std::optional<Measurement> MeasurementDatabase::last_known(
    PathId id, Metric metric) const {
  return series_[slot(id, metric)].last_valid;
}

std::optional<sim::Duration> MeasurementDatabase::senescence(
    PathId id, Metric metric, sim::TimePoint now) const {
  const Series& series = series_[slot(id, metric)];
  if (series.history.empty()) return std::nullopt;
  return series.history.newest().age(now);
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
    if (series_[s].history.empty()) continue;
    horizons_.gauge_fn(path_of(slot_path(s)).to_string() + "." +
                           to_string(slot_metric(s)) + ".retention_horizon_ns",
                       [this, s] {
                         const auto h = store_.retention_horizon(
                             static_cast<std::uint32_t>(s));
                         return h ? static_cast<double>(*h) : -1.0;
                       });
  }
}

const util::RingBuffer<Measurement>* MeasurementDatabase::history(
    PathId id, Metric metric) const {
  const Series& series = series_[slot(id, metric)];
  if (series.history.empty()) return nullptr;
  return &series.history;
}

}  // namespace netmon::core
