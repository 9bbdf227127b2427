#pragma once

// The monitor's database (paper §4.1): "enables both current value and last
// known value reporting to the resource manager". Also the home of the
// senescence component of fidelity (§4.4): the age of the newest sample for
// a (path, metric) pair.
//
// Paths are interned into dense PathIds on first contact; series then live
// in a flat vector indexed by (PathId, Metric), so the steady-state record
// path is an array index away — no tree walk and no Path copy per sample.
// The Path-keyed overloads remain as thin wrappers (one interning lookup)
// for callers that do not hold an id.

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/path.hpp"
#include "core/tiered_store.hpp"
#include "obs/metrics.hpp"
#include "sim/time.hpp"

namespace netmon::core {

class MeasurementDatabase {
 public:
  explicit MeasurementDatabase(TieredStorageConfig storage = {})
      : store_(std::move(storage)) {}
  // Ignores its first argument; kept for perfbench/src/wl_zones.cpp.
  MeasurementDatabase(std::size_t, TieredStorageConfig storage)
      : MeasurementDatabase(std::move(storage)) {}
  MeasurementDatabase(const MeasurementDatabase&) = delete;
  MeasurementDatabase& operator=(const MeasurementDatabase&) = delete;

  // Interning: id_of() assigns (or returns) the dense id for a path;
  // find() never assigns and reports kInvalidPathId for unknown paths.
  PathId id_of(const Path& path);
  PathId find(const Path& path) const;
  const Path& path_of(PathId id) const { return *paths_[id]; }
  std::size_t interned_paths() const { return paths_.size(); }

  // Hot API, keyed by interned id.
  void record(PathId id, Metric metric, const MetricValue& value);
  std::optional<MetricValue> current(PathId id, Metric metric,
                                     sim::TimePoint now,
                                     sim::Duration max_age) const;
  std::optional<MetricValue> last_known(PathId id, Metric metric) const;
  std::optional<sim::Duration> senescence(PathId id, Metric metric,
                                          sim::TimePoint now) const;

  // Time-range query over the tiered store (DESIGN.md §13): aggregates over
  // [t0, t1] at the coarsest tier satisfying `resolution` (<= 0 requests the
  // finest retained data), stitched across tier boundaries, with evicted
  // sub-ranges reported as explicit gaps. Empty result when tiers are
  // disabled or the series was never recorded.
  TierQueryResult query(PathId id, Metric metric, sim::TimePoint t0,
                        sim::TimePoint t1, sim::Duration resolution) const {
    return store_.query(static_cast<std::uint32_t>(slot(id, metric)),
                        t0.nanos(), t1.nanos(), resolution.nanos());
  }
  TierQueryResult query(const Path& path, Metric metric, sim::TimePoint t0,
                        sim::TimePoint t1, sim::Duration resolution) const {
    const PathId id = find(path);
    if (id == kInvalidPathId) return {};
    return query(id, metric, t0, t1, resolution);
  }
  // The storage engine itself, for stats/tier introspection.
  const TieredStore& tiered() const { return store_; }
  TieredStore& tiered() { return store_; }

  // Federation surfaces (DESIGN.md §14): record()'s two halves, apart, so a
  // parent can merge a child's stream without double-counting.
  //
  // record_current is the field half: it updates the newest and newest-valid
  // samples (current, last_known, senescence) and never touches the store,
  // so a delta and the page that later summarizes the same sample cannot
  // both land in it.
  void record_current(PathId id, Metric metric, const MetricValue& value);
  // merge_points is the store half: already-aggregated tier points go into
  // the tiered store only, so replayed pages never move the fields.
  void merge_points(PathId id, Metric metric, const TierPoint* points,
                    std::size_t n) {
    store_.import_points(static_cast<std::uint32_t>(slot(id, metric)), points,
                         n);
  }

  // Called at the end of every record() with the sample just written — the
  // child side of federation taps its outbound delta stream here. Null (the
  // default) costs one branch; the hook must not reenter the database.
  using RecordHook =
      std::function<void(PathId, Metric, const MetricValue&)>;
  void set_record_hook(RecordHook hook) { record_hook_ = std::move(hook); }

  // Inverse of slot(): which (path, metric) a dense series index refers to.
  PathId slot_path(std::size_t series_slot) const {
    return static_cast<PathId>(series_slot / kMetricCount);
  }
  Metric slot_metric(std::size_t series_slot) const {
    return static_cast<Metric>(series_slot % kMetricCount);
  }
  std::size_t series_slot(PathId id, Metric metric) const {
    return slot(id, metric);
  }

  // Registers "<prefix>.<path>.<metric>.retention_horizon_ns" gauges for
  // every series currently tracked by the tiered store (ROADMAP follow-on:
  // per-series retention horizons in the SelfMib). Value is the oldest
  // retained timestamp, -1 while the series holds no tiered data.
  void publish_retention_horizons(obs::Registry& registry,
                                  const std::string& prefix);

  // Path-keyed convenience wrappers. record() interns; the read-only calls
  // return "never sampled" for paths that were never recorded.
  void record(const Path& path, Metric metric, const MetricValue& value) {
    record(id_of(path), metric, value);
  }
  // Current-value semantics: the newest sample iff it is younger than
  // max_age (and was a successful measurement).
  std::optional<MetricValue> current(const Path& path, Metric metric,
                                     sim::TimePoint now,
                                     sim::Duration max_age) const {
    const PathId id = find(path);
    if (id == kInvalidPathId) return std::nullopt;
    return current(id, metric, now, max_age);
  }
  // Last-known-value semantics: the newest *successful* sample regardless
  // of age — what the manager falls back to when sensors go quiet.
  std::optional<MetricValue> last_known(const Path& path,
                                        Metric metric) const {
    const PathId id = find(path);
    if (id == kInvalidPathId) return std::nullopt;
    return last_known(id, metric);
  }
  // Age of the newest sample (successful or not); nullopt if never sampled.
  std::optional<sim::Duration> senescence(const Path& path, Metric metric,
                                          sim::TimePoint now) const {
    const PathId id = find(path);
    if (id == kInvalidPathId) return std::nullopt;
    return senescence(id, metric, now);
  }

  std::uint64_t records_written() const { return records_written_; }
  // Number of (path, metric) series holding at least one sample. (Interning
  // alone reserves slots but does not create a tracked series.)
  std::size_t tracked_series() const { return tracked_series_; }

  // Self-observability (DESIGN.md §10): the fidelity half of the paper's
  // evaluation, measured. "<prefix>.sample_interval_ns" observes, at record
  // time, the gap between consecutive samples of the same (path, metric)
  // series — the floor any senescence bound (C·S·T) must cover;
  // "<prefix>.age_at_read_ns" observes the age of the newest sample each
  // time a reader consults the series — the senescence the manager actually
  // experienced. Detached (default) record() pays one null check.
  void attach_observability(obs::Registry& registry,
                            std::string prefix = "db");

 private:
  // The two values the paper's current/last-known reporting needs; every
  // older sample lives only in the tiered store.
  struct Series {
    std::optional<MetricValue> newest;
    std::optional<MetricValue> last_valid;
  };

  std::size_t slot(PathId id, Metric metric) const {
    return static_cast<std::size_t>(id) * kMetricCount +
           static_cast<std::size_t>(metric);
  }

  TieredStore store_;
  // Keyed on Path's precomputed structural hash: the steady-state interning
  // lookup is a bucket probe plus one equality check, no string re-hashing.
  std::unordered_map<Path, PathId> ids_;
  std::vector<const Path*> paths_;  // id -> map key (node-stable)
  std::vector<Series> series_;      // interned_paths() * kMetricCount slots
  std::size_t tracked_series_ = 0;
  std::uint64_t records_written_ = 0;

  // Observability handles (null while detached; owned by the registry).
  // Histograms are mutated from const readers: observing a read does not
  // change the database's logical state.
  obs::Scope obs_;
  obs::Scope horizons_;  // publish_retention_horizons()
  obs::Histogram* obs_interval_ = nullptr;
  obs::Histogram* obs_age_read_ = nullptr;
  RecordHook record_hook_;
};

}  // namespace netmon::core
