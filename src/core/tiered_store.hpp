#pragma once

// Tiered time-series storage engine (DESIGN.md §13), the netdata-style
// substrate under core::MeasurementDatabase: every (PathId, Metric) series
// appends raw samples into fixed-size pages (tier 0); when a page fills it
// is sealed and immediately downsampled — groups of `rollup_factor`
// consecutive points become one min/mean/max/count point (with first/last
// timestamps) of the next tier — so each coarser tier retains a longer
// horizon in geometrically fewer points. All pages come from one pooled
// allocator under a global page bound; when the pool is exhausted, sealed
// pages are evicted deterministically, lowest tier first and oldest first
// within a tier (raw history goes first — its aggregate survives one tier
// up — and the coarsest rollups go last). Open pages (the write head of
// each series×tier) are never evicted; if every pooled page is an open
// page the pool overcommits rather than drop live writes, so the true
// bound is max(max_pages, one open page per active series×tier).
//
// The range query `query(series, t0, t1, resolution)` picks the coarsest
// tier whose estimated per-point span still satisfies the requested
// resolution and stitches across tier boundaries: ranges older than the
// target tier's retained horizon are served from coarser tiers, and the
// newest samples not yet rolled up into the target tier are served from
// the finer tiers' open pages. Data evicted from every tier is reported as
// an explicit gap — a truthful "this was lost", never an interpolation.
//
// The engine never touches the simulator: recording and querying schedule
// no events, so attaching it cannot perturb the event-core golden trace.
// Everything is deterministic for a given op sequence — the model-based
// harness (tests/db_model_test.cpp) diffs query results and the eviction
// trace hash across same-seed runs.

#include <cstdint>
#include <deque>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "sim/time.hpp"

namespace netmon::core {

struct TieredStorageConfig {
  // Master switch: disabled, record() is a single predictable branch and
  // queries return empty results (the flat last-known path is unaffected
  // either way).
  bool enabled = true;
  // Points per page, every tier. Must be a multiple of rollup_factor so a
  // sealed page downsamples into whole next-tier points (no cross-page
  // accumulator, and a sealed page's data is always fully represented one
  // tier up before it becomes evictable).
  std::size_t page_points = 64;
  // Points of tier t aggregated into one point of tier t+1.
  std::size_t rollup_factor = 8;
  // Total tiers including tier 0 (raw). 1 disables downsampling.
  std::size_t tiers = 3;
  // Global page-pool bound across all series and tiers (see overcommit
  // caveat above). Pages are allocated lazily up to this count.
  std::size_t max_pages = 4096;

  void validate() const;  // throws std::invalid_argument
};

// One stored point. Tier 0 uses the degenerate form (count == 1,
// first == last, min == max == sum == value); rollups aggregate min/max/sum
// over *valid* samples only, while `count` keeps the full sample count so
// senescence-style accounting survives downsampling.
struct TierPoint {
  std::int64_t first_ns = 0;
  std::int64_t last_ns = 0;
  double min = 0.0;
  double max = 0.0;
  double sum = 0.0;
  std::uint32_t count = 0;
  std::uint32_t valid_count = 0;

  double mean() const {
    return valid_count != 0 ? sum / static_cast<double>(valid_count) : 0.0;
  }
};

struct QueryPoint {
  std::int64_t first_ns = 0;
  std::int64_t last_ns = 0;
  double min = 0.0;
  double max = 0.0;
  double mean = 0.0;
  std::uint64_t count = 0;
  std::uint64_t valid_count = 0;
  std::uint8_t tier = 0;
};

// A sub-range of the query whose data existed but has been evicted from
// every tier. Half-open [from_ns, to_ns).
struct QueryGap {
  std::int64_t from_ns = 0;
  std::int64_t to_ns = 0;
};

struct TierQueryResult {
  std::vector<QueryPoint> points;  // time-ordered; adjacent stitched
                                   // segments may overlap by at most one
                                   // coarse point's span at the boundary
  std::vector<QueryGap> gaps;
  bool complete() const { return gaps.empty(); }
};

struct TierStats {
  std::uint64_t pages = 0;   // live (open + sealed) pages of this tier
  std::uint64_t points = 0;  // live points of this tier
  std::uint64_t rollovers = 0;  // pages sealed (cumulative)
  std::uint64_t evictions = 0;  // pages evicted (cumulative)
  std::uint64_t evicted_points = 0;
};

struct StoreStats {
  std::uint64_t pages_in_use = 0;
  std::uint64_t pages_free = 0;
  std::uint64_t pool_pages = 0;  // allocated from the heap (never shrinks)
  std::uint64_t overcommits = 0;  // allocations past max_pages (all open)
  std::uint64_t samples = 0;      // raw samples recorded (cumulative)
  std::uint64_t imported_points = 0;  // points merged via import_points
  std::uint64_t bytes = 0;        // live point payload, pages × page bytes
};

class TieredStore {
 public:
  static constexpr std::size_t kMaxTiers = 8;

  explicit TieredStore(TieredStorageConfig config = {});
  TieredStore(const TieredStore&) = delete;
  TieredStore& operator=(const TieredStore&) = delete;

  bool enabled() const { return config_.enabled; }
  const TieredStorageConfig& config() const { return config_; }

  // Appends one raw sample to `series` (a dense slot index — the database
  // uses PathId * kMetricCount + metric). Timestamps are expected to be
  // non-decreasing per series (the director records in completion order);
  // out-of-order samples are stored as-is and keep positional first/last.
  void record(std::uint32_t series, std::int64_t at_ns, double value,
              bool valid);

  // Bulk import of already-aggregated points into tier 0 of `series` —
  // the receive side of federation (DESIGN.md §14): a parent merges a
  // child's sealed pages here. Points keep their counts (an imported point
  // may summarize many raw samples), participate in rollup/sealing/eviction
  // like locally recorded data, and are expected in non-decreasing time
  // order per series, like record().
  void import_points(std::uint32_t series, const TierPoint* points,
                     std::size_t n);

  // Called when a page seals, after it is marked sealed and before its
  // points roll up a tier — the points are intact and the hook may copy
  // them (federation spools tier-0 pages here). The hook MUST NOT reenter
  // the store: the sealing page is mid-mutation. Null (the default) costs
  // one branch per seal.
  using SealHook = std::function<void(std::uint32_t series, std::size_t tier,
                                      const TierPoint* points, std::size_t n)>;
  void set_seal_hook(SealHook hook) { seal_hook_ = std::move(hook); }

  // Oldest timestamp still retained for `series` across every tier — the
  // truthful "queries further back hit a gap" horizon. Empty when the
  // series holds no data (or the store is disabled).
  std::optional<std::int64_t> retention_horizon(std::uint32_t series) const;

  // Time-range query; `resolution_ns <= 0` requests the finest data. See
  // the header comment for tier selection and stitching semantics.
  // Inverted ranges (t1 < t0) yield an empty, gap-free result.
  TierQueryResult query(std::uint32_t series, std::int64_t t0_ns,
                        std::int64_t t1_ns, std::int64_t resolution_ns) const;

  // Tier the query planner would serve `resolution_ns` from, given the
  // series' observed mean sample interval (diagnostic; also the property
  // tests' oracle for the selection rule).
  std::size_t select_tier(std::uint32_t series,
                          std::int64_t resolution_ns) const;

  const StoreStats& stats() const { return stats_; }
  const TierStats& tier_stats(std::size_t tier) const {
    return tier_stats_[tier];
  }
  std::size_t tier_count() const { return config_.tiers; }
  std::size_t page_bytes() const;

  // Deterministic eviction accounting: a rolling FNV-1a hash over every
  // eviction record (seq, series, tier, first, last, points) plus the
  // total count — the model test's same-seed trace identity check.
  std::uint64_t eviction_hash() const { return eviction_hash_; }
  std::uint64_t evictions() const { return evictions_; }

  // Self-observability (DESIGN.md §10): "<prefix>.pool.*" gauges and
  // per-tier "<prefix>.tier<t>.{pages,points}" gauges plus
  // "<prefix>.tier<t>.{rollovers,evictions}" counters (seeded with the
  // cumulative totals at attach time, so they stay true counters). A
  // disabled store registers nothing.
  void attach_observability(obs::Registry& registry, const std::string& prefix);

 private:
  struct Page {
    std::uint32_t series = 0;
    std::uint16_t used = 0;
    std::uint8_t tier = 0;
    std::uint64_t seal_seq = 0;  // 0 while open
    std::vector<TierPoint> points;
  };

  struct TierState {
    std::vector<std::int32_t> pages;  // time-ordered; the last may be open
    std::uint64_t rollovers = 0;
  };

  struct SeriesState {
    std::vector<TierState> tiers;  // sized config_.tiers on first record
    std::int64_t first_ns = 0;
    std::int64_t last_ns = 0;
    std::uint64_t samples = 0;
  };

  SeriesState& series_state(std::uint32_t series);
  void append_point(std::uint32_t series, SeriesState& s, std::size_t tier,
                    const TierPoint& point);
  void seal_page(std::uint32_t series, SeriesState& s, std::size_t tier,
                 std::int32_t page_index);
  std::int32_t alloc_page(std::uint32_t series, std::size_t tier);
  bool evict_one();

  // First retained timestamp of a tier (open page included); INT64_MAX when
  // the tier holds no points.
  std::int64_t retained_start(const SeriesState& s, std::size_t tier) const;
  void emit_range(const SeriesState& s, std::size_t tier, std::int64_t t0_ns,
                  std::int64_t t1_ns, std::int64_t before_ns,
                  bool open_page_only, TierQueryResult& out) const;

  TieredStorageConfig config_;
  std::vector<Page> pool_;
  std::vector<std::int32_t> free_;
  std::vector<SeriesState> series_;
  // Per-tier eviction FIFO of (page index, seal seq); the seq guards
  // against entries whose page was already recycled.
  std::deque<std::pair<std::int32_t, std::uint64_t>> sealed_fifo_[kMaxTiers];
  TierStats tier_stats_[kMaxTiers];
  StoreStats stats_;
  SealHook seal_hook_;
  std::uint64_t seal_counter_ = 0;
  std::uint64_t evictions_ = 0;
  std::uint64_t eviction_hash_ = 1469598103934665603ull;  // FNV-1a basis

  // Observability handles (null while detached; owned by the registry).
  obs::Scope obs_;
  obs::Counter* obs_rollovers_[kMaxTiers] = {};
  obs::Counter* obs_evictions_[kMaxTiers] = {};
};

}  // namespace netmon::core
