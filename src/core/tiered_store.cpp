#include "core/tiered_store.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

namespace netmon::core {

namespace {

constexpr std::int64_t kNever = std::numeric_limits<std::int64_t>::max();

void fnv_mix(std::uint64_t& h, std::uint64_t v) {
  h ^= v;
  h *= 1099511628211ull;
}

TierPoint merge_points(const TierPoint* pts, std::size_t n) {
  TierPoint m;
  m.first_ns = pts[0].first_ns;
  m.last_ns = pts[n - 1].last_ns;
  bool any_valid = false;
  for (std::size_t i = 0; i < n; ++i) {
    const TierPoint& p = pts[i];
    m.count += p.count;
    m.valid_count += p.valid_count;
    m.sum += p.sum;
    if (p.valid_count != 0) {
      if (!any_valid) {
        m.min = p.min;
        m.max = p.max;
        any_valid = true;
      } else {
        m.min = std::min(m.min, p.min);
        m.max = std::max(m.max, p.max);
      }
    }
  }
  return m;
}

}  // namespace

void TieredStorageConfig::validate() const {
  if (!enabled) return;
  if (tiers < 1 || tiers > TieredStore::kMaxTiers) {
    throw std::invalid_argument("TieredStorageConfig: tiers must be 1..8");
  }
  if (page_points < 2) {
    throw std::invalid_argument("TieredStorageConfig: page_points must be >= 2");
  }
  if (tiers > 1) {
    if (rollup_factor < 2) {
      throw std::invalid_argument(
          "TieredStorageConfig: rollup_factor must be >= 2");
    }
    if (page_points % rollup_factor != 0) {
      throw std::invalid_argument(
          "TieredStorageConfig: page_points must be a multiple of "
          "rollup_factor");
    }
  }
  if (max_pages < 2) {
    throw std::invalid_argument("TieredStorageConfig: max_pages must be >= 2");
  }
}

TieredStore::TieredStore(TieredStorageConfig config)
    : config_(std::move(config)) {
  config_.validate();
}

std::size_t TieredStore::page_bytes() const {
  return config_.page_points * sizeof(TierPoint);
}

TieredStore::SeriesState& TieredStore::series_state(std::uint32_t series) {
  if (series >= series_.size()) series_.resize(series + 1);
  SeriesState& s = series_[series];
  if (s.tiers.empty()) s.tiers.resize(config_.tiers);
  return s;
}

void TieredStore::record(std::uint32_t series, std::int64_t at_ns,
                         double value, bool valid) {
  if (!config_.enabled) return;
  SeriesState& s = series_state(series);
  if (s.samples == 0) s.first_ns = at_ns;
  s.last_ns = at_ns;
  ++s.samples;
  ++stats_.samples;
  TierPoint point;
  point.first_ns = at_ns;
  point.last_ns = at_ns;
  if (valid) {
    point.min = point.max = point.sum = value;
    point.valid_count = 1;
  }
  point.count = 1;
  append_point(series, s, 0, point);
}

void TieredStore::import_points(std::uint32_t series, const TierPoint* points,
                                std::size_t n) {
  if (!config_.enabled || n == 0) return;
  SeriesState& s = series_state(series);
  for (std::size_t i = 0; i < n; ++i) {
    const TierPoint& p = points[i];
    if (s.samples == 0) s.first_ns = p.first_ns;
    s.last_ns = p.last_ns;
    s.samples += p.count;
    ++stats_.imported_points;
    append_point(series, s, 0, p);
  }
}

std::optional<std::int64_t> TieredStore::retention_horizon(
    std::uint32_t series) const {
  if (!config_.enabled || series >= series_.size()) return std::nullopt;
  const SeriesState& s = series_[series];
  if (s.tiers.empty()) return std::nullopt;
  std::int64_t earliest = kNever;
  for (std::size_t t = 0; t < config_.tiers; ++t) {
    earliest = std::min(earliest, retained_start(s, t));
  }
  if (earliest == kNever) return std::nullopt;
  return earliest;
}

void TieredStore::append_point(std::uint32_t series, SeriesState& s,
                               std::size_t tier, const TierPoint& point) {
  TierState& ts = s.tiers[tier];
  std::int32_t idx;
  if (ts.pages.empty() || pool_[ts.pages.back()].seal_seq != 0) {
    idx = alloc_page(series, tier);
    ts.pages.push_back(idx);
  } else {
    idx = ts.pages.back();
  }
  Page& page = pool_[idx];
  page.points[page.used++] = point;
  ++tier_stats_[tier].points;
  if (page.used == config_.page_points) seal_page(series, s, tier, idx);
}

void TieredStore::seal_page(std::uint32_t series, SeriesState& s,
                            std::size_t tier, std::int32_t page_index) {
  {
    Page& page = pool_[page_index];
    page.seal_seq = ++seal_counter_;
    sealed_fifo_[tier].emplace_back(page_index, page.seal_seq);
  }
  ++s.tiers[tier].rollovers;
  ++tier_stats_[tier].rollovers;
  if constexpr (obs::kCompiledIn) {
    if (obs_rollovers_[tier] != nullptr) obs_rollovers_[tier]->inc();
  }
  // The hook sees the page before the recursive rollup below, which may
  // need a page and evict — possibly this very one.
  if (seal_hook_) {
    const Page& page = pool_[page_index];
    seal_hook_(series, tier, page.points.data(), page.used);
  }
  if (tier + 1 >= config_.tiers) return;

  // Downsample the sealed page into whole next-tier points. Copy first: the
  // recursive append may need a page and evict — possibly this very page.
  const std::size_t groups = config_.page_points / config_.rollup_factor;
  std::vector<TierPoint> merged;
  merged.reserve(groups);
  for (std::size_t g = 0; g < groups; ++g) {
    merged.push_back(
        merge_points(pool_[page_index].points.data() + g * config_.rollup_factor,
                     config_.rollup_factor));
  }
  for (const TierPoint& m : merged) append_point(series, s, tier + 1, m);
}

std::int32_t TieredStore::alloc_page(std::uint32_t series, std::size_t tier) {
  std::int32_t idx;
  if (!free_.empty()) {
    idx = free_.back();
    free_.pop_back();
    --stats_.pages_free;
  } else if (pool_.size() < config_.max_pages) {
    pool_.emplace_back();
    idx = static_cast<std::int32_t>(pool_.size() - 1);
    ++stats_.pool_pages;
  } else if (evict_one()) {
    idx = free_.back();
    free_.pop_back();
    --stats_.pages_free;
  } else {
    // Every pooled page is an open write head: overcommit rather than drop
    // live samples (see the header's bound caveat).
    ++stats_.overcommits;
    pool_.emplace_back();
    idx = static_cast<std::int32_t>(pool_.size() - 1);
    ++stats_.pool_pages;
  }
  Page& page = pool_[idx];
  page.series = series;
  page.tier = static_cast<std::uint8_t>(tier);
  page.used = 0;
  page.seal_seq = 0;
  if (page.points.size() != config_.page_points) {
    page.points.resize(config_.page_points);
  }
  ++stats_.pages_in_use;
  stats_.bytes += page_bytes();
  ++tier_stats_[tier].pages;
  return idx;
}

bool TieredStore::evict_one() {
  for (std::size_t tier = 0; tier < config_.tiers; ++tier) {
    auto& fifo = sealed_fifo_[tier];
    while (!fifo.empty()) {
      const auto [idx, seq] = fifo.front();
      fifo.pop_front();
      Page& page = pool_[idx];
      if (page.seal_seq != seq) continue;  // recycled since sealing
      // Within one series×tier, seal order is time order, so the global
      // FIFO head is that series' oldest retained sealed page.
      auto& pages = series_[page.series].tiers[tier].pages;
      auto it = std::find(pages.begin(), pages.end(), idx);
      if (it != pages.end()) pages.erase(it);

      fnv_mix(eviction_hash_, seq);
      fnv_mix(eviction_hash_, page.series);
      fnv_mix(eviction_hash_, tier);
      fnv_mix(eviction_hash_,
              static_cast<std::uint64_t>(page.points[0].first_ns));
      fnv_mix(eviction_hash_,
              static_cast<std::uint64_t>(page.points[page.used - 1].last_ns));
      fnv_mix(eviction_hash_, page.used);
      ++evictions_;
      ++tier_stats_[tier].evictions;
      tier_stats_[tier].evicted_points += page.used;
      tier_stats_[tier].points -= page.used;
      --tier_stats_[tier].pages;
      --stats_.pages_in_use;
      stats_.bytes -= page_bytes();
      if constexpr (obs::kCompiledIn) {
        if (obs_evictions_[tier] != nullptr) obs_evictions_[tier]->inc();
      }
      page.seal_seq = 0;
      page.used = 0;
      free_.push_back(idx);
      ++stats_.pages_free;
      return true;
    }
  }
  return false;
}

std::int64_t TieredStore::retained_start(const SeriesState& s,
                                         std::size_t tier) const {
  const TierState& ts = s.tiers[tier];
  if (ts.pages.empty()) return kNever;
  const Page& page = pool_[ts.pages.front()];
  if (page.used == 0) return kNever;
  return page.points[0].first_ns;
}

std::size_t TieredStore::select_tier(std::uint32_t series,
                                     std::int64_t resolution_ns) const {
  if (series >= series_.size()) return 0;
  const SeriesState& s = series_[series];
  if (resolution_ns <= 0 || s.samples < 2) return 0;
  double interval = static_cast<double>(s.last_ns - s.first_ns) /
                    static_cast<double>(s.samples - 1);
  if (interval < 1.0) interval = 1.0;
  // Coarsest tier whose estimated per-point span (mean raw interval ×
  // rollup^tier, evicted history included) still fits the resolution; a
  // resolution coarser than every tier serves from the coarsest.
  std::size_t tier = 0;
  double span = interval;
  while (tier + 1 < config_.tiers) {
    const double next = span * static_cast<double>(config_.rollup_factor);
    if (next > static_cast<double>(resolution_ns)) break;
    span = next;
    ++tier;
  }
  return tier;
}

void TieredStore::emit_range(const SeriesState& s, std::size_t tier,
                             std::int64_t t0_ns, std::int64_t t1_ns,
                             std::int64_t before_ns, bool open_page_only,
                             TierQueryResult& out) const {
  const TierState& ts = s.tiers[tier];
  for (const std::int32_t idx : ts.pages) {
    const Page& page = pool_[idx];
    if (open_page_only && page.seal_seq != 0) continue;
    if (page.used == 0) continue;
    if (page.points[0].first_ns > t1_ns) break;  // pages are time-ordered
    if (page.points[page.used - 1].last_ns < t0_ns) continue;
    for (std::uint16_t i = 0; i < page.used; ++i) {
      const TierPoint& p = page.points[i];
      if (p.last_ns < t0_ns) continue;
      if (p.first_ns > t1_ns) return;
      if (p.first_ns >= before_ns) return;  // finer coverage takes over here
      QueryPoint q;
      q.first_ns = p.first_ns;
      q.last_ns = p.last_ns;
      q.min = p.min;
      q.max = p.max;
      q.mean = p.mean();
      q.count = p.count;
      q.valid_count = p.valid_count;
      q.tier = static_cast<std::uint8_t>(tier);
      out.points.push_back(q);
    }
  }
}

TierQueryResult TieredStore::query(std::uint32_t series, std::int64_t t0_ns,
                                   std::int64_t t1_ns,
                                   std::int64_t resolution_ns) const {
  TierQueryResult result;
  if (!config_.enabled || series >= series_.size()) return result;
  const SeriesState& s = series_[series];
  if (s.samples == 0 || s.tiers.empty() || t1_ns < t0_ns) return result;

  const std::size_t target = select_tier(series, resolution_ns);

  // The serve ladder: tier `target` serves everything it retains; each
  // coarser tier serves only strictly before the point where the next finer
  // ladder tier's retention begins.
  struct Rung {
    std::size_t tier;
    std::int64_t before_ns;
  };
  std::vector<Rung> ladder;
  std::int64_t before = kNever;
  for (std::size_t t = target; t < config_.tiers; ++t) {
    const std::int64_t start = retained_start(s, t);
    if (start == kNever) continue;
    ladder.push_back(Rung{t, before});
    before = start;
    if (start <= t0_ns) break;  // everything older is outside the query
  }

  // Anything older than the earliest retained point of ANY tier was evicted
  // from the whole hierarchy: report it as a gap, never interpolate it.
  std::int64_t earliest = kNever;
  for (std::size_t t = 0; t < config_.tiers; ++t) {
    earliest = std::min(earliest, retained_start(s, t));
  }
  if (earliest > s.first_ns) {
    const std::int64_t from = std::max(t0_ns, s.first_ns);
    const std::int64_t to =
        std::min(t1_ns == kNever ? kNever : t1_ns + 1, earliest);
    if (from < to) result.gaps.push_back(QueryGap{from, to});
  }

  // Emit oldest (coarsest rung) first, so points come out time-ordered.
  for (auto it = ladder.rbegin(); it != ladder.rend(); ++it) {
    emit_range(s, it->tier, t0_ns, t1_ns, it->before_ns, false, result);
  }
  // Stitch the newest samples not yet rolled up into the target tier: the
  // finer tiers' open pages, finest last (they hold the newest data).
  for (std::size_t t = target; t-- > 0;) {
    emit_range(s, t, t0_ns, t1_ns, kNever, true, result);
  }
  return result;
}

void TieredStore::attach_observability(obs::Registry& registry,
                                       const std::string& prefix) {
  obs_ = config_.enabled ? obs::Scope(registry, prefix) : obs::Scope();
  if (!obs_.attached()) return;
  obs_.gauge_of("pool.pages_in_use", stats_.pages_in_use);
  obs_.gauge_of("pool.pages", stats_.pool_pages);
  obs_.gauge_of("pool.bytes", stats_.bytes);
  obs_.gauge_of("pool.overcommits", stats_.overcommits);
  for (std::size_t t = 0; t < config_.tiers; ++t) {
    const std::string tp = "tier" + std::to_string(t);
    obs_.gauge_of(tp + ".pages", tier_stats_[t].pages);
    obs_.gauge_of(tp + ".points", tier_stats_[t].points);
    // True monotone counters, seeded with the cumulative totals so a
    // mid-life attach still reports the real rollover/eviction history.
    obs_rollovers_[t] = obs_.counter(tp + ".rollovers");
    obs_rollovers_[t]->inc(tier_stats_[t].rollovers);
    obs_evictions_[t] = obs_.counter(tp + ".evictions");
    obs_evictions_[t]->inc(tier_stats_[t].evictions);
  }
}

}  // namespace netmon::core
