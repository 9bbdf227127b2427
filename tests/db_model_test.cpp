// Model-based randomized test for the tiered storage engine under
// core::MeasurementDatabase (core/tiered_store.hpp, DESIGN.md §13): 50k
// mixed record / range-query / point-read operations per seed against a
// naive full-retention reference that keeps every raw sample. Storage
// engines fail silently — a wrong rollup still *looks* like data — so the
// oracle recomputes every returned point from raw samples: counts and
// min/max must be exact, means within float-reassociation tolerance, tier-0
// points must be single exact samples, and every in-range raw sample must
// be accounted for by a point or an explicit eviction gap. The same seed
// must produce bit-identical query results and the same eviction trace
// hash on a second run.
//
// The geometry is deliberately tiny (8-point pages, rollup 4, 128-page
// pool for 24 live series) so 40k records force thousands of rollovers and
// evictions — the paths a production-sized config would only hit after
// hours of ingest.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include "core/measurement_db.hpp"
#include "core/tiered_store.hpp"
#include "util/rng.hpp"

namespace netmon {
namespace {

using core::MeasurementDatabase;
using core::Metric;
using core::MetricValue;
using core::PathId;
using core::QueryGap;
using core::QueryPoint;
using core::TieredStorageConfig;
using core::TieredStore;
using core::TierQueryResult;
using sim::Duration;
using sim::TimePoint;

constexpr std::int64_t kUs = 1'000;
constexpr std::int64_t kMs = 1'000'000;

std::uint64_t mix(std::uint64_t a, std::uint64_t b) {
  std::uint64_t x = (a + 0x9E3779B97F4A7C15ull) * 0xBF58476D1CE4E5B9ull;
  x ^= b * 0x94D049BB133111EBull;
  x ^= x >> 27;
  x *= 0xFF51AFD7ED558CCDull;
  x ^= x >> 31;
  return x;
}

void fnv(std::uint64_t& h, std::uint64_t v) {
  h ^= v;
  h *= 1099511628211ull;
}

std::uint64_t bits(double d) {
  std::uint64_t u;
  std::memcpy(&u, &d, sizeof(u));
  return u;
}

// ---- Naive full-retention reference ---------------------------------------

struct RawSample {
  std::int64_t at = 0;
  double value = 0.0;
  bool valid = false;
};

// Recomputes one returned point from the raw samples in its time range.
// Per-series timestamps are strictly increasing, so time-range membership
// is exactly the positional membership the engine aggregated.
void check_point(const std::vector<RawSample>& raw, const QueryPoint& p) {
  std::uint64_t count = 0;
  std::uint64_t valid_count = 0;
  double mn = std::numeric_limits<double>::infinity();
  double mx = -std::numeric_limits<double>::infinity();
  double sum = 0.0;
  for (const RawSample& s : raw) {
    if (s.at < p.first_ns || s.at > p.last_ns) continue;
    ++count;
    if (!s.valid) continue;
    ++valid_count;
    mn = std::min(mn, s.value);
    mx = std::max(mx, s.value);
    sum += s.value;
  }
  ASSERT_EQ(p.count, count);
  ASSERT_EQ(p.valid_count, valid_count);
  if (p.tier == 0) {
    ASSERT_EQ(p.count, 1u);  // tier 0 points are raw samples
  }
  if (valid_count > 0) {
    // min/max are copied, never recomputed: exact at every tier.
    ASSERT_EQ(p.min, mn);
    ASSERT_EQ(p.max, mx);
    const double mean = sum / static_cast<double>(valid_count);
    ASSERT_NEAR(p.mean, mean, 1e-9 * std::max(1.0, std::fabs(mean)));
  }
}

void check_query(const std::vector<RawSample>& raw, std::int64_t t0,
                 std::int64_t t1, const TierQueryResult& r) {
  for (const QueryPoint& p : r.points) {
    ASSERT_LE(p.first_ns, p.last_ns);
    ASSERT_GE(p.last_ns, t0);  // every point overlaps the query range
    ASSERT_LE(p.first_ns, t1);
    ASSERT_NO_FATAL_FAILURE(check_point(raw, p));
  }
  for (const QueryGap& g : r.gaps) {
    ASSERT_LT(g.from_ns, g.to_ns);
    // A gap is "this was evicted everywhere": no retained point may
    // intersect it.
    for (const QueryPoint& p : r.points) {
      ASSERT_TRUE(p.last_ns < g.from_ns || p.first_ns >= g.to_ns);
    }
  }
  // Completeness: every raw sample in range is inside a point or a gap.
  for (const RawSample& s : raw) {
    if (s.at < t0 || s.at > t1) continue;
    bool covered = false;
    for (const QueryPoint& p : r.points) {
      if (s.at >= p.first_ns && s.at <= p.last_ns) {
        covered = true;
        break;
      }
    }
    for (const QueryGap& g : r.gaps) {
      if (s.at >= g.from_ns && s.at < g.to_ns) {
        covered = true;
        break;
      }
    }
    ASSERT_TRUE(covered) << "sample at " << s.at << " in [" << t0 << ", "
                         << t1 << "] neither returned nor reported evicted";
  }
}

// ---- One full operation stream --------------------------------------------

struct StreamOutcome {
  std::uint64_t result_hash = 1469598103934665603ull;
  std::uint64_t eviction_hash = 0;
  std::uint64_t evictions = 0;
  std::uint64_t queries = 0;
  std::uint64_t records = 0;
};

constexpr int kPaths = 8;
constexpr int kSeries = kPaths * static_cast<int>(core::kMetricCount);
constexpr int kOps = 50'000;

TieredStorageConfig tiny_config() {
  TieredStorageConfig config;
  config.page_points = 8;
  config.rollup_factor = 4;
  config.tiers = 3;
  // 24 live series × 3 tiers keep up to 72 open pages; 128 leaves 56 slots
  // of sealed history so eviction churns constantly.
  config.max_pages = 128;
  return config;
}

// Runs the seeded op stream against the database, checking every query
// against the reference. `verify` false skips the oracle (the second run
// only needs the outcome hashes for the determinism diff).
void run_stream(std::uint64_t seed, bool verify, StreamOutcome* outcome) {
  StreamOutcome& out = *outcome;
  util::Rng rng(seed);
  MeasurementDatabase db(tiny_config());
  std::vector<core::Path> paths;
  std::vector<PathId> ids;
  for (int i = 0; i < kPaths; ++i) {
    paths.push_back(core::Path(
        core::ProcessEndpoint{"model-server", net::IpAddr(10, 0, 0, 1), 7000},
        core::ProcessEndpoint{"model-client",
                              net::IpAddr(10, 0, 1, static_cast<std::uint8_t>(i)),
                              7000}));
    ids.push_back(db.id_of(paths.back()));
  }

  std::vector<std::vector<RawSample>> reference(kSeries);
  std::vector<std::int64_t> next_ns(kSeries, 0);
  std::int64_t horizon = 0;  // newest timestamp recorded anywhere

  for (int op = 0; op < kOps; ++op) {
    const std::int64_t roll = rng.uniform_int(0, 99);
    const int s = static_cast<int>(rng.uniform_int(0, kSeries - 1));
    const PathId id = ids[s / static_cast<int>(core::kMetricCount)];
    const auto metric =
        static_cast<Metric>(s % static_cast<int>(core::kMetricCount));
    if (roll < 80) {
      // Record: strictly increasing per-series timestamps, ~10% failed
      // samples (they count toward senescence but not min/mean/max).
      const std::uint64_t h = mix(seed ^ 0xDB, static_cast<std::uint64_t>(op));
      next_ns[s] += (1 + static_cast<std::int64_t>(h % 5)) * 100 * kUs;
      const std::int64_t at = next_ns[s];
      horizon = std::max(horizon, at);
      const double value = static_cast<double>((h >> 8) % 1'000'000) * 0.001;
      const bool valid = (h >> 3) % 10 != 0;
      const TimePoint tp = TimePoint::from_nanos(at);
      db.record(id, metric,
                valid ? MetricValue::of(value, tp) : MetricValue::failed(tp));
      reference[s].push_back(RawSample{at, value, valid});
      ++out.records;
    } else if (roll < 95) {
      // Range query: random window (occasionally inverted or empty) at a
      // random resolution, including far coarser than the oldest tier.
      std::int64_t t0 = rng.uniform_int(0, std::max<std::int64_t>(horizon, 1));
      std::int64_t t1 = t0 + rng.uniform_int(-2, 40) * 50 * kMs;
      if (rng.uniform_int(0, 19) == 0) std::swap(t0, t1);
      const std::int64_t resolution =
          rng.uniform_int(0, 1) == 0
              ? 0
              : (std::int64_t{1} << rng.uniform_int(0, 8)) * kMs;
      const TierQueryResult r =
          db.query(id, metric, TimePoint::from_nanos(t0),
                   TimePoint::from_nanos(t1), Duration::ns(resolution));
      ++out.queries;
      if (t1 < t0) {
        ASSERT_TRUE(r.points.empty() && r.gaps.empty()) << "inverted range";
      } else if (verify) {
        ASSERT_NO_FATAL_FAILURE(check_query(reference[s], t0, t1, r))
            << "op " << op << " series " << s;
      }
      fnv(out.result_hash, r.points.size());
      for (const QueryPoint& p : r.points) {
        fnv(out.result_hash, static_cast<std::uint64_t>(p.first_ns));
        fnv(out.result_hash, static_cast<std::uint64_t>(p.last_ns));
        fnv(out.result_hash, bits(p.min));
        fnv(out.result_hash, bits(p.max));
        fnv(out.result_hash, bits(p.mean));
        fnv(out.result_hash, p.count);
        fnv(out.result_hash, p.valid_count);
        fnv(out.result_hash, p.tier);
      }
      for (const QueryGap& g : r.gaps) {
        fnv(out.result_hash, static_cast<std::uint64_t>(g.from_ns));
        fnv(out.result_hash, static_cast<std::uint64_t>(g.to_ns));
      }
    } else if (verify) {
      // Point reads: the flat fast path must agree with the reference
      // regardless of what the tiered store does alongside it.
      const RawSample* last_valid = nullptr;
      for (const RawSample& raw : reference[s]) {
        if (raw.valid) last_valid = &raw;
      }
      const auto known = db.last_known(id, metric);
      if (last_valid == nullptr) {
        ASSERT_FALSE(known.has_value());
      } else {
        ASSERT_TRUE(known.has_value());
        ASSERT_EQ(known->value, last_valid->value);
        ASSERT_EQ(known->measured_at.nanos(), last_valid->at);
      }
      const auto age =
          db.senescence(id, metric, TimePoint::from_nanos(horizon));
      if (reference[s].empty()) {
        ASSERT_FALSE(age.has_value());
      } else {
        ASSERT_TRUE(age.has_value());
        ASSERT_EQ(age->nanos(), horizon - reference[s].back().at);
      }
    }
  }

  out.eviction_hash = db.tiered().eviction_hash();
  out.evictions = db.tiered().evictions();
}

TEST(DbModel, RandomOpsMatchFullRetentionReference) {
  for (const std::uint64_t seed : {1ull, 2ull}) {
    SCOPED_TRACE(seed);
    StreamOutcome first;
    run_stream(seed, /*verify=*/true, &first);
    if (HasFatalFailure()) return;
    // The stream must actually have exercised rollover and eviction.
    EXPECT_GT(first.records, static_cast<std::uint64_t>(kOps) / 2);
    EXPECT_GT(first.queries, 0u);
    EXPECT_GT(first.evictions, 0u);

    // Same seed ⇒ identical query results and identical eviction trace.
    StreamOutcome second;
    run_stream(seed, /*verify=*/false, &second);
    EXPECT_EQ(first.result_hash, second.result_hash);
    EXPECT_EQ(first.eviction_hash, second.eviction_hash);
    EXPECT_EQ(first.evictions, second.evictions);
  }
}

// ---- Property pins the random walk would only hit by luck -----------------

TieredStorageConfig small(std::size_t tiers, std::size_t max_pages) {
  TieredStorageConfig config;
  config.page_points = 8;
  config.rollup_factor = 4;
  config.tiers = tiers;
  config.max_pages = max_pages;
  return config;
}

TEST(DbProperty, EmptyAndUnknownRangesAreCleanlyEmpty) {
  TieredStore store(small(3, 64));
  EXPECT_TRUE(store.query(0, 0, 1'000, 0).points.empty());  // never recorded
  for (int i = 0; i < 20; ++i) {
    store.record(0, (i + 10) * kMs, static_cast<double>(i), true);
  }
  // Range entirely before the data: no data ever existed there — empty and
  // complete, not a gap.
  TierQueryResult before = store.query(0, 0, 5 * kMs, 0);
  EXPECT_TRUE(before.points.empty());
  EXPECT_TRUE(before.complete());
  // Range entirely after the data.
  TierQueryResult after = store.query(0, 100 * kMs, 200 * kMs, 0);
  EXPECT_TRUE(after.points.empty());
  EXPECT_TRUE(after.complete());
  // Inverted range.
  TierQueryResult inverted = store.query(0, 20 * kMs, 10 * kMs, 0);
  EXPECT_TRUE(inverted.points.empty());
  EXPECT_TRUE(inverted.gaps.empty());
}

TEST(DbProperty, QueryStraddlesRolloverAndTierBoundary) {
  // 100 samples at 1 ms spacing: tier 0 holds the newest, tier 1 the
  // rolled-up bulk. A tier-1-resolution query spanning everything must
  // stitch sealed tier-1 points with the open pages' fresh samples and
  // cover every sample exactly once in aggregate.
  TieredStore store(small(3, 1024));
  constexpr int kSamples = 100;
  for (int i = 0; i < kSamples; ++i) {
    store.record(7, (1 + i) * kMs, static_cast<double>(i), true);
  }
  const std::size_t tier = store.select_tier(7, 4 * kMs);
  EXPECT_EQ(tier, 1u);
  const TierQueryResult r = store.query(7, 0, 200 * kMs, 4 * kMs);
  EXPECT_TRUE(r.complete());  // nothing was evicted
  std::uint64_t total = 0;
  bool saw_coarse = false;
  bool saw_fine = false;
  std::int64_t prev_first = std::numeric_limits<std::int64_t>::min();
  for (const QueryPoint& p : r.points) {
    total += p.count;
    saw_coarse |= p.tier >= 1;
    saw_fine |= p.tier == 0;
    EXPECT_GE(p.first_ns, prev_first);  // time-ordered output
    prev_first = p.first_ns;
  }
  EXPECT_EQ(total, static_cast<std::uint64_t>(kSamples));
  EXPECT_TRUE(saw_coarse);
  EXPECT_TRUE(saw_fine);  // the not-yet-rolled-up tail came from tier 0
}

TEST(DbProperty, ResolutionCoarserThanOldestTierServesCoarsest) {
  TieredStore store(small(3, 1024));
  for (int i = 0; i < 512; ++i) {
    store.record(0, (1 + i) * kMs, static_cast<double>(i % 7), true);
  }
  // 1 ms interval, rollup 4: tier 2 spans ~16 ms per point. Ask for 1000x
  // coarser — selection must cap at the coarsest tier, not walk off the
  // ladder, and the query must still cover everything.
  EXPECT_EQ(store.select_tier(0, 16'000 * kMs), 2u);
  const TierQueryResult r = store.query(0, 0, 1'000 * kMs, 16'000 * kMs);
  EXPECT_TRUE(r.complete());
  std::uint64_t total = 0;
  for (const QueryPoint& p : r.points) total += p.count;
  EXPECT_EQ(total, 512u);
}

TEST(DbProperty, EvictionLeavesTruthfulGapNotInterpolation) {
  // Single tier, 4-page pool: old pages fall off the end of the world.
  TieredStore store(small(1, 4));
  constexpr int kSamples = 200;
  for (int i = 0; i < kSamples; ++i) {
    store.record(0, (1 + i) * kMs, 1.0, true);
  }
  ASSERT_GT(store.evictions(), 0u);
  const TierQueryResult r = store.query(0, 0, 1'000 * kMs, 0);
  ASSERT_EQ(r.gaps.size(), 1u);
  EXPECT_FALSE(r.complete());
  // The gap starts at the first sample ever recorded and ends exactly
  // where retained data begins.
  EXPECT_EQ(r.gaps[0].from_ns, 1 * kMs);
  ASSERT_FALSE(r.points.empty());
  EXPECT_EQ(r.gaps[0].to_ns, r.points.front().first_ns);
  // Retained points + evicted range account for every sample: no value was
  // invented for the evicted span.
  std::uint64_t retained = 0;
  for (const QueryPoint& p : r.points) {
    retained += p.count;
    EXPECT_GE(p.first_ns, r.gaps[0].to_ns);
  }
  EXPECT_EQ(retained + store.tier_stats(0).evicted_points,
            static_cast<std::uint64_t>(kSamples));
}

TEST(DbProperty, EvictionPrefersRawTiersAndOldestPages) {
  TieredStore store(small(2, 8));
  for (int i = 0; i < 400; ++i) {
    store.record(0, (1 + i) * kMs, 1.0, true);
  }
  // Tier 0 must bear all evictions while tier 1 still has sealed pages to
  // give — the aggregate outlives the raw data it summarizes.
  EXPECT_GT(store.tier_stats(0).evictions, 0u);
  const TierQueryResult r = store.query(0, 0, 1'000 * kMs, 4 * kMs);
  std::uint64_t covered = 0;
  for (const QueryPoint& p : r.points) covered += p.count;
  for (const QueryGap& g : r.gaps) {
    for (const QueryPoint& p : r.points) {
      EXPECT_TRUE(p.last_ns < g.from_ns || p.first_ns >= g.to_ns);
    }
  }
  // Tier-1 rollups keep the early history readable even though its raw
  // pages are long gone: only samples whose rollup page was *also* evicted
  // (rollup_factor raw samples per evicted tier-1 point) may be missing.
  EXPECT_GE(covered + store.tier_stats(1).evicted_points *
                          store.config().rollup_factor,
            400u);
}

TEST(DbProperty, SelectTierFollowsMeanIntervalRule) {
  TieredStore store(small(3, 256));
  for (int i = 0; i < 64; ++i) {
    store.record(3, i * kMs, 0.0, true);  // exactly 1 ms mean interval
  }
  EXPECT_EQ(store.select_tier(3, 0), 0u);        // finest requested
  EXPECT_EQ(store.select_tier(3, 1 * kMs), 0u);  // tier 1 spans 4 ms: too coarse
  EXPECT_EQ(store.select_tier(3, 4 * kMs), 1u);
  EXPECT_EQ(store.select_tier(3, 15 * kMs), 1u);  // tier 2 spans 16 ms
  EXPECT_EQ(store.select_tier(3, 16 * kMs), 2u);
  EXPECT_EQ(store.select_tier(3, 1'000'000 * kMs), 2u);  // capped at coarsest
}

TEST(DbProperty, DisabledStoreIsInert) {
  TieredStorageConfig config;
  config.enabled = false;
  MeasurementDatabase db(config);
  const core::Path path(
      core::ProcessEndpoint{"s", net::IpAddr(10, 0, 0, 1), 1},
      core::ProcessEndpoint{"c", net::IpAddr(10, 0, 0, 2), 1});
  const PathId id = db.id_of(path);
  db.record(id, Metric::kThroughput,
            MetricValue::of(5.0, TimePoint::from_nanos(kMs)));
  EXPECT_EQ(db.tiered().stats().samples, 0u);
  EXPECT_EQ(db.tiered().stats().pages_in_use, 0u);
  EXPECT_TRUE(db.query(id, Metric::kThroughput, TimePoint::from_nanos(0),
                       TimePoint::from_nanos(10 * kMs), Duration::ns(0))
                  .points.empty());
  // The flat fast path is untouched by the disabled store.
  EXPECT_TRUE(db.last_known(id, Metric::kThroughput).has_value());
}

TEST(DbProperty, InvalidConfigsAreRejected) {
  TieredStorageConfig bad;
  bad.page_points = 10;  // not a multiple of rollup_factor 8
  EXPECT_THROW(TieredStore{bad}, std::invalid_argument);
  bad = TieredStorageConfig{};
  bad.tiers = 0;
  EXPECT_THROW(TieredStore{bad}, std::invalid_argument);
  bad = TieredStorageConfig{};
  bad.tiers = TieredStore::kMaxTiers + 1;
  EXPECT_THROW(TieredStore{bad}, std::invalid_argument);
  bad = TieredStorageConfig{};
  bad.rollup_factor = 1;
  EXPECT_THROW(TieredStore{bad}, std::invalid_argument);
  bad = TieredStorageConfig{};
  bad.rollup_factor = 1;
  bad.tiers = 1;  // single tier never rolls up: factor is irrelevant
  EXPECT_NO_THROW(TieredStore{bad});
}

TEST(DbProperty, InvalidSamplesCountButNeverShapeAggregates) {
  TieredStore store(small(2, 64));
  for (int i = 0; i < 16; ++i) {
    // Alternate valid 2.0 with failed probes carrying garbage values.
    store.record(0, (1 + i) * kMs, i % 2 == 0 ? 2.0 : 999.0, i % 2 == 0);
  }
  const TierQueryResult r = store.query(0, 0, 100 * kMs, 4 * kMs);
  std::uint64_t count = 0;
  std::uint64_t valid = 0;
  for (const QueryPoint& p : r.points) {
    count += p.count;
    valid += p.valid_count;
    if (p.valid_count > 0) {
      EXPECT_EQ(p.min, 2.0);
      EXPECT_EQ(p.max, 2.0);
      EXPECT_EQ(p.mean, 2.0);
    }
  }
  EXPECT_EQ(count, 16u);  // failures still count toward sample accounting
  EXPECT_EQ(valid, 8u);
}

}  // namespace
}  // namespace netmon
