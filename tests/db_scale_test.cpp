// Tiered-storage ingest soak (ctest labels: scale, storage): the 10k-path
// fabric's full path set hammered straight into a tiered
// MeasurementDatabase — wall-clock sustained ingest must reach at least
// 1M samples/sec (release builds) while the page pool stays inside its
// configured bound with zero overcommits, asserted both from StoreStats and
// from the SelfMib gauge/counter tables the way an external station would
// read them (DESIGN.md §13). Writes db-tier-stats.json for the CI artifact.

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "apps/fabric.hpp"
#include "core/measurement_db.hpp"
#include "obs/metrics.hpp"
#include "obs/self_mib.hpp"
#include "sim/simulator.hpp"
#include "snmp/mib.hpp"

namespace netmon {
namespace {

using core::MeasurementDatabase;
using core::Metric;
using core::MetricValue;
using core::PathId;
using core::TieredStorageConfig;
using sim::Duration;
using sim::TimePoint;

#if defined(__SANITIZE_ADDRESS__)
constexpr bool kSanitized = true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
constexpr bool kSanitized = true;
#else
constexpr bool kSanitized = false;
#endif
#else
constexpr bool kSanitized = false;
#endif

constexpr std::int64_t kMs = 1'000'000;

// Fetches a SelfMib gauge (milli-units) or counter value by metric name via
// a full table walk — the external-station view of the registry.
std::optional<std::int64_t> mib_gauge(const std::vector<snmp::VarBind>& walk,
                                      const std::string& name) {
  for (std::size_t i = 0; i < walk.size(); ++i) {
    if (walk[i].value.is<std::string>() &&
        walk[i].value.as<std::string>() == name &&
        i + 1 < walk.size() && walk[i + 1].value.is<std::int64_t>()) {
      return walk[i + 1].value.as<std::int64_t>();
    }
  }
  return std::nullopt;
}

std::optional<std::uint64_t> mib_counter(const std::vector<snmp::VarBind>& walk,
                                         const std::string& name) {
  for (std::size_t i = 0; i < walk.size(); ++i) {
    if (walk[i].value.is<std::string>() &&
        walk[i].value.as<std::string>() == name &&
        i + 1 < walk.size() && walk[i + 1].value.is<snmp::Counter64>()) {
      return walk[i + 1].value.as<snmp::Counter64>().value;
    }
  }
  return std::nullopt;
}

TEST(DbScaleSoak, TieredIngestSustainsRateWithinMemoryBound) {
  if constexpr (!obs::kCompiledIn) GTEST_SKIP() << "requires NETMON_OBS";

  // Realistic 10k-path working set: the fabric's interned path identities,
  // not synthetic keys.
  sim::Simulator sim;
  apps::FabricTestbed bed(sim, apps::FabricOptions{});
  ASSERT_EQ(bed.path_count(), 10000);

  TieredStorageConfig config;
  config.page_points = 16;
  config.rollup_factor = 8;
  config.tiers = 3;
  // 10k series × up to 3 open pages stays under the bound, leaving ~2.7k
  // sealed-page slots to churn: the soak exercises eviction continuously
  // without ever needing an overcommit.
  config.max_pages = 32768;

  obs::Registry registry;
  MeasurementDatabase db(config);
  db.attach_observability(registry, "db");

  std::vector<PathId> ids;
  ids.reserve(10000);
  for (std::size_t s = 0; s < 40; ++s) {
    for (std::size_t c = 0; c < 250; ++c) {
      ids.push_back(db.id_of(bed.path(s, c)));
    }
  }

  // 2000 samples per series (125 tier-0 rollovers each) in release; scaled
  // down under ASan where per-access overhead dominates.
  const std::size_t sweeps = kSanitized ? 200 : 2000;
  const std::size_t total = sweeps * ids.size();
  const auto start = std::chrono::steady_clock::now();
  for (std::size_t sweep = 0; sweep < sweeps; ++sweep) {
    const TimePoint at = TimePoint::from_nanos(
        static_cast<std::int64_t>(sweep + 1) * kMs);
    const double value = 1.0e6 + static_cast<double>(sweep % 97);
    for (const PathId id : ids) {
      db.record(id, Metric::kThroughput, MetricValue::of(value, at));
    }
  }
  const auto elapsed = std::chrono::duration_cast<std::chrono::nanoseconds>(
      std::chrono::steady_clock::now() - start);
  const double rate = static_cast<double>(total) /
                      (static_cast<double>(elapsed.count()) * 1e-9);

  const double required = kSanitized ? 1.0e5 : 1.0e6;
  EXPECT_GE(rate, required)
      << "sustained ingest " << rate << " samples/sec over " << total
      << " samples";

  // Memory bound from the engine's own accounting: the pool never grew past
  // the configured cap and never had to overcommit for open pages.
  const core::StoreStats& stats = db.tiered().stats();
  EXPECT_EQ(stats.samples, total);
  EXPECT_EQ(stats.overcommits, 0u);
  EXPECT_LE(stats.pool_pages, static_cast<std::uint64_t>(config.max_pages));
  EXPECT_EQ(stats.bytes, stats.pages_in_use * db.tiered().page_bytes());
  EXPECT_GT(db.tiered().evictions(), 0u);
  EXPECT_GT(db.tiered().tier_stats(1).rollovers, 0u);  // tiers actually fed

  // The same bound read the way a management station would: walk the
  // SelfMib tables and decode the db pool gauges / tier counters.
  snmp::MibTree mib;
  obs::SelfMib self(mib, registry);
  const auto binds = mib.walk(self.base());
  const auto pool_pages = mib_gauge(binds, "db.pool.pages");
  ASSERT_TRUE(pool_pages.has_value());
  EXPECT_LE(*pool_pages / 1000, static_cast<std::int64_t>(config.max_pages));
  const auto pool_overcommits = mib_gauge(binds, "db.pool.overcommits");
  ASSERT_TRUE(pool_overcommits.has_value());
  EXPECT_EQ(*pool_overcommits, 0);
  const auto rollovers = mib_counter(binds, "db.tier0.rollovers");
  ASSERT_TRUE(rollovers.has_value());
  EXPECT_EQ(*rollovers, db.tiered().tier_stats(0).rollovers);
  const auto evictions = mib_counter(binds, "db.tier0.evictions");
  ASSERT_TRUE(evictions.has_value());
  EXPECT_GT(*evictions, 0u);

  // Range-query sanity on the soaked data: the full horizon at a coarse
  // resolution is served without inventing evicted data.
  const auto result =
      db.query(ids.front(), Metric::kThroughput, TimePoint::from_nanos(0),
               TimePoint::from_nanos(static_cast<std::int64_t>(sweeps + 1) * kMs),
               Duration::ms(50));
  ASSERT_FALSE(result.points.empty());
  std::uint64_t covered = 0;
  for (const auto& p : result.points) covered += p.count;
  for (const auto& g : result.gaps) {
    for (const auto& p : result.points) {
      EXPECT_TRUE(p.last_ns < g.from_ns || p.first_ns >= g.to_ns);
    }
  }
  EXPECT_LE(covered, sweeps);
  EXPECT_GT(covered, 0u);

  // CI artifact: headline numbers + the registry snapshot.
  std::ofstream out("db-tier-stats.json");
  out << "{\n\"samples\": " << total << ",\n\"samples_per_sec\": " << rate
      << ",\n\"max_pages\": " << config.max_pages
      << ",\n\"pool_pages\": " << stats.pool_pages
      << ",\n\"pool_bytes\": " << stats.bytes
      << ",\n\"overcommits\": " << stats.overcommits
      << ",\n\"evictions\": " << db.tiered().evictions()
      << ",\n\"sanitized\": " << (kSanitized ? "true" : "false")
      << ",\n\"registry\": " << registry.export_json() << "\n}\n";
  ASSERT_TRUE(out.good());
}

}  // namespace
}  // namespace netmon
