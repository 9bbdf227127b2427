// Tests for the self-observability layer: P² streaming-quantile accuracy
// against exact quantiles on seeded streams, registry snapshot determinism
// (same seed ⇒ byte-identical export), the event log, Scope attachment, the
// self-MIB group, and — most importantly — the passivity guarantee:
// attaching a registry to the simulator leaves the event-core golden trace
// hash unchanged.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/lane_scheduler.hpp"
#include "core/measurement_db.hpp"
#include "core/sensor_director.hpp"
#include "obs/metrics.hpp"
#include "obs/quantile.hpp"
#include "obs/self_mib.hpp"
#include "sim/simulator.hpp"
#include "snmp/mib.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace netmon::obs {
namespace {

// ---------------------------------------------------------------------------
// P² quantile estimator

TEST(P2Quantile, RejectsOutOfRangeProbability) {
  EXPECT_THROW(P2Quantile(0.0), std::invalid_argument);
  EXPECT_THROW(P2Quantile(1.0), std::invalid_argument);
  EXPECT_THROW(P2Quantile(-0.5), std::invalid_argument);
  EXPECT_NO_THROW(P2Quantile(0.5));
}

TEST(P2Quantile, ExactBelowFiveSamples) {
  P2Quantile med(0.5);
  EXPECT_EQ(med.value(), 0.0);  // empty
  med.add(30.0);
  EXPECT_EQ(med.value(), 30.0);
  med.add(10.0);
  med.add(20.0);
  EXPECT_EQ(med.value(), 20.0);  // true median of {10,20,30}
  med.add(40.0);
  EXPECT_EQ(med.count(), 4u);
}

// The estimator must track exact quantiles within a few percent of the
// sample range on well-behaved distributions. These bounds are loose enough
// to be robust to the seed, tight enough to catch a broken marker update.
void expect_close_quantiles(util::Rng& rng,
                            const std::function<double(util::Rng&)>& draw,
                            double tolerance_frac) {
  P2Quantile p50(0.5), p90(0.9), p99(0.99);
  util::SampleSet exact;
  for (int i = 0; i < 20000; ++i) {
    const double x = draw(rng);
    p50.add(x);
    p90.add(x);
    p99.add(x);
    exact.add(x);
  }
  const double range = exact.max() - exact.min();
  EXPECT_NEAR(p50.value(), exact.quantile(0.5), tolerance_frac * range);
  EXPECT_NEAR(p90.value(), exact.quantile(0.9), tolerance_frac * range);
  EXPECT_NEAR(p99.value(), exact.quantile(0.99), tolerance_frac * range);
}

TEST(P2Quantile, TracksUniformStream) {
  util::Rng rng(42);
  expect_close_quantiles(
      rng, [](util::Rng& r) { return r.uniform(0.0, 1000.0); }, 0.02);
}

TEST(P2Quantile, TracksExponentialStream) {
  util::Rng rng(7);
  expect_close_quantiles(
      rng, [](util::Rng& r) { return r.exponential(50.0); }, 0.05);
}

TEST(P2Quantile, TracksNormalStream) {
  util::Rng rng(1998);
  expect_close_quantiles(
      rng, [](util::Rng& r) { return r.normal(100.0, 15.0); }, 0.05);
}

TEST(P2Quantile, DeterministicForIdenticalStreams) {
  P2Quantile a(0.9), b(0.9);
  util::Rng ra(3), rb(3);
  for (int i = 0; i < 5000; ++i) {
    a.add(ra.exponential(10.0));
    b.add(rb.exponential(10.0));
  }
  EXPECT_EQ(a.value(), b.value());
  EXPECT_EQ(a.count(), b.count());
}

TEST(QuantileSketch, ExactScalarStatistics) {
  QuantileSketch s;
  EXPECT_EQ(s.min(), 0.0);
  EXPECT_EQ(s.max(), 0.0);
  EXPECT_EQ(s.mean(), 0.0);
  for (double x : {5.0, 1.0, 9.0, 3.0}) s.add(x);
  EXPECT_EQ(s.count(), 4u);
  EXPECT_EQ(s.sum(), 18.0);
  EXPECT_EQ(s.min(), 1.0);
  EXPECT_EQ(s.max(), 9.0);
  EXPECT_EQ(s.mean(), 4.5);
  // quantile() routes to the nearest tracked estimator.
  EXPECT_EQ(s.quantile(0.5), s.p50());
  EXPECT_EQ(s.quantile(0.9), s.p90());
  EXPECT_EQ(s.quantile(0.99), s.p99());
}

// ---------------------------------------------------------------------------
// Registry

TEST(Registry, HandlesAreStableAndGetOrCreate) {
  Registry reg;
  Counter& c1 = reg.counter("x.count");
  Counter& c2 = reg.counter("x.count");
  EXPECT_EQ(&c1, &c2);
  c1.inc(3);
  EXPECT_EQ(c2.value(), 3u);
  // Node-based storage: creating more metrics must not move the handle.
  for (int i = 0; i < 100; ++i) reg.counter("y." + std::to_string(i));
  EXPECT_EQ(&reg.counter("x.count"), &c1);
  EXPECT_EQ(reg.size(), 101u);
}

TEST(Registry, KindClashThrows) {
  Registry reg;
  reg.counter("m");
  EXPECT_THROW(reg.gauge("m"), std::logic_error);
  EXPECT_THROW(reg.histogram("m"), std::logic_error);
  EXPECT_THROW(reg.gauge_fn("m", [] { return 0.0; }), std::logic_error);
}

TEST(Registry, GaugeFnReRegisterReplaces) {
  Registry reg;
  reg.gauge_fn("g", [] { return 1.0; });
  reg.gauge_fn("g", [] { return 2.0; });
  const auto snap = reg.snapshot();
  ASSERT_EQ(snap.size(), 1u);
  EXPECT_EQ(snap[0].value, 2.0);
}

TEST(Registry, RemovePrefixDetachesOnlyThatComponent) {
  Registry reg;
  reg.counter("sim.schedules");
  reg.histogram("sim.queue_depth");
  reg.gauge_fn("sim.now_seconds", [] { return 0.0; });
  reg.counter("director.launches");
  reg.remove_prefix("sim.");
  EXPECT_FALSE(reg.contains("sim.schedules"));
  EXPECT_FALSE(reg.contains("sim.queue_depth"));
  EXPECT_FALSE(reg.contains("sim.now_seconds"));
  EXPECT_TRUE(reg.contains("director.launches"));
  EXPECT_EQ(reg.size(), 1u);
}

TEST(Registry, SnapshotIsNameSortedAcrossKinds) {
  Registry reg;
  reg.histogram("c.hist");
  reg.counter("a.count");
  reg.gauge("b.gauge");
  const auto snap = reg.snapshot();
  ASSERT_EQ(snap.size(), 3u);
  EXPECT_EQ(snap[0].name, "a.count");
  EXPECT_EQ(snap[1].name, "b.gauge");
  EXPECT_EQ(snap[2].name, "c.hist");
}

// Snapshot determinism: the same seeded workload must export the identical
// byte string — the property that makes obs snapshots diffable in CI.
std::string seeded_export(std::uint64_t seed) {
  Registry reg;
  util::Rng rng(seed);
  Counter& events = reg.counter("run.events");
  Histogram& latency = reg.histogram("run.latency_us");
  Gauge& level = reg.gauge("run.level");
  for (int i = 0; i < 4000; ++i) {
    events.inc();
    latency.observe(rng.exponential(250.0));
    level.set(rng.uniform(0.0, 10.0));
  }
  reg.gauge_fn("run.events_twice",
               [&events] { return static_cast<double>(events.value()) * 2; });
  return reg.export_json();
}

TEST(Registry, ExportIsByteIdenticalPerSeed) {
  const std::string a = seeded_export(1234);
  const std::string b = seeded_export(1234);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, seeded_export(1235));
}

TEST(Registry, ExportFormatsContainEveryMetric) {
  Registry reg;
  reg.counter("n.count").inc(7);
  reg.gauge("n.gauge").set(2.5);
  reg.histogram("n.hist").observe(4.0);
  const std::string text = reg.export_text();
  const std::string json = reg.export_json();
  for (const char* name : {"n.count", "n.gauge", "n.hist"}) {
    EXPECT_NE(text.find(name), std::string::npos) << text;
    EXPECT_NE(json.find(name), std::string::npos) << json;
  }
  EXPECT_NE(text.find('7'), std::string::npos);
  EXPECT_NE(json.find("2.5"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Trace sink

TEST(TraceSink, BoundedRingKeepsNewestAndCountsDrops) {
  TraceSink sink(4);
  for (int i = 0; i < 10; ++i) {
    sink.append(TraceEvent{i, "cat", "ev" + std::to_string(i), i * 1.0});
  }
  EXPECT_EQ(sink.emitted(), 10u);
  EXPECT_EQ(sink.dropped(), 6u);
  EXPECT_EQ(sink.capacity(), 4u);
  const auto events = sink.records();
  ASSERT_EQ(events.size(), 4u);
  // Oldest-first among the retained tail.
  EXPECT_EQ(events.front().name, "ev6");
  EXPECT_EQ(events.back().name, "ev9");
  EXPECT_EQ(events.back().at_ns, 9);
  EXPECT_EQ(sink.back().name, "ev9");
}

TEST(TraceSink, RegistryForwardsOnlyWhenAttached) {
  Registry reg;
  reg.emit(1, "cat", "dropped-on-floor", 0.0);  // no sink: must be a no-op
  TraceSink sink(8);
  reg.set_trace(&sink);
  reg.emit(2, "cat", "kept", 1.0);
  reg.set_trace(nullptr);
  reg.emit(3, "cat", "dropped-again", 2.0);
  ASSERT_EQ(sink.emitted(), 1u);
  EXPECT_EQ(sink.records().front().name, "kept");
}

// The digest folds in every appended record, dropped ones included: two
// logs with the same retained tail but different history digest apart, and
// the same history digests alike whatever the capacity.
TEST(EventLog, DigestCoversDroppedRecords) {
  auto fill = [](TraceSink& log, const std::string& first) {
    log.append(TraceEvent{0, "cat", first, 0.0});
    for (int i = 1; i < 6; ++i) {
      log.append(TraceEvent{i, "cat", "ev" + std::to_string(i), 1.0 * i});
    }
  };
  TraceSink a(2), b(2), wide(64);
  fill(a, "ev0");
  fill(b, "other");
  fill(wide, "ev0");
  ASSERT_EQ(a.dropped(), 4u);
  ASSERT_EQ(wide.dropped(), 0u);
  // Same retained records ...
  ASSERT_EQ(a.records().size(), 2u);
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(a.records()[i].name, b.records()[i].name);
    EXPECT_EQ(a.records()[i].at_ns, b.records()[i].at_ns);
  }
  // ... but the dropped first record differs, and the digest sees it.
  EXPECT_NE(a.digest(), b.digest());
  EXPECT_EQ(a.digest(), wide.digest());
  // A fresh log digests to the FNV-1a offset basis.
  EXPECT_EQ(TraceSink(1).digest(), 1469598103934665603ull);
  EXPECT_TRUE(TraceSink(1).empty());
}

// ---------------------------------------------------------------------------
// Passivity: instrumentation must not perturb simulation order. This is the
// event-core golden-trace workload from tests/event_core_test.cpp, run with
// a registry attached; the hash must match the seed implementation exactly.

constexpr std::uint64_t kGoldenTraceHash = 0x1648e4f5d335438full;

std::uint64_t instrumented_trace_hash(Registry* registry) {
  sim::Simulator s;
  if (registry != nullptr) s.attach_observability(*registry);
  std::uint64_t h = 1469598103934665603ull;  // FNV-1a offset basis
  auto mix = [&h, &s](std::uint64_t marker) {
    h ^= marker;
    h *= 1099511628211ull;
    h ^= static_cast<std::uint64_t>(s.now().nanos());
    h *= 1099511628211ull;
  };

  auto p30 = s.schedule_periodic(sim::Duration::ms(30), [&] { mix(1); });
  auto p10 = s.schedule_periodic(sim::Duration::ms(10), [&] { mix(2); });
  auto p15 = s.schedule_periodic(sim::Duration::ms(15), [&] { mix(3); });

  for (int i = 0; i < 40; ++i) {
    s.schedule_in(sim::Duration::ms(3 * ((i * 7) % 31)), [&mix, i] {
      mix(100 + static_cast<std::uint64_t>(i));
    });
  }

  sim::EventHandle doomed =
      s.schedule_in(sim::Duration::ms(55), [&] { mix(999); });
  s.schedule_in(sim::Duration::ms(42), [&] {
    mix(4);
    doomed.cancel();
    s.schedule_in(sim::Duration::ms(1), [&] { mix(5); });
    s.schedule_at(s.now(), [&] { mix(6); });
  });
  s.schedule_in(sim::Duration::ms(65), [&] {
    mix(7);
    p30.cancel();
  });
  auto self_cancel = std::make_shared<sim::EventHandle>();
  *self_cancel = s.schedule_periodic(sim::Duration::ms(7), [&, self_cancel] {
    mix(9);
    if (s.now().nanos() >= sim::Duration::ms(21).nanos()) {
      self_cancel->cancel();
    }
  });

  s.run_until(sim::TimePoint::from_nanos(0) + sim::Duration::ms(80));
  p10.cancel();
  p15.cancel();
  s.run();
  mix(static_cast<std::uint64_t>(s.events_executed()));
  return h;
}

TEST(Passivity, GoldenTraceHashUnchangedWithRegistryAttached) {
  EXPECT_EQ(instrumented_trace_hash(nullptr), kGoldenTraceHash);
  Registry reg;
  EXPECT_EQ(instrumented_trace_hash(&reg), kGoldenTraceHash);
  // The simulator detached itself on destruction; nothing dangles.
  EXPECT_EQ(reg.size(), 0u);
}

TEST(Passivity, SimulatorDetachesOnDestruction) {
  Registry reg;
  {
    sim::Simulator s;
    s.attach_observability(reg, "scoped");
    if constexpr (kCompiledIn) {
      s.schedule_in(sim::Duration::ms(1), [] {});
      s.run();
      EXPECT_TRUE(reg.contains("scoped.schedules"));
    }
  }
  EXPECT_EQ(reg.size(), 0u);  // registry safely outlives the simulator
}

// A registry destroyed while components are still attached. The director's
// Scope nests over its sequencer's and database's; every one of them must
// skip its removal once the registry is gone (under the sanitize preset a
// slip is a heap-use-after-free).
TEST(Passivity, RegistryDestroyedBeforeAttachedComponents) {
  auto sim = std::make_unique<sim::Simulator>();
  auto director = std::make_unique<core::SensorDirector>(*sim);
  auto reg = std::make_unique<Registry>();
  sim->attach_observability(*reg, "sim");
  director->attach_observability(*reg, "director");
  if constexpr (kCompiledIn) {
    EXPECT_TRUE(reg->contains("sim.schedules"));
    EXPECT_TRUE(reg->contains("director.sequencer.in_flight"));
    EXPECT_TRUE(reg->contains("director.db.records_written"));
  }
  sim->schedule_in(sim::Duration::ms(1), [] {});
  sim->run();
  reg.reset();
  director.reset();
  sim.reset();
}

TEST(Scope, ReattachMovesMetricsAndScopesNeverOverreach) {
  if (!kCompiledIn) GTEST_SKIP() << "observability compiled out";
  Registry reg;
  reg.counter("simx.unrelated");  // shares "sim" but not "sim."
  {
    sim::Simulator s;
    s.attach_observability(reg, "sim");
    EXPECT_TRUE(reg.contains("sim.schedules"));
    s.attach_observability(reg, "sim2");
    EXPECT_FALSE(reg.contains("sim.schedules"));
    EXPECT_TRUE(reg.contains("sim2.schedules"));
    s.attach_observability(reg, "sim2");  // same prefix: still registered
    // Updates land on the new handles, never the removed ones.
    s.schedule_in(sim::Duration::ms(1), [] {});
    s.run();
    EXPECT_EQ(reg.counter("sim2.schedules").value(), 1u);
    EXPECT_FALSE(reg.contains("sim.schedules"));
  }
  EXPECT_EQ(reg.size(), 1u);
  EXPECT_TRUE(reg.contains("simx.unrelated"));

  Scope detached;
  EXPECT_FALSE(detached.attached());
  EXPECT_EQ(detached.counter("x"), nullptr);
  Scope moved_from(reg, "m");
  moved_from.counter("c")->inc();
  Scope owner(std::move(moved_from));
  EXPECT_FALSE(moved_from.attached());  // NOLINT(bugprone-use-after-move)
  EXPECT_TRUE(owner.attached());
  owner = Scope();
  EXPECT_FALSE(reg.contains("m.c"));
}

// ---------------------------------------------------------------------------
// Self-MIB group

TEST(SelfMib, PublishesRegistryAndRefreshes) {
  Registry reg;
  reg.counter("a.events").inc(41);
  reg.gauge("a.level").set(1.5);
  reg.histogram("a.lat").observe(2.0);

  snmp::MibTree mib;
  SelfMib self(mib, reg);
  const snmp::Oid base = self.base();

  // selfMetricCount reads live registry size.
  EXPECT_EQ(mib.get(base.with({1, 0})), snmp::SnmpValue(snmp::Gauge32{3}));

  // Counter row 1: name + Counter64 value resolved by name at read time.
  EXPECT_EQ(mib.get(base.with({2, 1, 1})), snmp::SnmpValue("a.events"));
  reg.counter("a.events").inc();  // live: no refresh needed for the value
  EXPECT_EQ(mib.get(base.with({2, 1, 2})),
            snmp::SnmpValue(snmp::Counter64{42}));

  // Gauge row: milli-units fixed point.
  EXPECT_EQ(mib.get(base.with({3, 1, 2})),
            snmp::SnmpValue(std::int64_t{1500}));

  // Histogram row: count as Counter64.
  EXPECT_EQ(mib.get(base.with({4, 1, 2})),
            snmp::SnmpValue(snmp::Counter64{1}));

  // Metrics added later appear after refresh().
  reg.counter("b.more").inc(5);
  EXPECT_TRUE(mib.get(base.with({2, 2, 2})).is_exception());
  self.refresh();
  EXPECT_EQ(mib.get(base.with({2, 2, 1})), snmp::SnmpValue("b.more"));

  // A removed metric reads as zero, never dangles.
  reg.remove_prefix("a.");
  EXPECT_EQ(mib.get(base.with({2, 1, 2})),
            snmp::SnmpValue(snmp::Counter64{0}));

  const std::size_t before = mib.size();
  EXPECT_GT(before, 0u);
  {
    SelfMib scoped(mib, reg, base.with({99}));
    EXPECT_GT(mib.size(), before);
  }
  EXPECT_EQ(mib.size(), before);  // destructor removed its subtree
}

// ---------------------------------------------------------------------------
// Per-series retention horizons (DESIGN.md §14 / ROADMAP follow-on): the
// tiered store's oldest retained timestamp per series, surfaced as registry
// gauges and thus walkable through the SelfMib like any other self-metric.

TEST(RetentionHorizons, PublishedPerSeriesAndVisibleInSelfMib) {
  if (!kCompiledIn) GTEST_SKIP() << "observability compiled out";
  core::TieredStorageConfig storage;
  storage.page_points = 8;
  storage.rollup_factor = 4;
  storage.tiers = 2;
  Registry reg;
  core::MeasurementDatabase db(16, storage);
  const core::Path path(
      core::ProcessEndpoint{"s", net::IpAddr(10, 9, 0, 1), 1},
      core::ProcessEndpoint{"c", net::IpAddr(10, 9, 0, 2), 1});
  for (int i = 0; i < 20; ++i) {
    db.record(path, core::Metric::kThroughput,
              core::MetricValue::of(i, sim::TimePoint::from_nanos(
                                           i * 1'000'000'000ll)));
  }

  db.publish_retention_horizons(reg, "db.retention");
  const std::string name = "db.retention." + path.to_string() + "." +
                           core::to_string(core::Metric::kThroughput) +
                           ".retention_horizon_ns";
  ASSERT_TRUE(reg.contains(name));

  // The gauge reads the store's live horizon.
  const core::PathId id = db.find(path);
  ASSERT_NE(id, core::kInvalidPathId);
  const auto horizon = db.tiered().retention_horizon(static_cast<std::uint32_t>(
      db.series_slot(id, core::Metric::kThroughput)));
  ASSERT_TRUE(horizon.has_value());
  double published = -2.0;
  for (const auto& entry : reg.snapshot()) {
    if (entry.name == name) published = entry.value;
  }
  EXPECT_DOUBLE_EQ(published, static_cast<double>(*horizon));

  // Walkable via the SelfMib like every other registry metric.
  snmp::MibTree mib;
  SelfMib self(mib, reg);
  bool seen = false;
  for (const auto& bind : mib.walk(self.base())) {
    if (bind.value == snmp::SnmpValue(name)) seen = true;
  }
  EXPECT_TRUE(seen);

  // Never-sampled metrics of the same path get no gauge; a series with no
  // tiered data reports -1 instead of a stale number.
  const std::string latency_name =
      "db.retention." + path.to_string() + "." +
      core::to_string(core::Metric::kOneWayLatency) + ".retention_horizon_ns";
  EXPECT_FALSE(reg.contains(latency_name));
}

TEST(RetentionHorizons, DisabledTiersReadMinusOne) {
  if (!kCompiledIn) GTEST_SKIP() << "observability compiled out";
  core::TieredStorageConfig storage;
  storage.enabled = false;
  Registry reg;
  core::MeasurementDatabase db(16, storage);
  const core::Path path(
      core::ProcessEndpoint{"s", net::IpAddr(10, 9, 1, 1), 1},
      core::ProcessEndpoint{"c", net::IpAddr(10, 9, 1, 2), 1});
  db.record(path, core::Metric::kReachability,
            core::MetricValue::of(1.0, sim::TimePoint::from_nanos(1)));
  db.publish_retention_horizons(reg, "db.retention");
  const std::string name = "db.retention." + path.to_string() + "." +
                           core::to_string(core::Metric::kReachability) +
                           ".retention_horizon_ns";
  ASSERT_TRUE(reg.contains(name));
  for (const auto& entry : reg.snapshot()) {
    if (entry.name == name) EXPECT_DOUBLE_EQ(entry.value, -1.0);
  }
}

// ---------------------------------------------------------------------------
// Scheduler wake-up telemetry (DESIGN.md §15): the incremental admission
// gate publishes its entire re-test cost as wake_tests / futile_wakeups
// gauges, so the old 32.6M-futile-scan class of regression is assertable
// straight from telemetry — and walkable via the SelfMib like any gauge.

TEST(SchedulerWakeupGauges, PublishedInRegistryAndSelfMib) {
  if (!kCompiledIn) GTEST_SKIP() << "observability compiled out";
  core::SchedulerConfig cfg;
  cfg.lanes = 3;
  cfg.link_disjoint = true;
  Registry reg;
  {
    core::LaneScheduler sched(cfg);
    sched.attach_observability(reg, "seq");

    // Holders on a trunk and a side link, two waiters queued on the trunk.
    // Freeing the trunk wakes only its lowest-seq waiter (1 wake test); that
    // waiter blocks on the side link — 1 futile wakeup — and its baton wakes
    // the next trunk waiter (2nd wake test), which admits.
    const core::LinkKey trunk = 42;
    const core::LinkKey side = 7;
    std::vector<core::LaneScheduler::Done> running;
    auto submit = [&](std::vector<core::LinkKey> footprint) {
      core::ProbeProfile p;
      p.footprint = std::move(footprint);
      sched.enqueue(
          [&running](core::LaneScheduler::Done done) {
            running.push_back(std::move(done));
          },
          p);
    };
    submit({trunk});        // holder A
    submit({side});         // holder B
    submit({trunk, side});  // W1: woken by the trunk, re-parks on side
    submit({trunk});        // W2: admitted via W1's baton
    ASSERT_EQ(running.size(), 2u);
    EXPECT_EQ(sched.parked_on_links(), 2u);
    auto done = std::move(running.front());  // holder A: frees the trunk
    running.erase(running.begin());
    done();

    EXPECT_EQ(sched.scheduler_stats().wake_tests, 2u);
    EXPECT_EQ(sched.scheduler_stats().futile_wakeups, 1u);

    ASSERT_TRUE(reg.contains("seq.wake_tests"));
    ASSERT_TRUE(reg.contains("seq.futile_wakeups"));
    ASSERT_TRUE(reg.contains("seq.parked_links"));
    ASSERT_TRUE(reg.contains("seq.parked_budget"));
    double wake = -1.0, futile = -1.0, parked = -1.0;
    for (const auto& entry : reg.snapshot()) {
      if (entry.name == "seq.wake_tests") wake = entry.value;
      if (entry.name == "seq.futile_wakeups") futile = entry.value;
      if (entry.name == "seq.parked_links") parked = entry.value;
    }
    EXPECT_DOUBLE_EQ(wake, 2.0);
    EXPECT_DOUBLE_EQ(futile, 1.0);
    EXPECT_DOUBLE_EQ(parked, 1.0);

    // Visible through the SelfMib gauge table by name, like any self-metric.
    snmp::MibTree mib;
    SelfMib self(mib, reg);
    bool wake_row = false, futile_row = false;
    for (const auto& bind : mib.walk(self.base())) {
      if (bind.value == snmp::SnmpValue("seq.wake_tests")) wake_row = true;
      if (bind.value == snmp::SnmpValue("seq.futile_wakeups")) futile_row = true;
    }
    EXPECT_TRUE(wake_row);
    EXPECT_TRUE(futile_row);

    while (!running.empty()) {
      auto d = std::move(running.front());
      running.erase(running.begin());
      d();
    }
    EXPECT_TRUE(sched.idle());
    sched.check_consistency();
  }
  // The scheduler's lifetime ended with the block; its Scope removed it.
  EXPECT_FALSE(reg.contains("seq.wake_tests"));
}

TEST(SelfMib, WalkIsOrderedAndTerminates) {
  Registry reg;
  reg.counter("w.one").inc(1);
  reg.counter("w.two").inc(2);
  snmp::MibTree mib;
  SelfMib self(mib, reg);
  const auto binds = mib.walk(self.base());
  ASSERT_GE(binds.size(), 5u);  // count + 2×(name,value)
  for (std::size_t i = 1; i < binds.size(); ++i) {
    EXPECT_TRUE(binds[i - 1].oid < binds[i].oid);
  }
}

}  // namespace
}  // namespace netmon::obs
