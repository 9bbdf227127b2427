#include <gtest/gtest.h>

#include "apps/testbed.hpp"
#include "apps/traffic.hpp"
#include "core/high_fidelity_monitor.hpp"
#include "core/hybrid_monitor.hpp"
#include "core/measurement_db.hpp"
#include "core/scalable_monitor.hpp"
#include "core/sensor_director.hpp"
#include "core/sequencer.hpp"

namespace netmon::core {
namespace {

using sim::Duration;
using sim::TimePoint;

Path make_path(int a, int b) {
  return Path(ProcessEndpoint{"p", net::IpAddr(10, 0, 0, std::uint8_t(a)), 1},
              ProcessEndpoint{"q", net::IpAddr(10, 0, 0, std::uint8_t(b)), 1});
}

TEST(Path, ConstructionAndAccessors) {
  const Path p = make_path(1, 2);
  EXPECT_EQ(p.leg_count(), 1u);
  EXPECT_EQ(p.source().host, net::IpAddr(10, 0, 0, 1));
  EXPECT_EQ(p.destination().host, net::IpAddr(10, 0, 0, 2));
  EXPECT_EQ(p.to_string(), "p@10.0.0.1:1 -> q@10.0.0.2:1");
  EXPECT_THROW(Path(std::vector<ProcessEndpoint>{ProcessEndpoint{}}),
               std::invalid_argument);
  EXPECT_THROW(p.leg(1), std::out_of_range);
}

TEST(Path, MultiHopLegs) {
  const Path p(std::vector<ProcessEndpoint>{
      ProcessEndpoint{"a", net::IpAddr(10, 0, 0, 1), 0},
      ProcessEndpoint{"b", net::IpAddr(10, 0, 0, 2), 0},
      ProcessEndpoint{"c", net::IpAddr(10, 0, 0, 3), 0}});
  EXPECT_EQ(p.leg_count(), 2u);
  EXPECT_EQ(p.leg(1).first.host, net::IpAddr(10, 0, 0, 2));
}

// --- measurement database ----------------------------------------------------

TEST(MeasurementDb, CurrentVsLastKnown) {
  MeasurementDatabase db;
  const Path p = make_path(1, 2);
  const auto t0 = TimePoint::from_nanos(0);
  db.record(p, Metric::kThroughput, MetricValue::of(5e6, t0));

  const auto t_fresh = t0 + Duration::sec(1);
  auto current = db.current(p, Metric::kThroughput, t_fresh, Duration::sec(5));
  ASSERT_TRUE(current);
  EXPECT_DOUBLE_EQ(current->value, 5e6);

  const auto t_stale = t0 + Duration::sec(100);
  EXPECT_FALSE(db.current(p, Metric::kThroughput, t_stale, Duration::sec(5)));
  auto last = db.last_known(p, Metric::kThroughput);
  ASSERT_TRUE(last);
  EXPECT_DOUBLE_EQ(last->value, 5e6);
}

TEST(MeasurementDb, LastKnownSurvivesFailedMeasurements) {
  MeasurementDatabase db;
  const Path p = make_path(1, 2);
  db.record(p, Metric::kThroughput,
            MetricValue::of(5e6, TimePoint::from_nanos(100)));
  db.record(p, Metric::kThroughput,
            MetricValue::failed(TimePoint::from_nanos(200)));
  auto last = db.last_known(p, Metric::kThroughput);
  ASSERT_TRUE(last);
  EXPECT_TRUE(last->valid);
  EXPECT_DOUBLE_EQ(last->value, 5e6);
  // Senescence reflects the newest record, even a failed one.
  auto age = db.senescence(p, Metric::kThroughput, TimePoint::from_nanos(500));
  ASSERT_TRUE(age);
  EXPECT_EQ(age->nanos(), 300);
}

TEST(MeasurementDb, SeriesAreIndependentPerMetricAndPath) {
  MeasurementDatabase db;
  db.record(make_path(1, 2), Metric::kThroughput,
            MetricValue::of(1.0, TimePoint::from_nanos(1)));
  db.record(make_path(1, 2), Metric::kReachability,
            MetricValue::of(1.0, TimePoint::from_nanos(1)));
  db.record(make_path(1, 3), Metric::kThroughput,
            MetricValue::of(2.0, TimePoint::from_nanos(1)));
  EXPECT_EQ(db.tracked_series(), 3u);
  EXPECT_FALSE(db.last_known(make_path(2, 1), Metric::kThroughput));
}

TEST(MeasurementDb, HistoryBounded) {
  // Older samples live only in the tiered store, whose page pool bounds
  // them: two 4-point raw pages hold at most 8 of the 10 samples.
  TieredStorageConfig storage;
  storage.page_points = 4;
  storage.tiers = 1;
  storage.max_pages = 2;
  MeasurementDatabase db(storage);
  const Path p = make_path(1, 2);
  for (int i = 0; i < 10; ++i) {
    db.record(p, Metric::kOneWayLatency,
              MetricValue::of(i, TimePoint::from_nanos(i)));
  }
  const TierQueryResult history =
      db.query(p, Metric::kOneWayLatency, TimePoint::from_nanos(0),
               TimePoint::from_nanos(9), Duration::ns(0));
  ASSERT_EQ(history.points.size(), 6u);
  EXPECT_DOUBLE_EQ(history.points.front().mean, 4.0);
  EXPECT_DOUBLE_EQ(history.points.back().mean, 9.0);
  ASSERT_EQ(history.gaps.size(), 1u);  // the evicted oldest page
  EXPECT_EQ(history.gaps[0].from_ns, 0);
  EXPECT_LE(db.tiered().stats().pages_in_use, 2u);
  EXPECT_EQ(db.records_written(), 10u);
  // The newest sample still answers senescence and last_known.
  EXPECT_EQ(db.senescence(p, Metric::kOneWayLatency, TimePoint::from_nanos(9))
                ->nanos(),
            0);
  EXPECT_DOUBLE_EQ(db.last_known(p, Metric::kOneWayLatency)->value, 9.0);
}

TEST(MeasurementDb, PathInterningIsStableAndDense) {
  MeasurementDatabase db;
  const Path p1 = make_path(1, 2);
  const Path p2 = make_path(1, 3);
  const PathId id1 = db.id_of(p1);
  const PathId id2 = db.id_of(p2);
  EXPECT_EQ(id1, 0u);
  EXPECT_EQ(id2, 1u);
  EXPECT_EQ(db.id_of(p1), id1);  // idempotent
  EXPECT_EQ(db.find(p2), id2);
  EXPECT_EQ(db.find(make_path(9, 9)), kInvalidPathId);
  EXPECT_EQ(db.path_of(id1), p1);
  EXPECT_EQ(db.interned_paths(), 2u);
  // Interning alone creates no tracked series.
  EXPECT_EQ(db.tracked_series(), 0u);
  EXPECT_FALSE(db.last_known(p1, Metric::kThroughput));
  EXPECT_FALSE(
      db.senescence(p1, Metric::kThroughput, TimePoint::from_nanos(0)));
  EXPECT_TRUE(db.query(p1, Metric::kThroughput, TimePoint::from_nanos(0),
                       TimePoint::from_nanos(1000), Duration::ns(0))
                  .points.empty());
}

TEST(MeasurementDb, IdAndPathKeyedApisAgree) {
  MeasurementDatabase db;
  const Path p = make_path(4, 5);
  const PathId id = db.id_of(p);
  db.record(id, Metric::kOneWayLatency,
            MetricValue::of(0.5, TimePoint::from_nanos(100)));
  db.record(p, Metric::kOneWayLatency,
            MetricValue::of(0.7, TimePoint::from_nanos(200)));
  // Both writes landed on the same series, whichever key queries it.
  auto by_id = db.last_known(id, Metric::kOneWayLatency);
  auto by_path = db.last_known(p, Metric::kOneWayLatency);
  ASSERT_TRUE(by_id && by_path);
  EXPECT_DOUBLE_EQ(by_id->value, 0.7);
  EXPECT_DOUBLE_EQ(by_path->value, 0.7);
  const auto from = TimePoint::from_nanos(0);
  const auto to = TimePoint::from_nanos(200);
  const Metric m = Metric::kOneWayLatency;
  EXPECT_EQ(db.query(id, m, from, to, Duration::ns(0)).points.size(), 2u);
  EXPECT_EQ(db.query(p, m, from, to, Duration::ns(0)).points.size(), 2u);
  EXPECT_EQ(db.tracked_series(), 1u);
  EXPECT_EQ(db.records_written(), 2u);
}

// Federation (DESIGN.md §14) splits record() into a field half and a store
// half, so a parent never counts one sample twice.
TEST(MeasurementDb, RecordCurrentMovesOnlyTheFields) {
  MeasurementDatabase db;
  const Path p = make_path(1, 2);
  const PathId id = db.id_of(p);
  db.record_current(id, Metric::kThroughput,
                    MetricValue::of(3.0, TimePoint::from_nanos(100)));
  db.record_current(id, Metric::kThroughput,
                    MetricValue::failed(TimePoint::from_nanos(200)));
  EXPECT_EQ(db.records_written(), 2u);
  EXPECT_EQ(db.tracked_series(), 1u);
  EXPECT_EQ(db.senescence(id, Metric::kThroughput, TimePoint::from_nanos(250))
                ->nanos(),
            50);
  ASSERT_TRUE(db.last_known(id, Metric::kThroughput));
  EXPECT_DOUBLE_EQ(db.last_known(id, Metric::kThroughput)->value, 3.0);
  EXPECT_TRUE(db.current(id, Metric::kThroughput, TimePoint::from_nanos(250),
                         Duration::sec(1)));
  // The store saw nothing.
  EXPECT_EQ(db.tiered().stats().samples, 0u);
  EXPECT_TRUE(db.query(id, Metric::kThroughput, TimePoint::from_nanos(0),
                       TimePoint::from_nanos(300), Duration::ns(0))
                  .points.empty());
}

TEST(MeasurementDb, MergePointsMovesOnlyTheStore) {
  MeasurementDatabase db;
  const PathId id = db.id_of(make_path(1, 2));
  TierPoint points[2];
  points[0].first_ns = points[0].last_ns = 100;
  points[1].first_ns = 150;
  points[1].last_ns = 200;
  for (TierPoint& point : points) {
    point.min = point.max = point.sum = 4.0;
    point.count = point.valid_count = 1;
  }
  db.merge_points(id, Metric::kThroughput, points, 2);
  const TierQueryResult merged =
      db.query(id, Metric::kThroughput, TimePoint::from_nanos(0),
               TimePoint::from_nanos(300), Duration::ns(0));
  ASSERT_EQ(merged.points.size(), 2u);
  EXPECT_EQ(merged.points.back().last_ns, 200);
  EXPECT_EQ(db.tiered().stats().imported_points, 2u);
  EXPECT_EQ(db.tiered().stats().samples, 0u);
  // The fields saw nothing.
  EXPECT_EQ(db.records_written(), 0u);
  EXPECT_EQ(db.tracked_series(), 0u);
  EXPECT_FALSE(db.last_known(id, Metric::kThroughput));
  EXPECT_FALSE(db.current(id, Metric::kThroughput, TimePoint::from_nanos(250),
                          Duration::sec(1)));
  EXPECT_FALSE(
      db.senescence(id, Metric::kThroughput, TimePoint::from_nanos(250)));
}

TEST(MeasurementDb, RecordDoesBothHalvesAndFiresHookOnce) {
  MeasurementDatabase db;
  const PathId id = db.id_of(make_path(1, 2));
  std::vector<MetricValue> hooked;
  db.set_record_hook([&](PathId at, Metric metric, const MetricValue& v) {
    EXPECT_EQ(at, id);
    EXPECT_EQ(metric, Metric::kReachability);
    hooked.push_back(v);
  });
  MetricValue sample = MetricValue::of(1.0, TimePoint::from_nanos(100));
  sample.quality = SampleQuality::kRetried;
  db.record(id, Metric::kReachability, sample);
  ASSERT_EQ(hooked.size(), 1u);
  EXPECT_EQ(hooked[0].quality, SampleQuality::kRetried);
  EXPECT_EQ(db.records_written(), 1u);
  EXPECT_EQ(db.last_known(id, Metric::kReachability)->quality,
            SampleQuality::kRetried);
  EXPECT_EQ(db.tiered().stats().samples, 1u);
  EXPECT_EQ(db.query(id, Metric::kReachability, TimePoint::from_nanos(0),
                     TimePoint::from_nanos(100), Duration::ns(0))
                .points.size(),
            1u);
  // Neither half alone reaches the hook.
  db.record_current(id, Metric::kReachability,
                    MetricValue::of(1.0, TimePoint::from_nanos(200)));
  TierPoint point;
  point.first_ns = point.last_ns = 300;
  point.count = 1;
  db.merge_points(id, Metric::kReachability, &point, 1);
  EXPECT_EQ(hooked.size(), 1u);
}

TEST(MeasurementDb, SenescenceMonotoneBetweenUpdates) {
  MeasurementDatabase db;
  const Path p = make_path(1, 2);
  db.record(p, Metric::kReachability,
            MetricValue::of(1.0, TimePoint::from_nanos(1000)));
  const auto age1 = db.senescence(p, Metric::kReachability,
                                  TimePoint::from_nanos(2000));
  const auto age2 = db.senescence(p, Metric::kReachability,
                                  TimePoint::from_nanos(5000));
  ASSERT_TRUE(age1 && age2);
  EXPECT_LT(age1->nanos(), age2->nanos());
}

// --- sequencer ----------------------------------------------------------------

TEST(Sequencer, SerialRunsOneAtATime) {
  TestSequencer seq(1);
  std::vector<TestSequencer::Done> pending;
  int started = 0;
  for (int i = 0; i < 5; ++i) {
    seq.enqueue([&](TestSequencer::Done done) {
      ++started;
      pending.push_back(std::move(done));
    });
  }
  EXPECT_EQ(started, 1);
  EXPECT_EQ(seq.in_flight(), 1u);
  EXPECT_EQ(seq.queued(), 4u);
  // Completing each job admits exactly the next.
  for (int i = 0; i < 5; ++i) {
    auto done = std::move(pending.back());
    pending.pop_back();
    done();
    EXPECT_EQ(started, std::min(i + 2, 5));
  }
  EXPECT_TRUE(seq.idle());
  EXPECT_EQ(seq.completed(), 5u);
}

TEST(Sequencer, ConcurrencyNeverExceedsLimit) {
  TestSequencer seq(3);
  std::size_t max_seen = 0;
  std::vector<TestSequencer::Done> pending;
  for (int i = 0; i < 20; ++i) {
    seq.enqueue([&](TestSequencer::Done done) {
      pending.push_back(std::move(done));
      max_seen = std::max(max_seen, seq.in_flight());
    });
    if (pending.size() > 1 && i % 3 == 0) {
      auto done = std::move(pending.front());
      pending.erase(pending.begin());
      done();
    }
  }
  while (!pending.empty()) {
    auto done = std::move(pending.front());
    pending.erase(pending.begin());
    done();
  }
  EXPECT_LE(max_seen, 3u);
  EXPECT_EQ(seq.completed(), 20u);
  EXPECT_TRUE(seq.idle());
}

TEST(Sequencer, SynchronousTasksDrainCompletely) {
  TestSequencer seq(1);
  int ran = 0;
  for (int i = 0; i < 100; ++i) {
    seq.enqueue([&](TestSequencer::Done done) {
      ++ran;
      done();
    });
  }
  EXPECT_EQ(ran, 100);
  EXPECT_TRUE(seq.idle());
}

TEST(Sequencer, ZeroConcurrencyRejected) {
  EXPECT_THROW(TestSequencer(0), std::invalid_argument);
  TestSequencer seq(1);
  EXPECT_THROW(seq.set_max_concurrent(0), std::invalid_argument);
}

TEST(Sequencer, RaisingLimitDrainsQueue) {
  TestSequencer seq(1);
  std::vector<TestSequencer::Done> pending;
  for (int i = 0; i < 4; ++i) {
    seq.enqueue(
        [&](TestSequencer::Done done) { pending.push_back(std::move(done)); });
  }
  EXPECT_EQ(seq.in_flight(), 1u);
  seq.set_max_concurrent(4);
  EXPECT_EQ(seq.in_flight(), 4u);
  for (auto& done : pending) done();
}

// --- sensor director with a scripted sensor -----------------------------------

// Deterministic fake sensor: completes after a fixed simulated delay.
class FakeSensor : public NetworkSensor {
 public:
  FakeSensor(sim::Simulator& sim, Duration delay, double value)
      : sim_(sim), delay_(delay), value_(value) {}

  std::string name() const override { return "fake"; }
  bool supports(Metric) const override { return true; }
  void measure(const Path&, Metric, Done done) override {
    ++in_flight_;
    max_in_flight_ = std::max(max_in_flight_, in_flight_);
    ++measurements_;
    sim_.schedule_in(delay_, [this, done = std::move(done)] {
      --in_flight_;
      done(fail_next_ ? MetricValue::failed(sim_.now())
                      : MetricValue::of(value_, sim_.now()));
    });
  }

  int measurements_ = 0;
  int in_flight_ = 0;
  int max_in_flight_ = 0;
  bool fail_next_ = false;

 private:
  sim::Simulator& sim_;
  Duration delay_;
  double value_;
};

class DirectorFixture : public ::testing::Test {
 protected:
  DirectorFixture() : sensor(sim, Duration::ms(10), 42.0), director(sim, 1) {
    director.register_sensor(Metric::kThroughput, &sensor);
    director.register_sensor(Metric::kReachability, &sensor);
    director.register_sensor(Metric::kOneWayLatency, &sensor);
  }
  MonitorRequest one_shot(int paths, std::vector<Metric> metrics) {
    MonitorRequest request;
    for (int i = 0; i < paths; ++i) {
      request.paths.push_back(PathRequest{make_path(1, 10 + i), metrics});
    }
    return request;
  }
  sim::Simulator sim;
  FakeSensor sensor;
  SensorDirector director;
};

TEST_F(DirectorFixture, OnceModeReportsEveryTupleAndFinishes) {
  std::vector<PathMetricTuple> tuples;
  director.submit(one_shot(3, {Metric::kThroughput, Metric::kReachability}),
                  [&](const PathMetricTuple& t) { tuples.push_back(t); });
  sim.run();
  EXPECT_EQ(tuples.size(), 6u);
  EXPECT_EQ(director.stats().rounds_completed, 1u);
  EXPECT_EQ(director.stats().measurements_failed, 0u);
  // All recorded in the database.
  EXPECT_EQ(director.database().records_written(), 6u);
}

TEST_F(DirectorFixture, EmptyPathListRejected) {
  EXPECT_THROW(director.submit(MonitorRequest{}, nullptr), std::invalid_argument);
}

TEST_F(DirectorFixture, MissingSensorRejected) {
  SensorDirector bare(sim, 1);
  EXPECT_THROW(bare.submit(one_shot(1, {Metric::kThroughput}), nullptr),
               std::logic_error);
}

TEST_F(DirectorFixture, SequencerSerializesMeasurements) {
  director.submit(one_shot(8, {Metric::kThroughput}), nullptr);
  sim.run();
  EXPECT_EQ(sensor.max_in_flight_, 1);
  EXPECT_EQ(sensor.measurements_, 8);
}

TEST_F(DirectorFixture, ParallelDirectorOverlapsMeasurements) {
  SensorDirector parallel(sim, TestSequencer::kUnlimited);
  parallel.register_sensor(Metric::kThroughput, &sensor);
  MonitorRequest request = one_shot(8, {Metric::kThroughput});
  parallel.submit(request, nullptr);
  sim.run();
  EXPECT_EQ(sensor.max_in_flight_, 8);
}

TEST_F(DirectorFixture, SynchronousReportingBatchesRound) {
  std::vector<std::size_t> batch_sizes;
  MonitorRequest request = one_shot(4, {Metric::kThroughput});
  request.reporting = MonitorRequest::Reporting::kSynchronous;
  director.submit(request, nullptr,
                  [&](const std::vector<PathMetricTuple>& batch) {
                    batch_sizes.push_back(batch.size());
                  });
  sim.run();
  ASSERT_EQ(batch_sizes.size(), 1u);
  EXPECT_EQ(batch_sizes[0], 4u);
}

TEST_F(DirectorFixture, ContinuousModeCyclesUntilCancelled) {
  MonitorRequest request = one_shot(2, {Metric::kThroughput});
  request.mode = MonitorRequest::Mode::kContinuous;
  const auto id = director.submit(request, nullptr);
  sim.run_for(Duration::ms(205));
  // Each round: 2 serial measurements x 10ms = 20ms -> ~10 rounds in 205ms.
  EXPECT_GE(director.stats().rounds_completed, 9u);
  director.cancel(id);
  const auto rounds = director.stats().rounds_completed;
  sim.run_for(Duration::sec(1));
  EXPECT_LE(director.stats().rounds_completed, rounds + 1);
}

TEST_F(DirectorFixture, PeriodicModeStartsRoundsAtPeriod) {
  MonitorRequest request = one_shot(1, {Metric::kThroughput});
  request.mode = MonitorRequest::Mode::kPeriodic;
  request.period = Duration::ms(100);
  const auto id = director.submit(request, nullptr);
  sim.run_for(Duration::ms(950));
  director.cancel(id);
  // Rounds at t=0,100,...,900 -> 10 rounds.
  EXPECT_EQ(director.stats().rounds_completed, 10u);
}

TEST_F(DirectorFixture, FailedMeasurementsCountedAndRecorded) {
  sensor.fail_next_ = true;
  std::vector<PathMetricTuple> tuples;
  director.submit(one_shot(1, {Metric::kThroughput}),
                  [&](const PathMetricTuple& t) { tuples.push_back(t); });
  sim.run();
  ASSERT_EQ(tuples.size(), 1u);
  EXPECT_FALSE(tuples[0].value.valid);
  EXPECT_EQ(director.stats().measurements_failed, 1u);
}

TEST_F(DirectorFixture, RecordToDatabaseCanBeDisabled) {
  MonitorRequest request = one_shot(2, {Metric::kThroughput});
  request.record_to_database = false;
  director.submit(request, nullptr);
  sim.run();
  EXPECT_EQ(director.database().records_written(), 0u);
}

TEST_F(DirectorFixture, WrongSensorRegistrationRejected) {
  class LatencyOnly : public NetworkSensor {
   public:
    std::string name() const override { return "lat"; }
    bool supports(Metric m) const override {
      return m == Metric::kOneWayLatency;
    }
    void measure(const Path&, Metric, Done done) override {
      done(MetricValue::failed(sim::TimePoint{}));
    }
  } latency_only;
  EXPECT_THROW(director.register_sensor(Metric::kThroughput, &latency_only),
               std::invalid_argument);
}

// --- end-to-end monitors over the testbed -------------------------------------

class MonitorFixture : public ::testing::Test {
 protected:
  MonitorFixture() {
    apps::TestbedOptions options;
    options.servers = 2;
    options.clients = 3;
    bed = std::make_unique<apps::Testbed>(sim, options);
  }
  sim::Simulator sim;
  std::unique_ptr<apps::Testbed> bed;
};

TEST_F(MonitorFixture, HighFidelityMonitorMeasuresMatrix) {
  HighFidelityMonitor::Config cfg;
  cfg.probe.message_count = 8;
  cfg.probe.inter_send = Duration::ms(5);
  HighFidelityMonitor monitor(bed->network(), cfg);

  MonitorRequest request;
  request.paths = bed->full_matrix(
      {Metric::kThroughput, Metric::kReachability});
  std::vector<PathMetricTuple> tuples;
  monitor.director().submit(
      request, [&](const PathMetricTuple& t) { tuples.push_back(t); });
  sim.run_for(Duration::sec(30));
  ASSERT_EQ(tuples.size(), 12u);  // 2x3 paths x 2 metrics
  for (const auto& t : tuples) {
    EXPECT_TRUE(t.value.valid) << t.path.to_string();
    if (t.metric == Metric::kReachability) {
      EXPECT_DOUBLE_EQ(t.value.value, 1.0);
    } else {
      EXPECT_GT(t.value.value, 1e6);
    }
  }
}

TEST_F(MonitorFixture, HighFidelityDetectsDownHost) {
  bed->client(1).set_up(false);
  HighFidelityMonitor::Config cfg;
  cfg.probe.message_count = 4;
  HighFidelityMonitor monitor(bed->network(), cfg);
  MonitorRequest request;
  request.paths.push_back(
      PathRequest{bed->path(0, 1), {Metric::kReachability}});
  std::vector<PathMetricTuple> tuples;
  monitor.director().submit(
      request, [&](const PathMetricTuple& t) { tuples.push_back(t); });
  sim.run_for(Duration::sec(10));
  ASSERT_EQ(tuples.size(), 1u);
  EXPECT_TRUE(tuples[0].value.valid);
  EXPECT_DOUBLE_EQ(tuples[0].value.value, 0.0);
}

TEST_F(MonitorFixture, ScalableMonitorPollsViaSnmp) {
  ScalableMonitor monitor(bed->network(), bed->station());
  // Put application traffic on server0's interface so the counter-based
  // estimate has something to see.
  apps::TrafficSink sink(bed->client(0));
  apps::CbrTraffic::Config traffic;
  traffic.rate_bps = 2e6;
  traffic.packet_bytes = 1024;
  apps::CbrTraffic cbr(bed->server(0), bed->client_ip(0), traffic);
  cbr.start();

  MonitorRequest request;
  request.paths.push_back(PathRequest{
      bed->path(0, 0),
      {Metric::kThroughput, Metric::kReachability, Metric::kOneWayLatency}});
  std::vector<PathMetricTuple> tuples;
  monitor.director().submit(
      request, [&](const PathMetricTuple& t) { tuples.push_back(t); });
  sim.run_for(Duration::sec(10));
  cbr.stop();
  ASSERT_EQ(tuples.size(), 3u);
  for (const auto& t : tuples) {
    EXPECT_TRUE(t.value.valid);
    if (t.metric == Metric::kThroughput) {
      // Counter-derived estimate: right order of magnitude.
      EXPECT_GT(t.value.value, 1e6);
      EXPECT_LT(t.value.value, 4e6);
    }
    if (t.metric == Metric::kReachability) {
      EXPECT_DOUBLE_EQ(t.value.value, 1.0);
    }
  }
}

TEST_F(MonitorFixture, ScalableMonitorSeesDownAgentAsUnreachable) {
  bed->client(2).set_up(false);
  ScalableMonitor monitor(bed->network(), bed->station());
  MonitorRequest request;
  request.paths.push_back(PathRequest{bed->path(0, 2), {Metric::kReachability}});
  std::vector<PathMetricTuple> tuples;
  monitor.director().submit(
      request, [&](const PathMetricTuple& t) { tuples.push_back(t); });
  sim.run_for(Duration::sec(10));
  ASSERT_EQ(tuples.size(), 1u);
  EXPECT_DOUBLE_EQ(tuples[0].value.value, 0.0);
}

TEST_F(MonitorFixture, HybridEscalatesOnReachabilityLoss) {
  HybridMonitor::Config cfg;
  cfg.probe.message_count = 4;
  cfg.probe.inter_send = Duration::ms(5);
  cfg.background_period = Duration::ms(500);
  HybridMonitor monitor(bed->network(), bed->station(), cfg);

  std::vector<PathMetricTuple> tuples;
  monitor.start(
      {PathRequest{bed->path(0, 0), {Metric::kReachability}}},
      [&](const PathMetricTuple& t) { tuples.push_back(t); });
  sim.run_for(Duration::sec(2));
  EXPECT_EQ(monitor.escalations(), 0u);

  bed->client(0).set_up(false);
  sim.run_for(Duration::sec(5));
  EXPECT_GT(monitor.escalations(), 0u);
  EXPECT_GT(monitor.targeted_measurements(), 0u);
  monitor.stop();
}

}  // namespace
}  // namespace netmon::core
