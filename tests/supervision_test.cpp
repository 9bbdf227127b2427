// Supervision-layer tests (DESIGN.md §9): sequencer contract violations,
// per-attempt deadlines, retry with backoff, circuit breaking, fallback
// chains, and stale re-reporting — plus the SNMP sensor's behavior when
// polls exhaust their retries under the director.

#include <gtest/gtest.h>

#include <deque>
#include <memory>
#include <optional>
#include <vector>

#include "apps/testbed.hpp"
#include "core/scalable_monitor.hpp"
#include "core/sensor_director.hpp"
#include "core/sequencer.hpp"
#include "sim/simulator.hpp"

namespace netmon::core {
namespace {

using sim::Duration;
using sim::TimePoint;

Path make_path(int a, int b) {
  return Path(ProcessEndpoint{"p", net::IpAddr(10, 0, 0, std::uint8_t(a)), 1},
              ProcessEndpoint{"q", net::IpAddr(10, 0, 0, std::uint8_t(b)), 1});
}

// --- sequencer contract violations -------------------------------------------

TEST(Sequencer, DoubleDoneIsCountedNoOp) {
  TestSequencer seq(1);
  TestSequencer::Done saved;
  seq.enqueue([&](TestSequencer::Done done) { saved = std::move(done); });
  EXPECT_EQ(seq.in_flight(), 1u);

  saved();
  EXPECT_EQ(seq.in_flight(), 0u);
  EXPECT_EQ(seq.completed(), 1u);

  saved();  // contract violation: absorbed, counted, changes nothing
  saved();
  EXPECT_EQ(seq.in_flight(), 0u);
  EXPECT_EQ(seq.completed(), 1u);
  EXPECT_EQ(seq.double_dones(), 2u);

  bool ran = false;
  seq.enqueue([&](TestSequencer::Done done) {
    ran = true;
    done();
  });
  EXPECT_TRUE(ran);
  EXPECT_EQ(seq.completed(), 2u);
}

TEST(Sequencer, AbandonedDoneReleasesSlot) {
  TestSequencer seq(1);
  // The task drops its Done without calling it — a wedged sensor that lost
  // its callback. The slot must come back anyway.
  seq.enqueue([](TestSequencer::Done done) { (void)done; });
  EXPECT_EQ(seq.in_flight(), 0u);
  EXPECT_EQ(seq.abandoned(), 1u);
  EXPECT_EQ(seq.completed(), 0u);

  bool ran = false;
  seq.enqueue([&](TestSequencer::Done done) {
    ran = true;
    done();
  });
  EXPECT_TRUE(ran);
}

TEST(Sequencer, AbandonedDoneUnblocksQueuedTask) {
  TestSequencer seq(1);
  TestSequencer::Done held;
  bool second_ran = false;
  seq.enqueue([&](TestSequencer::Done done) { held = std::move(done); });
  seq.enqueue([&](TestSequencer::Done done) {
    second_ran = true;
    done();
  });
  EXPECT_FALSE(second_ran);
  EXPECT_EQ(seq.queued(), 1u);
  held = nullptr;  // every copy destroyed uncalled
  EXPECT_TRUE(second_ran);
  EXPECT_EQ(seq.abandoned(), 1u);
}

TEST(Sequencer, AccountingBalancesAcrossContractViolations) {
  TestSequencer seq(2);
  TestSequencer::Done held;
  // A mix of clean completions, a double done, an abandoned done, and a
  // task still in flight: launched must always equal
  // completed + abandoned + in_flight.
  seq.enqueue([](TestSequencer::Done done) { done(); });
  seq.enqueue([&](TestSequencer::Done done) {
    done();
    done();  // violation: absorbed
  });
  seq.enqueue([](TestSequencer::Done done) { (void)done; });  // abandoned
  seq.enqueue([&](TestSequencer::Done done) { held = std::move(done); });
  EXPECT_EQ(seq.launched(), 4u);
  EXPECT_EQ(seq.completed(), 2u);
  EXPECT_EQ(seq.abandoned(), 1u);
  EXPECT_EQ(seq.in_flight(), 1u);
  EXPECT_NO_THROW(seq.check_consistency());

  held();  // resolve the last one
  EXPECT_NO_THROW(seq.check_consistency());
  EXPECT_EQ(seq.completed(), 3u);
}

TEST(Sequencer, LaunchedCounterIsMonotoneThroughQueueing) {
  TestSequencer seq(1);
  TestSequencer::Done held;
  seq.enqueue([&](TestSequencer::Done done) { held = std::move(done); });
  // Queued tasks are not launched until a slot frees.
  seq.enqueue([](TestSequencer::Done done) { done(); });
  seq.enqueue([](TestSequencer::Done done) { done(); });
  EXPECT_EQ(seq.launched(), 1u);
  EXPECT_EQ(seq.queued(), 2u);
  held();
  EXPECT_EQ(seq.launched(), 3u);
  EXPECT_EQ(seq.queued(), 0u);
  EXPECT_NO_THROW(seq.check_consistency());
}

TEST(Sequencer, DoneOutlivingSequencerIsNoOp) {
  TestSequencer::Done saved;
  {
    TestSequencer seq(1);
    seq.enqueue([&](TestSequencer::Done done) { saved = std::move(done); });
    EXPECT_EQ(seq.in_flight(), 1u);
  }
  saved();          // sequencer is gone; must not touch freed memory
  saved = nullptr;  // destruction after death must be a no-op too
}

// --- Done handle contract (DESIGN.md §16) -------------------------------------

TEST(DoneHandle, IsPointerSized) {
  // A Done plus two words must fit sim::Callback's 48-byte inline buffer.
  static_assert(sizeof(TestSequencer::Done) <= 32);
  EXPECT_LE(sizeof(TestSequencer::Done), sizeof(void*));
}

TEST(DoneHandle, CopiesShareOneCompletion) {
  TestSequencer seq(1);
  TestSequencer::Done a;
  seq.enqueue([&](TestSequencer::Done done) { a = std::move(done); });
  const TestSequencer::Done b = a;  // copy-construct
  TestSequencer::Done c;
  c = b;  // copy-assign
  EXPECT_TRUE(a && b && c);

  b();  // const call through any copy releases the lane once
  EXPECT_EQ(seq.completed(), 1u);
  EXPECT_EQ(seq.in_flight(), 0u);
  a();
  c();
  EXPECT_EQ(seq.completed(), 1u);
  EXPECT_EQ(seq.double_dones(), 2u);

  a = nullptr;
  c = nullptr;  // the completed cell is not "abandoned" when copies drop
  EXPECT_EQ(seq.abandoned(), 0u);
  EXPECT_NO_THROW(seq.check_consistency());
}

TEST(DoneHandle, MovedFromHandleIsEmptyAndInert) {
  TestSequencer seq(1);
  TestSequencer::Done a;
  seq.enqueue([&](TestSequencer::Done done) { a = std::move(done); });
  TestSequencer::Done b(std::move(a));
  EXPECT_FALSE(a);  // NOLINT(bugprone-use-after-move): tested on purpose
  EXPECT_TRUE(b);
  a();  // empty handle: no-op, not a double done
  EXPECT_EQ(seq.in_flight(), 1u);
  EXPECT_EQ(seq.double_dones(), 0u);

  TestSequencer::Done c;
  c = std::move(b);  // move-assign keeps the one reference
  c();
  EXPECT_EQ(seq.completed(), 1u);
  EXPECT_EQ(seq.double_dones(), 0u);
  EXPECT_EQ(seq.abandoned(), 0u);
}

TEST(DoneHandle, AbandonsOnlyWhenTheLastCopyDrops) {
  TestSequencer seq(1);
  std::vector<TestSequencer::Done> copies;
  bool next_ran = false;
  seq.enqueue([&](TestSequencer::Done done) {
    copies.assign(3, done);  // three copies plus the parameter
  });
  seq.enqueue([&](TestSequencer::Done done) {
    next_ran = true;
    done();
  });
  EXPECT_EQ(seq.in_flight(), 1u);
  copies.pop_back();
  copies.pop_back();
  EXPECT_EQ(seq.in_flight(), 1u);  // one copy still holds the lane
  EXPECT_EQ(seq.abandoned(), 0u);
  EXPECT_FALSE(next_ran);
  copies.clear();  // last copy dropped uncalled
  EXPECT_EQ(seq.abandoned(), 1u);
  EXPECT_TRUE(next_ran);
  EXPECT_EQ(seq.completed(), 1u);
  EXPECT_NO_THROW(seq.check_consistency());
}

TEST(DoneHandle, ReusedCellsKeepDoubleDonesApart) {
  // Cells recycle once every copy is gone: a stale double done must still
  // count against its own (finished) cell, never release a later task.
  TestSequencer seq(1);
  TestSequencer::Done first;
  seq.enqueue([&](TestSequencer::Done done) { first = std::move(done); });
  first();
  TestSequencer::Done second;
  seq.enqueue([&](TestSequencer::Done done) { second = std::move(done); });
  first();  // stale: counted, the second task keeps its lane
  EXPECT_EQ(seq.double_dones(), 1u);
  EXPECT_EQ(seq.in_flight(), 1u);
  first = nullptr;
  EXPECT_EQ(seq.in_flight(), 1u);
  EXPECT_EQ(seq.abandoned(), 0u);
  second();
  EXPECT_EQ(seq.completed(), 2u);
}

TEST(DoneHandle, CopiesOutlivingTheSchedulerAreNoOps) {
  std::vector<TestSequencer::Done> called;
  std::vector<TestSequencer::Done> uncalled;
  {
    TestSequencer seq(2);
    seq.enqueue([&](TestSequencer::Done done) {
      done();
      called.assign(2, done);
    });
    seq.enqueue([&](TestSequencer::Done done) { uncalled.assign(2, done); });
    EXPECT_EQ(seq.in_flight(), 1u);
  }
  // Invoking or destroying copies after the scheduler died must touch
  // nothing (the sanitize preset checks the memory side).
  for (const auto& d : called) d();
  for (const auto& d : uncalled) d();
  const TestSequencer::Done extra = uncalled.front();
  called.clear();
  uncalled.clear();
  extra();
}

// --- scripted sensor ---------------------------------------------------------

class ScriptedSensor : public NetworkSensor {
 public:
  enum class Behavior { kSucceed, kFail, kHang, kSlow };

  ScriptedSensor(sim::Simulator& sim, std::string name, double value)
      : sim_(sim), name_(std::move(name)), value_(value) {}

  std::string name() const override { return name_; }
  bool supports(Metric) const override { return true; }
  void measure(const Path& path, Metric, Done done) override {
    ++calls;
    Behavior b = behavior;
    if (!script.empty()) {
      b = script.front();
      script.pop_front();
    }
    if (fail_destination && path.destination().host == *fail_destination) {
      b = Behavior::kFail;  // a dead target, independent of sensor health
    }
    switch (b) {
      case Behavior::kSucceed:
        sim_.schedule_in(delay, [this, done = std::move(done)] {
          done(MetricValue::of(value_, sim_.now()));
        });
        return;
      case Behavior::kFail:
        sim_.schedule_in(delay, [this, done = std::move(done)] {
          done(MetricValue::failed(sim_.now()));
        });
        return;
      case Behavior::kHang:
        held.push_back(std::move(done));
        return;
      case Behavior::kSlow:
        sim_.schedule_in(slow_delay, [this, done = std::move(done)] {
          done(MetricValue::of(value_, sim_.now()));
        });
        return;
    }
  }

  Behavior behavior = Behavior::kSucceed;
  std::deque<Behavior> script;  // per-call overrides, consumed first
  std::optional<net::IpAddr> fail_destination;  // always fail toward this host
  Duration delay = Duration::ms(10);
  Duration slow_delay = Duration::sec(5);
  int calls = 0;
  std::vector<Done> held;

 private:
  sim::Simulator& sim_;
  std::string name_;
  double value_;
};

std::vector<PathMetricTuple> run_once(sim::Simulator& sim,
                                      SensorDirector& director,
                                      const Path& path, Metric metric) {
  MonitorRequest request;
  request.paths.push_back(PathRequest{path, {metric}});
  std::vector<PathMetricTuple> tuples;
  director.submit(request, [&](const PathMetricTuple& t) {
    tuples.push_back(t);
  });
  sim.run();
  return tuples;
}

// --- deadline ---------------------------------------------------------------

TEST(Supervision, DeadlineReclaimsSlotFromHungSensor) {
  sim::Simulator sim;
  SupervisionConfig sup;
  sup.deadline = Duration::sec(1);
  SensorDirector director(sim, 1, sup);
  ScriptedSensor hung(sim, "hung", 1.0);
  hung.behavior = ScriptedSensor::Behavior::kHang;
  director.register_sensor(Metric::kThroughput, &hung);

  auto tuples = run_once(sim, director, make_path(1, 2), Metric::kThroughput);
  ASSERT_EQ(tuples.size(), 1u);
  EXPECT_FALSE(tuples[0].value.valid);  // failed, not silently missing
  EXPECT_EQ(sim.now().nanos(), Duration::sec(1).nanos());
  EXPECT_EQ(director.stats().timeouts, 1u);
  EXPECT_EQ(director.stats().measurements_failed, 1u);
  // The slot came back even though the sensor still holds its Done.
  EXPECT_EQ(director.sequencer().in_flight(), 0u);
  EXPECT_EQ(hung.held.size(), 1u);

  // The director keeps working afterwards.
  hung.behavior = ScriptedSensor::Behavior::kSucceed;
  auto again = run_once(sim, director, make_path(1, 2), Metric::kThroughput);
  ASSERT_EQ(again.size(), 1u);
  EXPECT_TRUE(again[0].value.valid);
}

TEST(Supervision, LateCompletionAfterTimeoutIsCountedNoOp) {
  sim::Simulator sim;
  SupervisionConfig sup;
  sup.deadline = Duration::sec(1);
  SensorDirector director(sim, 1, sup);
  ScriptedSensor slow(sim, "slow", 7.0);
  slow.behavior = ScriptedSensor::Behavior::kSlow;  // completes at t=5s
  director.register_sensor(Metric::kThroughput, &slow);

  auto tuples = run_once(sim, director, make_path(1, 2), Metric::kThroughput);
  // Exactly one tuple: the timeout failure. The late done at 5s must not
  // produce a second report.
  ASSERT_EQ(tuples.size(), 1u);
  EXPECT_FALSE(tuples[0].value.valid);
  EXPECT_EQ(director.stats().timeouts, 1u);
  EXPECT_EQ(director.stats().late_completions, 1u);
  EXPECT_EQ(director.stats().tuples_reported, 1u);
}

// --- retry ------------------------------------------------------------------

TEST(Supervision, RetryAfterFailureYieldsRetriedQuality) {
  sim::Simulator sim;
  SupervisionConfig sup;
  sup.max_retries = 2;
  sup.backoff_base = Duration::ms(100);
  SensorDirector director(sim, 1, sup);
  ScriptedSensor flaky(sim, "flaky", 3.0);
  flaky.script = {ScriptedSensor::Behavior::kFail,
                  ScriptedSensor::Behavior::kFail,
                  ScriptedSensor::Behavior::kSucceed};
  director.register_sensor(Metric::kThroughput, &flaky);

  auto tuples = run_once(sim, director, make_path(1, 2), Metric::kThroughput);
  ASSERT_EQ(tuples.size(), 1u);
  EXPECT_TRUE(tuples[0].value.valid);
  EXPECT_DOUBLE_EQ(tuples[0].value.value, 3.0);
  EXPECT_EQ(tuples[0].value.quality, SampleQuality::kRetried);
  EXPECT_EQ(flaky.calls, 3);
  EXPECT_EQ(director.stats().retries, 2u);
  EXPECT_EQ(director.stats().measurements_failed, 0u);
  // Two backoffs happened: strictly later than the three attempt delays.
  EXPECT_GT(sim.now().nanos(), (Duration::ms(30) + Duration::ms(200)).nanos());
}

TEST(Supervision, RetryReleasesSlotDuringBackoff) {
  sim::Simulator sim;
  SupervisionConfig sup;
  sup.max_retries = 1;
  sup.backoff_base = Duration::sec(1);
  SensorDirector director(sim, 1, sup);
  ScriptedSensor flaky(sim, "flaky", 3.0);
  flaky.script = {ScriptedSensor::Behavior::kFail};  // then succeeds
  director.register_sensor(Metric::kThroughput, &flaky);

  MonitorRequest request;
  request.paths.push_back(PathRequest{make_path(1, 2), {Metric::kThroughput}});
  request.paths.push_back(PathRequest{make_path(1, 3), {Metric::kThroughput}});
  std::vector<PathMetricTuple> tuples;
  director.submit(request, [&](const PathMetricTuple& t) {
    tuples.push_back(t);
  });
  sim.run();
  ASSERT_EQ(tuples.size(), 2u);
  // While path(1,2) waited out its backoff, the second path used the slot:
  // its fresh sample completed before the retried one.
  EXPECT_EQ(tuples[0].path, make_path(1, 3));
  EXPECT_EQ(tuples[0].value.quality, SampleQuality::kFresh);
  EXPECT_EQ(tuples[1].value.quality, SampleQuality::kRetried);
}

// --- fallback chain ---------------------------------------------------------

TEST(Supervision, FallbackSensorProducesFallbackQuality) {
  sim::Simulator sim;
  SensorDirector director(sim, 1);
  ScriptedSensor primary(sim, "primary", 9.0);
  ScriptedSensor backup(sim, "backup", 4.0);
  primary.behavior = ScriptedSensor::Behavior::kFail;
  director.register_sensor(Metric::kThroughput, &primary);
  director.register_fallback(Metric::kThroughput, &backup);
  ASSERT_EQ(director.chain_for(Metric::kThroughput).size(), 2u);

  auto tuples = run_once(sim, director, make_path(1, 2), Metric::kThroughput);
  ASSERT_EQ(tuples.size(), 1u);
  EXPECT_TRUE(tuples[0].value.valid);
  EXPECT_DOUBLE_EQ(tuples[0].value.value, 4.0);  // the backup's reading
  EXPECT_EQ(tuples[0].value.quality, SampleQuality::kFallback);
  EXPECT_EQ(director.stats().fallbacks, 1u);
  EXPECT_EQ(primary.calls, 1);
  EXPECT_EQ(backup.calls, 1);
}

TEST(Supervision, RegisteringPrimaryClearsChain) {
  sim::Simulator sim;
  SensorDirector director(sim, 1);
  ScriptedSensor a(sim, "a", 1.0), b(sim, "b", 2.0);
  director.register_sensor(Metric::kThroughput, &a);
  director.register_fallback(Metric::kThroughput, &b);
  director.register_sensor(Metric::kThroughput, &b);
  EXPECT_EQ(director.chain_for(Metric::kThroughput).size(), 1u);
  EXPECT_EQ(director.sensor_for(Metric::kThroughput), &b);
}

// --- circuit breaker --------------------------------------------------------

TEST(Supervision, BreakerOpensSkipsAndRecovers) {
  sim::Simulator sim;
  SupervisionConfig sup;
  sup.breaker_threshold = 2;
  sup.breaker_open_for = Duration::sec(10);
  SensorDirector director(sim, 1, sup);
  ScriptedSensor primary(sim, "primary", 9.0);
  ScriptedSensor backup(sim, "backup", 4.0);
  primary.behavior = ScriptedSensor::Behavior::kFail;
  director.register_sensor(Metric::kThroughput, &primary);
  director.register_fallback(Metric::kThroughput, &backup);
  const Path p = make_path(1, 2);

  run_once(sim, director, p, Metric::kThroughput);  // failure 1
  run_once(sim, director, p, Metric::kThroughput);  // failure 2 -> trips
  const SensorHealth* health = director.health(&primary, p);
  ASSERT_NE(health, nullptr);
  EXPECT_EQ(health->state, BreakerState::kOpen);
  EXPECT_EQ(health->trips, 1u);
  EXPECT_EQ(primary.calls, 2);

  // While open the primary is skipped outright.
  auto skipped = run_once(sim, director, p, Metric::kThroughput);
  EXPECT_EQ(primary.calls, 2);
  EXPECT_EQ(director.stats().breaker_skips, 1u);
  ASSERT_EQ(skipped.size(), 1u);
  EXPECT_EQ(skipped[0].value.quality, SampleQuality::kFallback);

  // After the open window a half-open probe is admitted; success recloses.
  primary.behavior = ScriptedSensor::Behavior::kSucceed;
  sim.run_for(Duration::sec(11));
  auto probed = run_once(sim, director, p, Metric::kThroughput);
  EXPECT_EQ(primary.calls, 3);
  ASSERT_EQ(probed.size(), 1u);
  EXPECT_TRUE(probed[0].value.valid);
  EXPECT_EQ(probed[0].value.quality, SampleQuality::kFresh);
  EXPECT_EQ(director.health(&primary, p)->state, BreakerState::kClosed);
  EXPECT_EQ(director.health(&primary, p)->consecutive_failures, 0);
}

TEST(Supervision, BreakerIsScopedPerSensorAndPath) {
  sim::Simulator sim;
  SupervisionConfig sup;
  sup.breaker_threshold = 2;
  sup.breaker_open_for = Duration::sec(10);
  SensorDirector director(sim, 1, sup);
  ScriptedSensor primary(sim, "primary", 9.0);
  ScriptedSensor backup(sim, "backup", 4.0);
  primary.fail_destination = net::IpAddr(10, 0, 0, 2);
  director.register_sensor(Metric::kThroughput, &primary);
  director.register_fallback(Metric::kThroughput, &backup);
  const Path dead = make_path(1, 2);   // destination 10.0.0.2 is down
  const Path alive = make_path(1, 3);

  for (int i = 0; i < 3; ++i) {
    run_once(sim, director, dead, Metric::kThroughput);
    run_once(sim, director, alive, Metric::kThroughput);
  }
  // The dead destination tripped its own breaker...
  ASSERT_NE(director.health(&primary, dead), nullptr);
  EXPECT_EQ(director.health(&primary, dead)->state, BreakerState::kOpen);
  // ...without poisoning the sensor's standing on the healthy path: tuples
  // there still come from the primary, at full fidelity.
  ASSERT_NE(director.health(&primary, alive), nullptr);
  EXPECT_EQ(director.health(&primary, alive)->state, BreakerState::kClosed);
  auto tuples = run_once(sim, director, alive, Metric::kThroughput);
  ASSERT_EQ(tuples.size(), 1u);
  EXPECT_TRUE(tuples[0].value.valid);
  EXPECT_DOUBLE_EQ(tuples[0].value.value, 9.0);
  EXPECT_EQ(tuples[0].value.quality, SampleQuality::kFresh);
}

TEST(Supervision, HalfOpenFailureReopensBreaker) {
  sim::Simulator sim;
  SupervisionConfig sup;
  sup.breaker_threshold = 1;
  sup.breaker_open_for = Duration::sec(10);
  SensorDirector director(sim, 1, sup);
  ScriptedSensor primary(sim, "primary", 9.0);
  ScriptedSensor backup(sim, "backup", 4.0);
  primary.behavior = ScriptedSensor::Behavior::kFail;
  director.register_sensor(Metric::kThroughput, &primary);
  director.register_fallback(Metric::kThroughput, &backup);
  const Path p = make_path(1, 2);

  run_once(sim, director, p, Metric::kThroughput);  // trips immediately
  EXPECT_EQ(director.health(&primary, p)->state, BreakerState::kOpen);
  sim.run_for(Duration::sec(11));
  run_once(sim, director, p, Metric::kThroughput);  // half-open probe fails
  EXPECT_EQ(director.health(&primary, p)->state, BreakerState::kOpen);
  EXPECT_EQ(director.health(&primary, p)->trips, 2u);
}

// --- exhaustion & stale re-reporting ----------------------------------------

TEST(Supervision, ExhaustionReportsFailedTupleNotSilence) {
  sim::Simulator sim;
  SensorDirector director(sim, 1);
  ScriptedSensor broken(sim, "broken", 0.0);
  broken.behavior = ScriptedSensor::Behavior::kFail;
  director.register_sensor(Metric::kThroughput, &broken);

  auto tuples = run_once(sim, director, make_path(1, 2), Metric::kThroughput);
  ASSERT_EQ(tuples.size(), 1u);  // the failure is reported, not dropped
  EXPECT_FALSE(tuples[0].value.valid);
  EXPECT_EQ(director.stats().exhausted, 1u);
  EXPECT_EQ(director.stats().measurements_failed, 1u);
}

TEST(Supervision, StaleReReportOnExhaustion) {
  sim::Simulator sim;
  SupervisionConfig sup;
  sup.report_stale_on_exhaustion = true;
  SensorDirector director(sim, 1, sup);
  ScriptedSensor sensor(sim, "s", 42.0);
  director.register_sensor(Metric::kThroughput, &sensor);
  const Path p = make_path(1, 2);

  auto first = run_once(sim, director, p, Metric::kThroughput);
  ASSERT_EQ(first.size(), 1u);
  const TimePoint good_at = first[0].value.measured_at;

  sensor.behavior = ScriptedSensor::Behavior::kFail;
  auto second = run_once(sim, director, p, Metric::kThroughput);
  ASSERT_EQ(second.size(), 1u);
  // The last known good value rides again, flagged stale with its original
  // timestamp, so the consumer knows exactly how old its basis is.
  EXPECT_TRUE(second[0].value.valid);
  EXPECT_DOUBLE_EQ(second[0].value.value, 42.0);
  EXPECT_EQ(second[0].value.quality, SampleQuality::kStale);
  EXPECT_EQ(second[0].value.measured_at.nanos(), good_at.nanos());
  EXPECT_EQ(director.stats().stale_reports, 1u);
  EXPECT_EQ(director.stats().exhausted, 1u);

  // The database recorded the *failure* — last-known is not refreshed with
  // recycled data, and senescence keeps growing.
  auto last = director.database().last_known(p, Metric::kThroughput);
  ASSERT_TRUE(last);
  EXPECT_EQ(last->value.measured_at.nanos(), good_at.nanos());
  const auto* history = director.database().history(p, Metric::kThroughput);
  ASSERT_NE(history, nullptr);
  EXPECT_FALSE(history->newest().value.valid);
  EXPECT_EQ(history->newest().value.quality, SampleQuality::kStale);
}

TEST(Supervision, StaleWithoutHistoryStillReportsFailure) {
  sim::Simulator sim;
  SupervisionConfig sup;
  sup.report_stale_on_exhaustion = true;
  SensorDirector director(sim, 1, sup);
  ScriptedSensor broken(sim, "broken", 0.0);
  broken.behavior = ScriptedSensor::Behavior::kFail;
  director.register_sensor(Metric::kThroughput, &broken);

  auto tuples = run_once(sim, director, make_path(1, 2), Metric::kThroughput);
  ASSERT_EQ(tuples.size(), 1u);
  EXPECT_FALSE(tuples[0].value.valid);  // nothing to re-report yet
  EXPECT_EQ(director.stats().stale_reports, 0u);
}

// --- full pipeline: deadline -> retry -> fallback ---------------------------

TEST(Supervision, DeadlineRetryFallbackPipeline) {
  sim::Simulator sim;
  SupervisionConfig sup;
  sup.deadline = Duration::ms(500);
  sup.max_retries = 1;
  sup.backoff_base = Duration::ms(100);
  SensorDirector director(sim, 2, sup);
  ScriptedSensor hung(sim, "hung", 9.0);
  ScriptedSensor backup(sim, "backup", 4.0);
  hung.behavior = ScriptedSensor::Behavior::kHang;
  director.register_sensor(Metric::kThroughput, &hung);
  director.register_fallback(Metric::kThroughput, &backup);

  auto tuples = run_once(sim, director, make_path(1, 2), Metric::kThroughput);
  // Timeline: attempt 1 hangs, times out at 500ms; retry after ~100ms
  // backoff hangs, times out; chain falls through to the backup.
  ASSERT_EQ(tuples.size(), 1u);
  EXPECT_TRUE(tuples[0].value.valid);
  EXPECT_DOUBLE_EQ(tuples[0].value.value, 4.0);
  EXPECT_EQ(tuples[0].value.quality, SampleQuality::kFallback);
  EXPECT_EQ(hung.calls, 2);
  EXPECT_EQ(director.stats().timeouts, 2u);
  EXPECT_EQ(director.stats().retries, 1u);
  EXPECT_EQ(director.stats().fallbacks, 1u);
  EXPECT_EQ(director.sequencer().in_flight(), 0u);
}

// --- SNMP poll exhaustion through the director ------------------------------

TEST(Supervision, SnmpPollExhaustionYieldsFailedSample) {
  sim::Simulator sim;
  apps::TestbedOptions options;
  options.servers = 1;
  options.clients = 1;
  apps::Testbed bed(sim, options);

  ScalableMonitor::Config cfg;
  cfg.manager.timeout = Duration::ms(200);
  cfg.manager.retries = 2;
  ScalableMonitor monitor(bed.network(), bed.station(), cfg);

  // The polled host is dead: every SNMP get (and each retry) times out.
  bed.server(0).set_up(false);

  MonitorRequest request;
  request.paths.push_back(
      PathRequest{bed.path(0, 0), {Metric::kReachability}});
  std::vector<PathMetricTuple> tuples;
  monitor.director().submit(request, [&](const PathMetricTuple& t) {
    tuples.push_back(t);
  });
  sim.run();

  // Retry exhaustion surfaces as a failed sample, never a missing one.
  ASSERT_EQ(tuples.size(), 1u);
  EXPECT_FALSE(tuples[0].value.valid);
  EXPECT_GE(monitor.manager().counters().timeouts, 1u);
  EXPECT_GE(monitor.manager().counters().retries, 2u);
  EXPECT_EQ(monitor.director().stats().measurements_failed, 1u);
}

}  // namespace
}  // namespace netmon::core
