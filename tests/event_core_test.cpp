// Tests for the allocation-free event core: the 4-ary event heap, the
// hierarchical timer wheel, the SmallFunction callback wrapper, handle
// cancellation in every state, and — most importantly — the determinism
// regression: the golden hash below was captured from the pre-overhaul
// std::priority_queue implementation, so any reordering of live events at
// equal timestamps (or any change to seq assignment) fails this file.

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <random>
#include <utility>
#include <vector>

#include "sim/event_heap.hpp"
#include "sim/simulator.hpp"
#include "sim/timer_wheel.hpp"
#include "util/function.hpp"

namespace netmon::sim {
namespace {

// ---------------------------------------------------------------------------
// Determinism golden trace

// Captured from the seed implementation (std::priority_queue event queue)
// before the event-core overhaul; the workload exercises periodic ties,
// one-shot/periodic interleaving at equal timestamps, nested scheduling,
// cancellation mid-run, and self-cancellation from inside a callback.
constexpr std::uint64_t kGoldenTraceHash = 0x1648e4f5d335438full;

std::uint64_t trace_hash() {
  sim::Simulator s;
  std::uint64_t h = 1469598103934665603ull;  // FNV-1a offset basis
  auto mix = [&h, &s](std::uint64_t marker) {
    h ^= marker;
    h *= 1099511628211ull;
    h ^= static_cast<std::uint64_t>(s.now().nanos());
    h *= 1099511628211ull;
  };

  // Periodic probes at RTDS-like cadences, including exact ties at 30/60 ms.
  auto p30 = s.schedule_periodic(sim::Duration::ms(30), [&] { mix(1); });
  auto p10 = s.schedule_periodic(sim::Duration::ms(10), [&] { mix(2); });
  auto p15 = s.schedule_periodic(sim::Duration::ms(15), [&] { mix(3); });

  // One-shot events, several tying with periodic firings (30, 45, 60 ms...).
  for (int i = 0; i < 40; ++i) {
    s.schedule_in(sim::Duration::ms(3 * ((i * 7) % 31)), [&mix, i] {
      mix(100 + static_cast<std::uint64_t>(i));
    });
  }

  // Nested scheduling from inside a callback, plus cancellation of a pending
  // one-shot and of a periodic chain mid-run.
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
  // A periodic that cancels itself from inside its own callback.
  auto self_cancel = std::make_shared<sim::EventHandle>();
  *self_cancel = s.schedule_periodic(sim::Duration::ms(7), [&, self_cancel] {
    mix(9);
    if (s.now().nanos() >= sim::Duration::ms(21).nanos()) {
      self_cancel->cancel();
    }
  });

  s.run_until(sim::TimePoint::from_nanos(0) + sim::Duration::ms(80));
  // Stop the unbounded chains, then drain the remaining one-shots.
  p10.cancel();
  p15.cancel();
  s.run();
  mix(static_cast<std::uint64_t>(s.events_executed()));
  return h;
}

TEST(EventCoreDeterminism, GoldenTraceMatchesSeedImplementation) {
  EXPECT_EQ(trace_hash(), kGoldenTraceHash);
}

TEST(EventCoreDeterminism, RepeatedRunsAreIdentical) {
  const std::uint64_t first = trace_hash();
  for (int i = 0; i < 3; ++i) EXPECT_EQ(trace_hash(), first);
}

// ---------------------------------------------------------------------------
// EventHandle cancellation in every state

TEST(EventHandleCancel, PendingOneShotNeverFires) {
  Simulator s;
  int fired = 0;
  EventHandle h = s.schedule_in(Duration::ms(5), [&] { ++fired; });
  EXPECT_TRUE(h.pending());
  h.cancel();
  EXPECT_FALSE(h.pending());
  s.run();
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(s.events_executed(), 0u);
}

TEST(EventHandleCancel, FiredOneShotIsStale) {
  Simulator s;
  int fired = 0;
  EventHandle h = s.schedule_in(Duration::ms(5), [&] { ++fired; });
  s.run();
  EXPECT_EQ(fired, 1);
  EXPECT_FALSE(h.pending());  // slot generation bumped on firing
  h.cancel();                 // stale: must be a harmless no-op
  h.cancel();
  // The slot may be reused by a new event; the stale handle must not be
  // able to cancel the newcomer.
  int second = 0;
  EventHandle h2 = s.schedule_in(Duration::ms(1), [&] { ++second; });
  h.cancel();
  EXPECT_TRUE(h2.pending());
  s.run();
  EXPECT_EQ(second, 1);
}

TEST(EventHandleCancel, PeriodicStopsReArming) {
  Simulator s;
  int fired = 0;
  EventHandle h = s.schedule_periodic(Duration::ms(10), [&] { ++fired; });
  s.run_until(TimePoint::from_nanos(0) + Duration::ms(35));
  EXPECT_EQ(fired, 3);
  EXPECT_TRUE(h.pending());
  h.cancel();
  EXPECT_FALSE(h.pending());
  EXPECT_TRUE(s.empty());  // cancellation unlinks from the wheel immediately
  s.run_until(TimePoint::from_nanos(0) + Duration::ms(100));
  EXPECT_EQ(fired, 3);
}

TEST(EventHandleCancel, FromInsideOwnCallback) {
  Simulator s;
  int fired = 0;
  auto h = std::make_shared<EventHandle>();
  *h = s.schedule_periodic(Duration::ms(10), [&, h] {
    if (++fired == 2) h->cancel();  // cancel while the callback is executing
  });
  s.run_until(TimePoint::from_nanos(0) + Duration::ms(100));
  EXPECT_EQ(fired, 2);
  EXPECT_FALSE(h->pending());
  EXPECT_TRUE(s.empty());
}

TEST(EventHandleCancel, AnotherEventCancelsPeriodicBetweenFirings) {
  Simulator s;
  int fired = 0;
  EventHandle p = s.schedule_periodic(Duration::ms(10), [&] { ++fired; });
  s.schedule_in(Duration::ms(25), [&] { p.cancel(); });
  s.run();
  EXPECT_EQ(fired, 2);  // 10ms, 20ms; the 30ms firing is unlinked
}

TEST(EventHandleCancel, HandleOutlivesSimulator) {
  EventHandle h;
  {
    Simulator s;
    h = s.schedule_in(Duration::ms(5), [] {});
  }
  h.cancel();  // core kept alive by the handle's shared_ptr; no UAF
  EXPECT_TRUE(h.valid());
}

TEST(SimulatorStop, BeforeRunMakesNextRunReturnImmediately) {
  Simulator s;
  int fired = 0;
  s.schedule_in(Duration::ms(1), [&] { ++fired; });
  s.stop();
  s.run();  // consumes the stop request, fires nothing
  EXPECT_EQ(fired, 0);
  s.run();  // request was reset on exit: this run proceeds normally
  EXPECT_EQ(fired, 1);
}

TEST(SimulatorStop, RunUntilConsumesStopAndKeepsClock) {
  Simulator s;
  s.schedule_in(Duration::ms(2), [&] { s.stop(); });
  s.run_until(TimePoint::from_nanos(0) + Duration::ms(10));
  // Stopped mid-window: the clock stays at the stopping event.
  EXPECT_EQ(s.now().nanos(), Duration::ms(2).nanos());
  s.run_until(TimePoint::from_nanos(0) + Duration::ms(10));
  EXPECT_EQ(s.now().nanos(), Duration::ms(10).nanos());
}

// ---------------------------------------------------------------------------
// EventHeap

TEST(EventHeap, PopsInSortedOrder) {
  struct Less {
    bool operator()(int a, int b) const { return a < b; }
  };
  EventHeap<int, Less> heap;
  std::mt19937 rng(7);
  std::vector<int> values;
  for (int i = 0; i < 1000; ++i) {
    values.push_back(static_cast<int>(rng() % 10000));
  }
  for (int v : values) heap.push(v);
  EXPECT_EQ(heap.size(), values.size());
  int prev = -1;
  while (!heap.empty()) {
    const int v = heap.pop();
    EXPECT_LE(prev, v);
    prev = v;
  }
}

TEST(EventHeap, EqualKeysPopInInsertionOrder) {
  struct Node {
    int key;
    int seq;
  };
  struct Less {
    bool operator()(const Node& a, const Node& b) const {
      if (a.key != b.key) return a.key < b.key;
      return a.seq < b.seq;
    }
  };
  EventHeap<Node, Less> heap;
  for (int i = 0; i < 100; ++i) heap.push(Node{i % 5, i});
  int prev_key = -1, prev_seq = -1;
  while (!heap.empty()) {
    const Node n = heap.pop();
    if (n.key == prev_key) EXPECT_LT(prev_seq, n.seq);
    EXPECT_LE(prev_key, n.key);
    prev_key = n.key;
    prev_seq = n.seq;
  }
}

// ---------------------------------------------------------------------------
// TimerWheel

TEST(TimerWheel, SingleTimerExpiresAtExactBoundary) {
  TimerWheel w;
  w.ensure_capacity(4);
  ASSERT_TRUE(w.insert(0, 10'000));
  EXPECT_EQ(w.next_boundary(), 10'000);
  std::vector<std::uint32_t> due;
  EXPECT_EQ(w.expire_earliest_until(9'999, due), TimerWheel::kNever);
  EXPECT_TRUE(due.empty());
  EXPECT_EQ(w.expire_earliest_until(10'000, due), 10'000);
  ASSERT_EQ(due.size(), 1u);
  EXPECT_EQ(due[0], 0u);
  EXPECT_TRUE(w.empty());
}

TEST(TimerWheel, RejectsNonFutureExpiry) {
  TimerWheel w;
  w.ensure_capacity(1);
  w.advance(500);
  EXPECT_FALSE(w.insert(0, 500));  // == cursor: caller dispatches directly
  EXPECT_FALSE(w.insert(0, 100));
  EXPECT_TRUE(w.insert(0, 501));
}

TEST(TimerWheel, ManyTimersExpireInGlobalOrder) {
  TimerWheel w;
  constexpr std::uint32_t kN = 500;
  w.ensure_capacity(kN);
  std::mt19937_64 rng(42);
  std::vector<std::int64_t> expiry(kN);
  for (std::uint32_t i = 0; i < kN; ++i) {
    // Spread across several wheel levels, with duplicates.
    expiry[i] = 1 + static_cast<std::int64_t>(rng() % 3'000'000);
    ASSERT_TRUE(w.insert(i, expiry[i]));
  }
  EXPECT_EQ(w.size(), kN);
  std::int64_t prev = 0;
  std::size_t popped = 0;
  std::vector<std::uint32_t> due;
  for (;;) {
    due.clear();
    const std::int64_t b =
        w.expire_earliest_until(TimerWheel::kNever - 1, due);
    if (b == TimerWheel::kNever) break;
    if (due.empty()) continue;  // pure cascade step
    EXPECT_GT(b, prev);
    prev = b;
    for (std::uint32_t id : due) {
      EXPECT_EQ(expiry[id], b);  // due only at the exact boundary
      ++popped;
    }
  }
  EXPECT_EQ(popped, kN);
  EXPECT_TRUE(w.empty());
}

TEST(TimerWheel, RemoveUnlinksBothSoloAndBucketEntries) {
  TimerWheel w;
  w.ensure_capacity(3);
  ASSERT_TRUE(w.insert(0, 1'000));  // solo slot
  w.remove(0);
  EXPECT_TRUE(w.empty());
  EXPECT_EQ(w.next_boundary(), TimerWheel::kNever);

  ASSERT_TRUE(w.insert(0, 1'000));
  ASSERT_TRUE(w.insert(1, 2'000));  // demotes id 0 into the buckets
  ASSERT_TRUE(w.insert(2, 3'000));
  w.remove(1);
  w.remove(1);  // double remove is a no-op
  EXPECT_EQ(w.size(), 2u);
  std::vector<std::uint32_t> due;
  std::size_t seen = 0;
  for (;;) {
    due.clear();
    if (w.expire_earliest_until(TimerWheel::kNever - 1, due) ==
        TimerWheel::kNever) {
      break;
    }
    for (std::uint32_t id : due) {
      EXPECT_NE(id, 1u);
      ++seen;
    }
  }
  EXPECT_EQ(seen, 2u);
}

// ---------------------------------------------------------------------------
// SmallFunction

TEST(SmallFunction, InlineCaptureInvokes) {
  int x = 0;
  util::SmallFunction<void(), 48> f([&x] { ++x; });
  f();
  f();
  EXPECT_EQ(x, 2);
  EXPECT_TRUE(static_cast<bool>(f));
}

TEST(SmallFunction, MoveTransfersOwnership) {
  int calls = 0;
  util::SmallFunction<int(int), 48> f([&calls](int v) {
    ++calls;
    return v * 2;
  });
  auto g = std::move(f);
  EXPECT_FALSE(static_cast<bool>(f));  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(g(21), 42);
  EXPECT_EQ(calls, 1);
  EXPECT_THROW(f(3), std::bad_function_call);
}

TEST(SmallFunction, LargeCaptureFallsBackToHeap) {
  std::array<std::uint64_t, 16> big{};  // 128 bytes: exceeds the inline buffer
  big[0] = 7;
  big[15] = 35;
  util::SmallFunction<std::uint64_t(), 48> f(
      [big] { return big[0] + big[15]; });
  auto g = std::move(f);
  EXPECT_EQ(g(), 42u);
}

TEST(SmallFunction, DestroysCaptureExactlyOnce) {
  auto token = std::make_shared<int>(1);
  std::weak_ptr<int> observer = token;
  {
    util::SmallFunction<void(), 48> f([token] {});
    token.reset();
    EXPECT_FALSE(observer.expired());
    util::SmallFunction<void(), 48> g = std::move(f);
    EXPECT_FALSE(observer.expired());
  }
  EXPECT_TRUE(observer.expired());
}

TEST(SmallFunction, ConstCallInvokesMutableTarget) {
  // Like std::function: a const wrapper (or a capture inside a non-mutable
  // lambda) still runs a mutable target, whose state persists across calls.
  const util::SmallFunction<int(), 48> f([n = 0]() mutable { return ++n; });
  EXPECT_EQ(f(), 1);
  EXPECT_EQ(f(), 2);
  util::SmallFunction<int(int), 48> g([](int v) { return v + 1; });
  auto forward = [g = std::move(g)](int v) { return g(v); };  // const capture
  EXPECT_EQ(forward(41), 42);
}

TEST(SmallFunction, ConstCallOnHeapFallback) {
  std::array<std::uint64_t, 16> big{};  // exceeds the 16-byte inline buffer
  big[3] = 40;
  const util::SmallFunction<std::uint64_t(std::uint64_t), 16> f(
      [big, calls = std::uint64_t{0}](std::uint64_t v) mutable {
        return big[3] + v + ++calls;
      });
  EXPECT_EQ(f(1), 42u);
  EXPECT_EQ(f(1), 43u);  // the heap-held target keeps its state
}

TEST(SmallFunction, ConstCallOnEmptyThrows) {
  const util::SmallFunction<void(), 48> empty(nullptr);
  EXPECT_FALSE(static_cast<bool>(empty));
  EXPECT_THROW(empty(), std::bad_function_call);
}

// ---------------------------------------------------------------------------
// Steady-state periodic dispatch really is a fixed point (no queue growth).

TEST(Simulator, PeriodicSteadyStateKeepsPendingCountFlat) {
  Simulator s;
  std::uint64_t fired = 0;
  for (int i = 0; i < 32; ++i) {
    s.schedule_periodic(Duration::us(10 + i), [&] { ++fired; });
  }
  s.run_until(TimePoint::from_nanos(0) + Duration::ms(1));
  const std::size_t pending = s.pending_events();
  s.run_until(TimePoint::from_nanos(0) + Duration::ms(10));
  EXPECT_EQ(s.pending_events(), pending);  // re-arming, never accumulating
  EXPECT_GT(fired, 10'000u);
}

}  // namespace
}  // namespace netmon::sim
