#pragma once

// Deterministic discrete-event simulator. All substrates (network, clocks,
// SNMP, probes) are driven by events scheduled here. Ties at equal timestamps
// break by insertion order, so a given seed reproduces a run exactly.
//
// Hot-path layout (see DESIGN.md "Event core internals"):
//  - callbacks live in a generation-counted slot table with chunked, stable
//    storage; one-shot callbacks are moved out exactly once when they fire;
//  - both one-shot and periodic timers live in a hierarchical timing wheel:
//    O(1) insert and expiry, and steady-state periodic probes allocate
//    nothing per tick. Firings that cannot tie with a queued heap event are
//    dispatched directly in seq order, skipping the heap entirely;
//  - a 4-ary min-heap of 24-byte POD nodes keyed (time, seq) settles exact
//    ordering for events scheduled at the current instant and for wheel
//    firings that tie with a queued event; callbacks never travel through
//    the heap;
//  - EventHandle references a slot generation: cancel() is O(1) and stale
//    handles (fired events, re-used slots) degrade to no-ops;
//  - callbacks use a small-buffer-optimized move-only wrapper, so lambdas
//    capturing `this` plus a few words never touch the heap allocator.

#include <cstdint>
#include <memory>
#include <vector>

#include "obs/metrics.hpp"
#include "sim/event_heap.hpp"
#include "sim/time.hpp"
#include "sim/timer_wheel.hpp"
#include "util/function.hpp"

namespace netmon::sim {

// Small-buffer-optimized event callback: 48 inline bytes covers `this` plus
// several captured words without an allocation.
using Callback = util::SmallFunction<void(), 48>;

namespace detail {

// Generation-counted slot table plus the periodic timer wheel. Shared (via
// shared_ptr) between the Simulator and outstanding EventHandles, so a
// handle that outlives its event — or even the run — cancels safely in O(1).
// Slots are stored in fixed chunks so their addresses are stable: a periodic
// callback can be invoked in place even if firing it schedules new events
// and grows the table.
class EventCore {
 public:
  static constexpr std::uint32_t kNil = TimerWheel::kNil;

  enum class Kind : std::uint8_t { kFree, kOneShot, kPeriodic };

  struct Slot {
    std::uint32_t gen = 0;
    Kind kind = Kind::kFree;
    bool cancel_requested = false;  // cancel() arrived while firing
    std::uint32_t next_free = kNil;
    std::int64_t period_ns = 0;  // periodic only
    std::int64_t next_ns = 0;    // absolute time of the next firing
    std::uint64_t next_seq = 0;  // tie-break seq of the next firing
    Callback fn;
  };

  std::uint32_t acquire(Kind kind) {
    std::uint32_t idx;
    if (free_head_ != kNil) {
      idx = free_head_;
      free_head_ = slot(idx).next_free;
    } else {
      if ((count_ & kChunkMask) == 0) {
        chunks_.push_back(std::make_unique<Slot[]>(kChunkSize));
      }
      idx = static_cast<std::uint32_t>(count_++);
      wheel_.ensure_capacity(count_);
    }
    Slot& s = slot(idx);
    s.kind = kind;
    s.cancel_requested = false;
    s.next_free = kNil;
    return idx;
  }

  void release(std::uint32_t idx) {
    Slot& s = slot(idx);
    s.fn = Callback{};
    s.kind = Kind::kFree;
    s.cancel_requested = false;
    ++s.gen;  // invalidates every outstanding handle and queued heap node
    s.next_free = free_head_;
    free_head_ = idx;
  }

  bool matches(std::uint32_t idx, std::uint32_t gen) const {
    if (idx >= count_) return false;
    const Slot& s = slot(idx);
    return s.kind != Kind::kFree && s.gen == gen;
  }

  bool pending(std::uint32_t idx, std::uint32_t gen) const {
    return matches(idx, gen) && !slot(idx).cancel_requested;
  }

  void cancel(std::uint32_t idx, std::uint32_t gen) {
    if (!matches(idx, gen)) return;
    if (idx == firing_) {
      // Cancellation from inside the firing callback: the callback object is
      // executing, so defer the release to the dispatcher.
      slot(idx).cancel_requested = true;
      return;
    }
    // One-shots and periodics both live in the wheel; remove() is a no-op
    // for ids currently queued in the heap or a dispatch batch instead.
    wheel_.remove(idx);
    release(idx);
  }

  // Destroys every live callback and invalidates all slots. Called from the
  // simulator's destructor to break shared_ptr cycles: a callback capturing
  // an EventHandle would otherwise keep this core alive through itself.
  // Outstanding handles turn stale (cancel() becomes a no-op).
  void shutdown() {
    for (std::uint32_t i = 0; i < count_; ++i) {
      Slot& s = slot(i);
      if (s.kind != Kind::kFree) {
        s.fn = Callback{};
        s.kind = Kind::kFree;
        ++s.gen;
      }
    }
  }

  Slot& slot(std::uint32_t idx) { return chunks_[idx >> kChunkShift][idx & kChunkMask]; }
  const Slot& slot(std::uint32_t idx) const {
    return chunks_[idx >> kChunkShift][idx & kChunkMask];
  }
  TimerWheel& wheel() { return wheel_; }
  const TimerWheel& wheel() const { return wheel_; }
  void begin_firing(std::uint32_t idx) { firing_ = idx; }
  void end_firing() { firing_ = kNil; }

 private:
  static constexpr unsigned kChunkShift = 6;
  static constexpr std::size_t kChunkSize = std::size_t{1} << kChunkShift;
  static constexpr std::size_t kChunkMask = kChunkSize - 1;

  std::vector<std::unique_ptr<Slot[]>> chunks_;
  std::size_t count_ = 0;
  std::uint32_t free_head_ = kNil;
  std::uint32_t firing_ = kNil;
  TimerWheel wheel_;
};

}  // namespace detail

// Handle for cancelling a scheduled event. Cancellation of a queued one-shot
// is lazy (the heap node is skipped when popped); cancellation of a periodic
// timer unlinks it from the wheel immediately. Handles are generation
// checked: once the event has fired (one-shot) or been cancelled, the handle
// goes stale and further cancel() calls are no-ops.
class EventHandle {
 public:
  EventHandle() = default;
  void cancel() {
    if (core_) core_->cancel(slot_, gen_);
  }
  bool valid() const { return core_ != nullptr; }
  // True while the event is still scheduled to fire (periodic: not yet
  // cancelled; one-shot: not yet fired or cancelled).
  bool pending() const { return core_ && core_->pending(slot_, gen_); }

 private:
  friend class Simulator;
  EventHandle(std::shared_ptr<detail::EventCore> core, std::uint32_t slot,
              std::uint32_t gen)
      : core_(std::move(core)), slot_(slot), gen_(gen) {}
  std::shared_ptr<detail::EventCore> core_;
  std::uint32_t slot_ = 0;
  std::uint32_t gen_ = 0;
};

class Simulator {
 public:
  Simulator() : core_(std::make_shared<detail::EventCore>()) {}
  ~Simulator() { core_->shutdown(); }
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  TimePoint now() const { return now_; }

  EventHandle schedule_at(TimePoint when, Callback fn);
  EventHandle schedule_in(Duration delay, Callback fn);

  // Repeats fn every `period` starting at now()+period, until cancelled.
  EventHandle schedule_periodic(Duration period, Callback fn);

  // Run until the queue drains or `limit` events have fired.
  void run(std::uint64_t limit = UINT64_MAX);
  // Run events with time <= deadline; leaves now() == deadline.
  void run_until(TimePoint deadline);
  void run_for(Duration d) { run_until(now_ + d); }
  // Stop the current run() after the in-flight event completes. A stop
  // requested while not running makes the next run()/run_until() return
  // immediately; each run call consumes (resets) the request on exit.
  void stop() { stop_requested_ = true; }

  bool empty() const { return pending_events() == 0; }
  std::size_t pending_events() const {
    return heap_.size() + core_->wheel().size() + (batch_.size() - batch_pos_);
  }
  std::uint64_t events_executed() const { return executed_; }

  // Installs/removes the "[t=...]" prefix on the global logger.
  void attach_logger();
  void detach_logger();

  // Self-observability (DESIGN.md §10). Registers under "<prefix>.":
  // schedule counters, a sampled schedule-horizon histogram (ns between
  // scheduling an event and its due time — the sim-time latency an event
  // waits before firing), a sampled queue-depth histogram, and live
  // gauge_fns for events_executed / pending_events / now. Purely passive:
  // attaching never schedules events, so event order — and the event-core
  // golden trace — is unchanged. Detached (default) the hot path pays one
  // null check; with NETMON_OBS_ENABLED=0 it pays nothing. Re-attaching
  // moves the metrics; destruction removes them.
  void attach_observability(obs::Registry& registry,
                            const std::string& prefix = "sim");

 private:
  // 1-in-64 sampling keeps histogram updates off the schedule fast path:
  // a pair of P² observations costs a few hundred ns, the raw schedule
  // path ~200 ns, so the amortized attached overhead stays under the 5%
  // bench budget. The first schedule is always observed (tick starts at
  // 0), so short workloads still populate the histograms.
  static constexpr std::uint32_t kObsSampleMask = 63;

  void observe_schedule(std::int64_t horizon_ns) {
    if constexpr (obs::kCompiledIn) {
      if (obs_schedules_ == nullptr) return;
      obs_schedules_->inc();
      if ((obs_tick_++ & kObsSampleMask) == 0) {
        obs_horizon_->observe(static_cast<double>(horizon_ns));
        obs_depth_->observe(static_cast<double>(pending_events()));
      }
    } else {
      (void)horizon_ns;
    }
  }
  struct HeapNode {  // 24-byte POD; callbacks stay in the slot table
    std::int64_t at;
    std::uint64_t seq;
    std::uint32_t slot;
    std::uint32_t gen;
  };
  struct NodeLess {
    bool operator()(const HeapNode& a, const HeapNode& b) const {
      if (a.at != b.at) return a.at < b.at;
      return a.seq < b.seq;
    }
  };
  struct DueTimer {
    std::uint32_t slot;
    std::uint32_t gen;
    std::uint64_t seq;
  };

  // Flushes due timer-wheel buckets until the globally next event is known:
  // either the heap top, or a batch of periodic firings (batch_ non-empty)
  // that cannot tie with any queued one-shot and so skips the heap. Returns
  // false if nothing is schedulable at or before `horizon`.
  bool advance_to_next(std::int64_t horizon);
  void dispatch_heap(HeapNode& node);
  void run_due(std::uint32_t idx, std::uint32_t gen);

  TimePoint now_{};
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  bool stop_requested_ = false;
  EventHeap<HeapNode, NodeLess> heap_;
  std::shared_ptr<detail::EventCore> core_;
  std::vector<std::uint32_t> expired_;  // scratch: ids from wheel expiry
  std::vector<DueTimer> batch_;         // direct-dispatch wheel batch
  std::size_t batch_pos_ = 0;
  std::int64_t batch_at_ = 0;

  // Observability handles (null while detached; owned by the registry).
  obs::Scope obs_;
  obs::Counter* obs_schedules_ = nullptr;
  obs::Histogram* obs_horizon_ = nullptr;
  obs::Histogram* obs_depth_ = nullptr;
  std::uint32_t obs_tick_ = 0;
};

// RAII helper used by periodic components: cancels its event on destruction.
class PeriodicTask {
 public:
  PeriodicTask() = default;
  PeriodicTask(Simulator& sim, Duration period, Callback fn)
      : handle_(sim.schedule_periodic(period, std::move(fn))) {}
  PeriodicTask(PeriodicTask&& o) noexcept : handle_(o.handle_) {
    o.handle_ = EventHandle{};
  }
  PeriodicTask& operator=(PeriodicTask&& o) noexcept {
    if (this != &o) {
      handle_.cancel();
      handle_ = o.handle_;
      o.handle_ = EventHandle{};
    }
    return *this;
  }
  PeriodicTask(const PeriodicTask&) = delete;
  PeriodicTask& operator=(const PeriodicTask&) = delete;
  ~PeriodicTask() { handle_.cancel(); }
  void cancel() { handle_.cancel(); }
  bool active() const { return handle_.pending(); }

 private:
  EventHandle handle_;
};

}  // namespace netmon::sim
