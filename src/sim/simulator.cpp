#include "sim/simulator.hpp"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <stdexcept>

#include "util/logging.hpp"

namespace netmon::sim {

std::string Duration::to_string() const {
  char buf[64];
  if (ns_ % 1'000'000'000 == 0) {
    std::snprintf(buf, sizeof(buf), "%llds", static_cast<long long>(ns_ / 1'000'000'000));
  } else if (ns_ % 1'000'000 == 0) {
    std::snprintf(buf, sizeof(buf), "%lldms", static_cast<long long>(ns_ / 1'000'000));
  } else if (ns_ % 1'000 == 0) {
    std::snprintf(buf, sizeof(buf), "%lldus", static_cast<long long>(ns_ / 1'000));
  } else {
    std::snprintf(buf, sizeof(buf), "%lldns", static_cast<long long>(ns_));
  }
  return buf;
}

std::string TimePoint::to_string() const {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6fs", to_seconds());
  return buf;
}

EventHandle Simulator::schedule_at(TimePoint when, Callback fn) {
  if (when < now_) {
    throw std::logic_error("Simulator::schedule_at: time in the past");
  }
  const std::uint32_t idx = core_->acquire(detail::EventCore::Kind::kOneShot);
  detail::EventCore::Slot& s = core_->slot(idx);
  s.fn = std::move(fn);
  s.next_ns = when.nanos();
  s.next_seq = next_seq_++;
  // One-shots live in the timer wheel too: O(1) insert/expire instead of a
  // log-depth heap sift. Only events due at exactly now() (or colliding with
  // a stopped run's cursor) fall back to the heap, which settles exact
  // (time, seq) order for them as before.
  core_->wheel().advance(now_.nanos());
  if (!core_->wheel().insert(idx, s.next_ns)) {
    heap_.push(HeapNode{s.next_ns, s.next_seq, idx, s.gen});
  }
  observe_schedule(s.next_ns - now_.nanos());
  return EventHandle(core_, idx, s.gen);
}

EventHandle Simulator::schedule_in(Duration delay, Callback fn) {
  if (delay.is_negative()) {
    throw std::logic_error("Simulator::schedule_in: negative delay");
  }
  return schedule_at(now_ + delay, std::move(fn));
}

EventHandle Simulator::schedule_periodic(Duration period, Callback fn) {
  if (period <= Duration::ns(0)) {
    throw std::logic_error("Simulator::schedule_periodic: period must be > 0");
  }
  const std::uint32_t idx = core_->acquire(detail::EventCore::Kind::kPeriodic);
  detail::EventCore::Slot& s = core_->slot(idx);
  s.fn = std::move(fn);
  s.period_ns = period.nanos();
  s.next_ns = now_.nanos() + period.nanos();
  s.next_seq = next_seq_++;
  // Everything still linked expires after now() (due buckets are flushed
  // before any event at now() fires), so the cursor may catch up — fewer
  // cascade hops for the new entry.
  core_->wheel().advance(now_.nanos());
  if (!core_->wheel().insert(idx, s.next_ns)) {
    heap_.push(HeapNode{s.next_ns, s.next_seq, idx, s.gen});
  }
  observe_schedule(s.next_ns - now_.nanos());
  return EventHandle(core_, idx, s.gen);
}

bool Simulator::advance_to_next(std::int64_t horizon) {
  batch_.clear();
  batch_pos_ = 0;
  TimerWheel& wheel = core_->wheel();
  for (;;) {
    const std::int64_t heap_at =
        heap_.empty() ? TimerWheel::kNever : heap_.top().at;
    const std::int64_t flush_to = heap_at < horizon ? heap_at : horizon;
    expired_.clear();
    const std::int64_t boundary =
        wheel.expire_earliest_until(flush_to, expired_);
    if (boundary == TimerWheel::kNever) {
      // Next is a heap event within the horizon, or nothing at all.
      return heap_at != TimerWheel::kNever && heap_at <= horizon;
    }
    if (expired_.empty()) continue;  // pure cascade, keep draining
    if (boundary < heap_at) {
      // No queued heap event can tie with these firings: dispatch directly,
      // skipping the heap round trip. Order within the batch is by seq.
      for (const std::uint32_t idx : expired_) {
        const detail::EventCore::Slot& s = core_->slot(idx);
        batch_.push_back(DueTimer{idx, s.gen, s.next_seq});
      }
      if (batch_.size() > 1) {
        std::sort(batch_.begin(), batch_.end(),
                  [](const DueTimer& a, const DueTimer& b) {
                    return a.seq < b.seq;
                  });
      }
      batch_at_ = boundary;
      return true;
    }
    // Tie with the heap top at the same timestamp: merge through the heap,
    // which settles the exact (time, seq) interleaving.
    for (const std::uint32_t idx : expired_) {
      const detail::EventCore::Slot& s = core_->slot(idx);
      heap_.push(HeapNode{s.next_ns, s.next_seq, idx, s.gen});
    }
  }
}

void Simulator::dispatch_heap(HeapNode& node) {
  assert(node.at >= now_.nanos());
  now_ = TimePoint::from_nanos(node.at);
  run_due(node.slot, node.gen);
}

void Simulator::run_due(std::uint32_t idx, std::uint32_t gen) {
  detail::EventCore& core = *core_;
  if (!core.matches(idx, gen)) return;  // cancelled while queued or batched
  detail::EventCore::Slot& s = core.slot(idx);  // chunked storage: stable
  if (s.kind == detail::EventCore::Kind::kOneShot) {
    Callback fn = std::move(s.fn);
    core.release(idx);  // frees the slot before user code runs
    ++executed_;
    fn();
    return;
  }
  ++executed_;
  // The callback runs in place; cancel() from inside it is deferred via the
  // firing flag so the executing object is never destroyed mid-call.
  core.begin_firing(idx);
  s.fn();
  core.end_firing();
  if (!core.matches(idx, gen)) return;  // defensive
  if (s.cancel_requested) {
    core.release(idx);
    return;
  }
  s.next_ns += s.period_ns;  // fixed cadence, no drift
  s.next_seq = next_seq_++;  // seq assigned after the callback, as before
  if (!core.wheel().insert(idx, s.next_ns)) {
    heap_.push(HeapNode{s.next_ns, s.next_seq, idx, s.gen});
  }
}

void Simulator::run(std::uint64_t limit) {
  std::uint64_t fired = 0;
  while (!stop_requested_ && fired < limit) {
    if (batch_pos_ < batch_.size()) {
      const DueTimer due = batch_[batch_pos_++];
      now_ = TimePoint::from_nanos(batch_at_);
      run_due(due.slot, due.gen);
      ++fired;
      continue;
    }
    if (!advance_to_next(TimerWheel::kNever)) break;
    if (!batch_.empty()) continue;
    HeapNode node = heap_.pop();
    dispatch_heap(node);
    ++fired;
  }
  stop_requested_ = false;
}

void Simulator::run_until(TimePoint deadline) {
  const std::int64_t dl = deadline.nanos();
  while (!stop_requested_) {
    if (batch_pos_ < batch_.size()) {
      if (batch_at_ > dl) break;  // leftover batch from a stopped run
      const DueTimer due = batch_[batch_pos_++];
      now_ = TimePoint::from_nanos(batch_at_);
      run_due(due.slot, due.gen);
      continue;
    }
    if (!advance_to_next(dl)) break;
    if (!batch_.empty()) continue;
    HeapNode node = heap_.pop();  // single peek inside advance_to_next,
    dispatch_heap(node);          // one move-out pop here
  }
  const bool stopped = stop_requested_;
  stop_requested_ = false;
  if (!stopped && now_ < deadline) now_ = deadline;
}

void Simulator::attach_logger() {
  util::Logger::instance().set_time_source([this] {
    char buf[48];
    std::snprintf(buf, sizeof(buf), "[t=%.6f]", now_.to_seconds());
    return std::string(buf);
  });
}

void Simulator::detach_logger() {
  util::Logger::instance().clear_time_source();
}

void Simulator::attach_observability(obs::Registry& registry,
                                     const std::string& prefix) {
  obs_ = obs::Scope(registry, prefix);
  obs_schedules_ = obs_.counter("schedules");
  obs_horizon_ = obs_.histogram("schedule_horizon_ns");
  obs_depth_ = obs_.histogram("queue_depth");
  obs_.gauge_of("events_executed", executed_);
  obs_.gauge_fn("pending_events",
                [this] { return static_cast<double>(pending_events()); });
  obs_.gauge_fn("now_seconds", [this] { return now_.to_seconds(); });
}

}  // namespace netmon::sim
