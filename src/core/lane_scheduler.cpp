#include "core/lane_scheduler.hpp"

#include <algorithm>
#include <cmath>
#include <set>
#include <stdexcept>
#include <unordered_set>
#include <utility>

namespace netmon::core {

namespace {
// One class level of priority equals this many aging quanta: a background
// probe that has waited 8 quanta outranks a fresh critical one, so aging
// always wins eventually (no starvation by class alone).
constexpr std::int64_t kAgingQuantaPerClass = 8;
// Tolerance for the budget comparison: the committed sum is maintained
// incrementally, so allow for float drift without admitting real overdraft.
constexpr double kBudgetSlack = 1e-6;

struct ReadyRefGreater {
  template <typename Ref>
  bool operator()(const Ref& a, const Ref& b) const {
    return a.seq > b.seq;
  }
};
struct BudgetRefGreater {
  template <typename Ref>
  bool operator()(const Ref& a, const Ref& b) const {
    if (a.offered_bps != b.offered_bps) return a.offered_bps > b.offered_bps;
    return a.seq > b.seq;
  }
};
}  // namespace

const char* to_string(ProbeClass cls) {
  switch (cls) {
    case ProbeClass::kBackground: return "background";
    case ProbeClass::kNormal: return "normal";
    case ProbeClass::kCritical: return "critical";
  }
  return "?";
}

static_assert(sizeof(LaneScheduler::Done) <= 32,
              "a Done plus two words must fit sim::Callback's inline buffer");

void LaneScheduler::Done::operator()() const {
  if (!cell_.pool_alive()) return;  // null, or the scheduler is gone
  Cell& cell = *cell_;
  if (cell.called) {
    ++cell.sched->double_dones_;
    return;
  }
  cell.called = true;
  cell.sched->finish(cell.node, /*abandoned=*/false);
}

void LaneScheduler::abandon(Done::Cell& cell) {
  if (cell.called) return;
  cell.called = true;
  cell.sched->finish(cell.node, /*abandoned=*/true);
}

LaneScheduler::LaneScheduler(SchedulerConfig config) {
  configure(config);
}

void LaneScheduler::configure(const SchedulerConfig& config) {
  if (config.lanes == 0) {
    throw std::invalid_argument("LaneScheduler: lanes must be >= 1");
  }
  if (config.budget_bps < 0.0) {
    throw std::invalid_argument("LaneScheduler: negative budget");
  }
  config_ = config;
  // A reconfiguration can re-open either gate (wider budget, disjointness
  // switched off), so every parked entry goes back through a gate test.
  rewake_all_parked();
  pump();
}

void LaneScheduler::set_lanes(std::size_t lanes) {
  SchedulerConfig c = config_;
  c.lanes = lanes;
  configure(c);
}

void LaneScheduler::set_clock(std::function<std::int64_t()> now_ns) {
  now_ns_ = std::move(now_ns);
}

void LaneScheduler::set_load_probe(std::function<double()> live_bps) {
  live_bps_ = std::move(live_bps);
}

double LaneScheduler::budget_ceiling() const {
  return config_.budget_bps * (1.0 + kBudgetSlack);
}

// ---------------------------------------------------------------------------
// Node pool and intrusive per-class lists.

LaneScheduler::Node* LaneScheduler::alloc_node() {
  if (!free_nodes_.empty()) {
    Node* n = free_nodes_.back();
    free_nodes_.pop_back();
    return n;
  }
  if (pool_chunks_.empty() || pool_used_ == kNodePoolChunk) {
    pool_chunks_.push_back(std::make_unique<Node[]>(kNodePoolChunk));
    pool_used_ = 0;
  }
  return &pool_chunks_.back()[pool_used_++];
}

void LaneScheduler::free_node(Node* n) {
  n->fn = nullptr;
  n->footprint.clear();  // next enqueue adopts the caller's buffer
  n->link_states.clear();  // keeps capacity: the pool's warm storage
  n->offered_bps = 0.0;
  n->tag = 0;
  n->park_key = 0;
  n->woken_from = 0;
  n->woken_from_ls = nullptr;
  n->ready_refs = 0;
  n->all_prev = n->all_next = nullptr;
  n->state = Node::State::kFree;
  n->woken = false;
  free_nodes_.push_back(n);
}

void LaneScheduler::all_push_back(Node* n) {
  ClassList& list = all_[static_cast<std::size_t>(n->cls)];
  n->all_prev = list.tail;
  n->all_next = nullptr;
  if (list.tail != nullptr) {
    list.tail->all_next = n;
  } else {
    list.head = n;
  }
  list.tail = n;
}

void LaneScheduler::all_unlink(Node* n) {
  ClassList& list = all_[static_cast<std::size_t>(n->cls)];
  if (n->all_prev != nullptr) {
    n->all_prev->all_next = n->all_next;
  } else {
    list.head = n->all_next;
  }
  if (n->all_next != nullptr) {
    n->all_next->all_prev = n->all_prev;
  } else {
    list.tail = n->all_prev;
  }
  n->all_prev = n->all_next = nullptr;
}

void LaneScheduler::all_insert_sorted(Node* n) {
  ClassList& list = all_[static_cast<std::size_t>(n->cls)];
  Node* after = list.tail;
  while (after != nullptr && after->seq > n->seq) after = after->all_prev;
  n->all_prev = after;
  n->all_next = after != nullptr ? after->all_next : list.head;
  if (n->all_next != nullptr) {
    n->all_next->all_prev = n;
  } else {
    list.tail = n;
  }
  if (after != nullptr) {
    after->all_next = n;
  } else {
    list.head = n;
  }
}

// ---------------------------------------------------------------------------
// Ready heaps (lazy deletion: refs are validated against the node when they
// surface, so state transitions never search a heap).

void LaneScheduler::ready_push(Node* n) {
  auto& h = ready_[static_cast<std::size_t>(n->cls)];
  h.push_back(ReadyRef{n->seq, n});
  std::push_heap(h.begin(), h.end(), ReadyRefGreater{});
  ++n->ready_refs;
}

LaneScheduler::Node* LaneScheduler::ready_peek(std::size_t cls) {
  auto& h = ready_[cls];
  while (!h.empty()) {
    const ReadyRef& top = h.front();
    Node* n = top.node;
    if (n->state == Node::State::kReady && n->seq == top.seq &&
        static_cast<std::size_t>(n->cls) == cls) {
      return n;
    }
    if (n->ready_refs > 0) --n->ready_refs;
    std::pop_heap(h.begin(), h.end(), ReadyRefGreater{});
    h.pop_back();
  }
  return nullptr;
}

void LaneScheduler::ready_pop(std::size_t cls) {
  auto& h = ready_[cls];
  Node* n = h.front().node;
  if (n->ready_refs > 0) --n->ready_refs;
  std::pop_heap(h.begin(), h.end(), ReadyRefGreater{});
  h.pop_back();
}

// ---------------------------------------------------------------------------
// Gates, parking, and incremental wake-up.

LaneScheduler::GateResult LaneScheduler::test_gates(const Node& n) {
  if (config_.budget_bps > 0.0 && n.offered_bps > 0.0) {
    const double ceiling = budget_ceiling();
    if (committed_bps_ + n.offered_bps > ceiling) {
      return GateResult{Gate::kBudget, 0, nullptr};
    }
    if (live_bps_ && live_bps_() + n.offered_bps > ceiling) {
      return GateResult{Gate::kBudget, 0, nullptr};
    }
  }
  if (config_.link_disjoint) {
    for (LinkKey key : n.footprint) {
      auto it = busy_links_.find(key);
      if (it != busy_links_.end() && it->second.count > 0) {
        return GateResult{Gate::kLink, key, &it->second};
      }
    }
  }
  return GateResult{Gate::kPass, 0, nullptr};
}

void LaneScheduler::park(Node* n, const GateResult& why) {
  if (n->woken) {
    ++sched_stats_.futile_wakeups;
    n->woken = false;
  }
  const LinkKey baton = n->woken_from;
  LinkState* baton_ls = n->woken_from_ls;
  n->woken_from = 0;
  n->woken_from_ls = nullptr;
  if (why.gate == Gate::kBudget) {
    ++sched_stats_.deferred_budget;
    n->state = Node::State::kParkedBudget;
    ++parked_budget_;
    budget_wait_.push_back(BudgetRef{n->offered_bps, n->seq, n});
    std::push_heap(budget_wait_.begin(), budget_wait_.end(),
                   BudgetRefGreater{});
  } else {
    ++sched_stats_.deferred_disjoint;
    n->state = Node::State::kParkedLink;
    ++parked_links_;
    n->park_key = why.link;
    LinkState& ls = *why.ls;  // found busy in test_gates
    auto& h = ls.waiters[static_cast<std::size_t>(n->cls)];
    h.push_back(ReadyRef{n->seq, n});
    std::push_heap(h.begin(), h.end(), ReadyRefGreater{});
  }
  // Baton passing: this entry carried the wake of a freed link but blocked
  // on a different gate. If that link is still free, its next waiter (same
  // class) takes over, so the wake is never lost — and never fans out.
  if (baton != 0 && baton_ls != nullptr) {
    wake_next_on(baton, *baton_ls, static_cast<std::size_t>(n->cls));
  }
}

void LaneScheduler::wake(Node* n, LinkKey from, LinkState* from_ls) {
  // Caller has already detached n from its park structure (or relies on
  // lazy heap invalidation).
  n->state = Node::State::kReady;
  n->woken = true;
  n->woken_from = from;
  n->woken_from_ls = from_ls;
  ++sched_stats_.wake_tests;
  // A ref this node buried in the ready heap when it last parked (same seq,
  // same class) revalidates with the state flip; pushing another would only
  // grow the heap.
  if (n->ready_refs == 0) ready_push(n);
}

void LaneScheduler::pop_and_wake(LinkKey key, LinkState& ls, std::size_t cls,
                                 bool wake_one) {
  auto& h = ls.waiters[cls];
  while (!h.empty()) {
    const ReadyRef top = h.front();
    Node* n = top.node;
    if (n->state == Node::State::kParkedLink && n->seq == top.seq &&
        n->park_key == key && static_cast<std::size_t>(n->cls) == cls) {
      if (!wake_one) return;  // live waiter stays parked
      wake_one = false;
      std::pop_heap(h.begin(), h.end(), ReadyRefGreater{});
      h.pop_back();
      --parked_links_;
      n->park_key = 0;
      wake(n, key, &ls);
      continue;  // keep purging stale refs behind the woken one
    }
    std::pop_heap(h.begin(), h.end(), ReadyRefGreater{});
    h.pop_back();
  }
}

void LaneScheduler::wake_link_free(LinkKey key, LinkState& ls) {
  // Only the lowest-seq waiter of each class can become that class's
  // candidate (older ready entries in the class are tested first anyway),
  // so one wake per class suffices; the rest ride the baton. The entry
  // stays in the map even when drained — see LinkState.
  for (std::size_t cls = 0; cls < kProbeClassCount; ++cls) {
    pop_and_wake(key, ls, cls, /*wake_one=*/true);
  }
}

void LaneScheduler::wake_next_on(LinkKey key, LinkState& ls,
                                 std::size_t cls) {
  if (ls.count > 0) return;  // re-occupied since the wake: waiters are fine
  pop_and_wake(key, ls, cls, /*wake_one=*/true);
}

void LaneScheduler::wake_budget_fits() {
  const double headroom = budget_ceiling() - committed_bps_;
  auto& h = budget_wait_;
  while (!h.empty()) {
    const BudgetRef top = h.front();
    Node* n = top.node;
    const bool valid =
        n->state == Node::State::kParkedBudget && n->seq == top.seq;
    if (valid && top.offered_bps > headroom) break;
    std::pop_heap(h.begin(), h.end(), BudgetRefGreater{});
    h.pop_back();
    if (!valid) continue;
    --parked_budget_;
    wake(n, 0, nullptr);
  }
}

void LaneScheduler::rewake_all_parked() {
  if (parked_links_ == 0 && parked_budget_ == 0) return;
  for (ClassList& list : all_) {
    for (Node* n = list.head; n != nullptr; n = n->all_next) {
      if (n->state == Node::State::kParkedLink) {
        // Heap refs invalidate lazily; sweep_link_states() clears them.
        n->park_key = 0;
        --parked_links_;
        wake(n, 0, nullptr);
      } else if (n->state == Node::State::kParkedBudget) {
        --parked_budget_;  // heap refs invalidate lazily
        wake(n, 0, nullptr);
      } else if (n->state == Node::State::kReady) {
        // Every parked entry is being woken, so no baton is owed anywhere
        // (and sweep_link_states() may erase the carried entry).
        n->woken_from = 0;
        n->woken_from_ls = nullptr;
      }
    }
  }
  sweep_link_states();
}

void LaneScheduler::sweep_link_states() {
  for (auto it = busy_links_.begin(); it != busy_links_.end();) {
    for (auto& h : it->second.waiters) h.clear();
    if (it->second.count == 0) {
      it = busy_links_.erase(it);
    } else {
      ++it;
    }
  }
}

// ---------------------------------------------------------------------------
// Admission.

void LaneScheduler::enqueue(Task task, ProbeProfile profile) {
  const std::size_t cls = static_cast<std::size_t>(profile.priority);
  if (cls >= kProbeClassCount) {
    throw std::invalid_argument("LaneScheduler: bad probe class");
  }
  Node* n = alloc_node();
  n->fn = std::move(task);
  n->footprint = std::move(profile.footprint);
  n->offered_bps = profile.offered_bps;
  n->tag = profile.tag;
  n->cls = profile.priority;
  n->seq = next_entry_seq_++;
  n->enqueued_ns = now();
  n->state = Node::State::kReady;
  n->woken = false;
  all_push_back(n);
  ready_push(n);
  ++queued_;
  pump();
}

LaneScheduler::Node* LaneScheduler::pick() {
  const bool idle_scheduler = in_flight_ == 0;
  // A live load reading can fall without any scheduler event, so the budget
  // watermark cannot stand in for it: with a probe installed, budget parks
  // are re-tested on every admission pass (link parks stay incremental).
  if (!idle_scheduler && live_bps_ && config_.budget_bps > 0.0 &&
      parked_budget_ > 0) {
    auto& h = budget_wait_;
    while (!h.empty()) {
      const BudgetRef top = h.front();
      Node* n = top.node;
      const bool valid =
          n->state == Node::State::kParkedBudget && n->seq == top.seq;
      std::pop_heap(h.begin(), h.end(), BudgetRefGreater{});
      h.pop_back();
      if (!valid) continue;
      --parked_budget_;
      wake(n, 0, nullptr);
    }
  }
  const std::int64_t t = now();

  struct Candidate {
    Node* node = nullptr;
    std::int64_t score = 0;
    bool starving = false;
  };
  Candidate best;

  for (std::size_t cls = 0; cls < kProbeClassCount; ++cls) {
    Node* cand = nullptr;
    if (idle_scheduler) {
      // Progress guarantee: an idle scheduler admits anything — the serial
      // special case (K=1, B=L/P) must launch the probe whose offered load
      // *equals* the whole budget, and a probe wider than every gate must
      // not pend forever. Gates (and their counters) are bypassed, so the
      // candidate is the plain FIFO head, parked or not.
      cand = all_[cls].head;
    } else {
      // Within a class, older entries never rank below younger ones, so the
      // class's best admissible candidate is its first admissible entry.
      // Parked entries are invariantly inadmissible (the wake rules restore
      // them to ready order before any pick sees the state change), so only
      // ready heads are tested; a failing head parks and the next surfaces.
      for (;;) {
        Node* n = ready_peek(cls);
        if (n == nullptr) break;
        const GateResult g = test_gates(*n);
        if (g.gate == Gate::kPass) {
          cand = n;
          break;
        }
        ready_pop(cls);
        park(n, g);
      }
    }
    if (cand == nullptr) continue;
    const std::int64_t wait =
        t > cand->enqueued_ns ? t - cand->enqueued_ns : 0;
    Candidate c;
    c.node = cand;
    c.score = static_cast<std::int64_t>(cls) * kAgingQuantaPerClass;
    if (config_.aging_quantum_ns > 0) {
      c.score += wait / config_.aging_quantum_ns;
    }
    c.starving = config_.starvation_limit_ns > 0 &&
                 wait >= config_.starvation_limit_ns;
    const bool wins =
        best.node == nullptr ||
        (c.starving != best.starving
             ? c.starving
             : (c.starving
                    // Among starving entries: oldest first.
                    ? (cand->enqueued_ns != best.node->enqueued_ns
                           ? cand->enqueued_ns < best.node->enqueued_ns
                           : cand->seq < best.node->seq)
                    // Otherwise: highest effective priority, FIFO on ties.
                    : (c.score != best.score ? c.score > best.score
                                             : cand->seq < best.node->seq)));
    if (wins) best = c;
  }

  if (best.node == nullptr) return nullptr;
  if (best.starving) ++sched_stats_.starvation_picks;
  return best.node;
}

void LaneScheduler::admit(Node* n) {
  // Remove from waiting structures: every heap ref (ready, budget, link
  // waiter) invalidates lazily against the node's new state. A carried
  // link wake dissolves with the admission — the woken-from key is in this
  // footprint, so it goes busy again and the remaining waiters are parked
  // correctly.
  if (n->state == Node::State::kParkedLink) {
    // Possible only through the idle-path pick, which bypasses gates.
    n->park_key = 0;
    --parked_links_;
  } else if (n->state == Node::State::kParkedBudget) {
    --parked_budget_;
  }
  n->woken_from = 0;
  n->woken_from_ls = nullptr;
  all_unlink(n);
  --queued_;

  // An admission that jumps over an older queued entry is a (deliberate)
  // priority inversion of FIFO order; the counter sizes how non-FIFO the
  // configured policy actually runs.
  for (const ClassList& list : all_) {
    if (list.head != nullptr && list.head->seq < n->seq) {
      ++sched_stats_.priority_inversions;
      break;
    }
  }

  ++in_flight_;
  ++launched_;
  ++sched_stats_.admitted;
  committed_bps_ += n->offered_bps;
  // Cache each key's occupancy entry so the release path decrements without
  // re-hashing (unordered_map references are rehash-stable).
  n->link_states.clear();
  for (LinkKey key : n->footprint) {
    LinkState& ls = busy_links_[key];
    if (ls.count++ == 0) ++occupied_links_;
    n->link_states.push_back(&ls);
  }

  // Smallest free lane id, deterministically.
  std::uint32_t lane;
  if (!free_lanes_.empty()) {
    std::pop_heap(free_lanes_.begin(), free_lanes_.end(),
                  std::greater<std::uint32_t>{});
    lane = free_lanes_.back();
    free_lanes_.pop_back();
  } else {
    lane = lane_high_++;
  }
  n->lane = lane;
  n->state = Node::State::kInFlight;
  n->woken = false;

  const std::int64_t t = now();
  n->launched_ns = t;
  if (trace_capacity_ > 0) {
    if (trace_.size() < trace_capacity_) {
      trace_.push_back(AdmissionRecord{
          trace_emitted_, t, n->seq, n->tag, n->cls, n->offered_bps,
          static_cast<std::uint32_t>(in_flight_), lane});
    }
    ++trace_emitted_;
  }

  if constexpr (obs::kCompiledIn) {
    if (obs_slot_wait_ != nullptr && obs_timed_) {
      obs_slot_wait_->observe(static_cast<double>(t - n->enqueued_ns));
    }
  }
  // The task may complete synchronously — finish() would then recycle the
  // node mid-call — so the callable leaves the node before it runs.
  Task fn = std::move(n->fn);
  n->fn = nullptr;
  auto cell = done_cells_.acquire();
  cell->sched = this;
  cell->node = n;
  // The Done callback may fire synchronously or much later; both are fine.
  fn(Done(std::move(cell)));
}

void LaneScheduler::finish(Node* n, bool abandoned) {
  // Lane-release monotonicity contract: every release must match exactly
  // one launch. Done's cell guarantees this today; if a refactor ever breaks
  // it, corrupting the concurrency bound silently is the worst outcome, so
  // fail loudly instead.
  if (in_flight_ == 0) {
    throw std::logic_error(
        "LaneScheduler::finish: lane released with none in flight");
  }
  --in_flight_;
  if (abandoned) {
    ++abandoned_;
  } else {
    ++completed_;
  }
  committed_bps_ -= n->offered_bps;
  if (in_flight_ == 0 || committed_bps_ < 0.0) committed_bps_ = 0.0;

  // Incremental wake-up: each link this release actually freed wakes its
  // lowest-seq waiter per class, and the budget watermark wakes only the
  // waiters the freed headroom fits.
  for (std::size_t i = 0; i < n->footprint.size(); ++i) {
    LinkState& ls = *n->link_states[i];
    if (ls.count == 0) continue;
    if (--ls.count == 0) {
      --occupied_links_;
      wake_link_free(n->footprint[i], ls);
    }
  }
  if (config_.budget_bps > 0.0 && n->offered_bps > 0.0 &&
      parked_budget_ > 0) {
    wake_budget_fits();
  }

  free_lanes_.push_back(n->lane);
  std::push_heap(free_lanes_.begin(), free_lanes_.end(),
                 std::greater<std::uint32_t>{});

  if constexpr (obs::kCompiledIn) {
    if (obs_slot_hold_ != nullptr && obs_timed_) {
      obs_slot_hold_->observe(static_cast<double>(now() - n->launched_ns));
    }
  }
  free_node(n);
  pump();
}

void LaneScheduler::pump() {
  // Trampoline: a task completing (or being abandoned) synchronously calls
  // finish() -> pump() re-entrantly; the inner call returns immediately and
  // the outer loop picks up the freed lane, so a long queue of synchronous
  // tasks drains iteratively instead of one stack frame per task.
  if (pumping_) return;
  pumping_ = true;
  while (in_flight_ < config_.lanes && queued_ > 0) {
    Node* n = pick();
    if (n == nullptr) break;
    admit(n);
  }
  pumping_ = false;
}

std::size_t LaneScheduler::reprioritize(std::uint64_t tag, ProbeClass cls) {
  const std::size_t target = static_cast<std::size_t>(cls);
  if (target >= kProbeClassCount) {
    throw std::invalid_argument("LaneScheduler: bad probe class");
  }
  std::vector<Node*> moving;
  for (std::size_t c = 0; c < kProbeClassCount; ++c) {
    if (c == target) continue;
    Node* n = all_[c].head;
    while (n != nullptr) {
      Node* next = n->all_next;
      if (n->tag == tag) {
        all_unlink(n);
        moving.push_back(n);
      }
      n = next;
    }
  }
  std::sort(moving.begin(), moving.end(),
            [](const Node* a, const Node* b) { return a->seq < b->seq; });
  for (Node* n : moving) {
    const std::size_t old_cls = static_cast<std::size_t>(n->cls);
    n->cls = cls;
    // Refs buried under the old class can never revalidate for the new one.
    n->ready_refs = 0;
    all_insert_sorted(n);
    if (n->state == Node::State::kReady) {
      // Re-register in the new class's ready order (the old heap refs
      // invalidate lazily through the class check, so the revalidation
      // counter restarts at the new ref). A carried link wake belongs to
      // the OLD class — its waiters lose their carrier here — so it is
      // handed off before the node changes allegiance.
      ready_push(n);
      if (n->woken_from != 0 && n->woken_from_ls != nullptr) {
        const LinkKey baton = n->woken_from;
        LinkState* baton_ls = n->woken_from_ls;
        n->woken_from = 0;
        n->woken_from_ls = nullptr;
        wake_next_on(baton, *baton_ls, old_cls);
      }
    } else if (n->state == Node::State::kParkedLink) {
      auto it = busy_links_.find(n->park_key);
      if (it != busy_links_.end() && it->second.count > 0) {
        // Still genuinely blocked: register under the new class so the
        // link's next free wakes this class's true minimum.
        auto& h = it->second.waiters[target];
        h.push_back(ReadyRef{n->seq, n});
        std::push_heap(h.begin(), h.end(), ReadyRefGreater{});
      } else {
        // Parked on a link that has since freed (its wake rides with the
        // old class's baton, which this node just left behind): wake it
        // directly rather than reason about carrier coverage.
        const LinkKey key = n->park_key;
        n->park_key = 0;
        --parked_links_;
        wake(n, key, it != busy_links_.end() ? &it->second : nullptr);
      }
    }
    // kParkedBudget: the budget heap is class-independent; nothing moves.
  }
  const std::size_t moved = moving.size();
  if (moved != 0) pump();
  return moved;
}

void LaneScheduler::check_consistency() const {
  if (completed_ + abandoned_ + in_flight_ != launched_) {
    throw std::logic_error(
        "LaneScheduler: lane accounting out of balance (completed + "
        "abandoned + in_flight != launched)");
  }
  std::size_t total = 0;
  std::size_t ready_n = 0;
  std::size_t parked_link_n = 0;
  std::size_t parked_budget_n = 0;
  for (const ClassList& list : all_) {
    for (const Node* n = list.head; n != nullptr; n = n->all_next) {
      ++total;
      switch (n->state) {
        case Node::State::kReady: ++ready_n; break;
        case Node::State::kParkedLink: ++parked_link_n; break;
        case Node::State::kParkedBudget: ++parked_budget_n; break;
        default:
          throw std::logic_error(
              "LaneScheduler: waiting entry in a non-waiting state");
      }
      if (n->all_next != nullptr && n->all_next->seq <= n->seq) {
        throw std::logic_error(
            "LaneScheduler: class list out of seq order");
      }
    }
  }
  if (total != queued_) {
    throw std::logic_error("LaneScheduler: queued count out of balance");
  }
  if (parked_link_n != parked_links_ || parked_budget_n != parked_budget_) {
    throw std::logic_error("LaneScheduler: parked counters out of balance");
  }
  if (in_flight_ == 0 &&
      (occupied_links_ != 0 || std::abs(committed_bps_) > kBudgetSlack)) {
    throw std::logic_error(
        "LaneScheduler: idle scheduler still holds budget or links");
  }

  // Occupancy index == multiset union of in-flight footprints. Entries
  // with count == 0 are legal while they still hold waiters whose wake
  // rides a baton; they must not claim occupancy.
  std::unordered_map<LinkKey, std::uint32_t> occupancy;
  std::size_t in_flight_n = 0;
  for (std::size_t c = 0; c < pool_chunks_.size(); ++c) {
    const std::size_t used =
        c + 1 == pool_chunks_.size() ? pool_used_ : kNodePoolChunk;
    for (std::size_t i = 0; i < used; ++i) {
      const Node& n = pool_chunks_[c][i];
      if (n.state != Node::State::kInFlight) continue;
      ++in_flight_n;
      for (LinkKey key : n.footprint) ++occupancy[key];
    }
  }
  if (in_flight_n != in_flight_) {
    throw std::logic_error("LaneScheduler: in-flight node count mismatch");
  }
  std::size_t occupied_n = 0;
  for (const auto& [key, ls] : busy_links_) {
    if (ls.count == 0) continue;
    ++occupied_n;
    auto it = occupancy.find(key);
    if (it == occupancy.end() || it->second != ls.count) {
      throw std::logic_error(
          "LaneScheduler: occupancy count diverges from in-flight "
          "footprints");
    }
  }
  if (occupied_n != occupied_links_ || occupied_n != occupancy.size()) {
    throw std::logic_error(
        "LaneScheduler: occupancy index has stale or missing keys");
  }

  // Every link-parked entry must be reachable through a live waiter ref
  // under exactly its park key and class (duplicate refs from class moves
  // are tolerated: only the first can wake, the rest purge as stale).
  std::unordered_set<const Node*> live_waiters;
  std::set<std::pair<LinkKey, std::size_t>> waited_free_links;
  for (const auto& [key, ls] : busy_links_) {
    for (std::size_t cls = 0; cls < kProbeClassCount; ++cls) {
      for (const ReadyRef& ref : ls.waiters[cls]) {
        const Node* w = ref.node;
        if (w->state == Node::State::kParkedLink && w->seq == ref.seq &&
            w->park_key == key && static_cast<std::size_t>(w->cls) == cls) {
          live_waiters.insert(w);
          if (ls.count == 0) waited_free_links.insert({key, cls});
        }
      }
    }
  }
  if (live_waiters.size() != parked_links_) {
    throw std::logic_error(
        "LaneScheduler: link-parked entry lost from its waiter heap");
  }
  // Baton existence: waiters parked on a FREE link are only legal while a
  // ready entry of their class carries that link's wake — otherwise the
  // wake was dropped and they would pend forever.
  for (const ClassList& list : all_) {
    for (const Node* n = list.head; n != nullptr; n = n->all_next) {
      if (n->state == Node::State::kReady && n->woken_from != 0) {
        waited_free_links.erase(
            {n->woken_from, static_cast<std::size_t>(n->cls)});
      }
    }
  }
  if (!waited_free_links.empty()) {
    throw std::logic_error(
        "LaneScheduler: waiter parked on a free link with no wake carrier");
  }

  // Every ready entry must be reachable through its class's ready heap —
  // a ready node with no live heap ref is a lost wakeup.
  for (std::size_t cls = 0; cls < kProbeClassCount; ++cls) {
    std::size_t live = 0;
    for (const ReadyRef& ref : ready_[cls]) {
      const Node* n = ref.node;
      if (n->state == Node::State::kReady && n->seq == ref.seq &&
          static_cast<std::size_t>(n->cls) == cls) {
        ++live;
      }
    }
    std::size_t want = 0;
    for (const Node* n = all_[cls].head; n != nullptr; n = n->all_next) {
      if (n->state == Node::State::kReady) ++want;
    }
    if (live < want) {
      throw std::logic_error("LaneScheduler: ready entry lost from heap");
    }
  }

  // The ready-ref revalidation counter must never overcount: a wake that
  // skips its push on the counter's word while no buried ref matches the
  // node's current (seq, class) would be a lost wakeup.
  std::unordered_map<const Node*, std::uint32_t> revalidatable;
  for (std::size_t cls = 0; cls < kProbeClassCount; ++cls) {
    for (const ReadyRef& ref : ready_[cls]) {
      if (ref.node->seq == ref.seq &&
          static_cast<std::size_t>(ref.node->cls) == cls) {
        ++revalidatable[ref.node];
      }
    }
  }
  for (const ClassList& list : all_) {
    for (const Node* n = list.head; n != nullptr; n = n->all_next) {
      auto it = revalidatable.find(n);
      const std::uint32_t have = it != revalidatable.end() ? it->second : 0;
      if (n->ready_refs > have) {
        throw std::logic_error(
            "LaneScheduler: ready-ref counter exceeds revalidatable refs");
      }
    }
  }

  // Budget-parked entries genuinely exceed the current headroom; anything
  // that fits would have been woken by the watermark. (A live-load probe
  // parks entries on an external signal the invariant cannot see.)
  if (!live_bps_ && config_.budget_bps > 0.0) {
    const double ceiling = budget_ceiling();
    for (const ClassList& list : all_) {
      for (const Node* n = list.head; n != nullptr; n = n->all_next) {
        if (n->state == Node::State::kParkedBudget &&
            committed_bps_ + n->offered_bps <= ceiling) {
          throw std::logic_error(
              "LaneScheduler: budget-parked entry fits the watermark");
        }
      }
    }
  }
}

void LaneScheduler::record_admissions(std::size_t capacity) {
  trace_capacity_ = capacity;
  trace_.clear();
  trace_emitted_ = 0;
  if (capacity > 0) trace_.reserve(capacity < 4096 ? capacity : 4096);
}

void LaneScheduler::attach_observability(obs::Registry& registry,
                                         std::string prefix,
                                         std::function<std::int64_t()> now_ns) {
  obs_ = obs::Scope(registry, std::move(prefix));
  if (now_ns) {
    set_clock(std::move(now_ns));
    obs_timed_ = true;
  } else {
    obs_timed_ = static_cast<bool>(now_ns_);
  }
  obs_.gauge_of("launched", launched_);
  obs_.gauge_of("completed", completed_);
  obs_.gauge_of("double_dones", double_dones_);
  obs_.gauge_of("abandoned", abandoned_);
  obs_.gauge_of("deferred_budget", sched_stats_.deferred_budget);
  obs_.gauge_of("deferred_disjoint", sched_stats_.deferred_disjoint);
  obs_.gauge_of("starvation_picks", sched_stats_.starvation_picks);
  obs_.gauge_of("priority_inversions", sched_stats_.priority_inversions);
  obs_.gauge_of("wake_tests", sched_stats_.wake_tests);
  obs_.gauge_of("futile_wakeups", sched_stats_.futile_wakeups);
  obs_.gauge_of("in_flight", in_flight_);
  obs_.gauge_of("queued", queued_);
  obs_.gauge_fn("lanes", [this] {
    return config_.lanes == kUnlimited ? -1.0
                                       : static_cast<double>(config_.lanes);
  });
  obs_.gauge_of("budget_bps", config_.budget_bps);
  obs_.gauge_of("committed_bps", committed_bps_);
  obs_.gauge_of("busy_links", occupied_links_);
  obs_.gauge_of("parked_links", parked_links_);
  obs_.gauge_of("parked_budget", parked_budget_);
  obs_slot_wait_ = obs_timed_ ? obs_.histogram("slot_wait_ns") : nullptr;
  obs_slot_hold_ = obs_timed_ ? obs_.histogram("slot_hold_ns") : nullptr;
}

}  // namespace netmon::core
