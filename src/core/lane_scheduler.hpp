#pragma once

// Budgeted multi-lane probe scheduler — the generalization of the paper's
// §5.1.4 test sequencer that makes the C·S path matrix scale past 9×3.
//
// The paper offers two extremes: probe every path in parallel (peak overhead
// C·S·L/P, ≈59 Mbit/s on the HiPer-D matrix) or strictly serialize through
// a single slot (peak L/P ≈ 2.18 Mbit/s, senescence C·S·T). Neither serves
// a 100k-path fabric. The lane scheduler admits up to K concurrent probes
// ("lanes") subject to two admission gates:
//
//   budget   — the sum of the declared offered loads of in-flight probes
//              stays within an intrusiveness budget B bps (optionally
//              cross-checked against a live meter reading);
//   disjoint — no two in-flight probes share a link, so concurrent probes
//              never contend for the same bottleneck and each measurement
//              stays as clean as a serialized one.
//
// Candidates are ranked by priority class with senescence-weighted aging
// (effective priority grows with queue wait), so resource-manager-critical
// paths go first but no path starves; a hard starvation limit additionally
// front-runs any entry that has waited too long. The serial sequencer is
// the exact special case K=1, B=L/P: with one lane the first admission is
// always unconditional (progress guarantee), so admission order degrades to
// FIFO and reproduces the paper's golden trace bit for bit. Senescence
// generalizes from C·S·T to ⌈C·S/K⌉·T (DESIGN.md §11).
//
// Admission is indexed, not scanned (DESIGN.md §15). Earlier versions
// re-tested every deferred entry against the gates on every enqueue and
// every release — O(deferred × footprint) per admission, 32.6M futile gate
// scans over one hostile 10k-path soak. Now a waiting entry is gate-tested
// only when it heads its class's ready order; a failing test *parks* it on
// the first gate that blocked it (a per-class waiter heap under the busy
// LinkKey, or a budget wait-heap ordered by required headroom). A release
// wakes, per freed link, only the LOWEST-seq waiter of each class — the
// only parked entry that can possibly become that class's candidate — and
// budget waiters only as the freed watermark fits them. If a woken entry
// re-parks on a different gate while its link is still free, the wake is
// handed down to the link's next waiter (baton passing), so a convoy of
// 10k probes queued behind one trunk costs O(classes) wake-ups per
// release, not O(waiters). Each gate test is O(footprint); parked entries
// cost nothing until the state they wait on changes. The admission
// *policy* — first currently-admissible entry per class in FIFO order,
// ranked by aging/starvation — is unchanged, proven equivalent to a naive
// full-scan reference by the differential model test
// (tests/scheduler_model_test.cpp).
//
// Robustness contract (inherited from the original sequencer): a task's
// Done may be invoked exactly once; extra invocations are counted no-ops, a
// task that drops every copy of its Done uncalled releases the lane as
// "abandoned", and Dones outliving the scheduler degrade to no-ops. Lane
// accounting and the occupancy/waiter index are self-checking
// (check_consistency()).
//
// Done is a pointer-sized handle onto a pooled cell with an intrusive,
// non-atomic count (util::RefPool), and Task a small-buffer callable, so a
// warmed-up admission allocates nothing (DESIGN.md §16).

#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "obs/metrics.hpp"
#include "util/function.hpp"
#include "util/ref_pool.hpp"

namespace netmon::core {

// Opaque identity of a network medium (link or shared segment) occupied by a
// probe. Only equality matters; callers derive keys from topology objects.
using LinkKey = std::uint64_t;

// Admission priority classes (paper §4.1: the resource manager names which
// paths it is actively making reconfiguration decisions about).
enum class ProbeClass : std::uint8_t {
  kBackground = 0,  // bulk matrix coverage
  kNormal = 1,      // default
  kCritical = 2,    // resource-manager-critical paths
};
constexpr std::size_t kProbeClassCount = 3;
const char* to_string(ProbeClass cls);

// What one queued probe will do to the network while it runs: the admission
// gates weigh this, the trace records it. An empty profile (unknown load,
// unknown footprint) is always admissible — constraints can only be applied
// to probes that declare themselves.
struct ProbeProfile {
  double offered_bps = 0.0;        // declared peak load while in flight
  ProbeClass priority = ProbeClass::kNormal;
  std::uint64_t tag = 0;           // caller identity (e.g. PathId) for traces
  std::vector<LinkKey> footprint;  // media the probe occupies, in route order
};

struct SchedulerConfig {
  // K: concurrent lanes. 1 reproduces the paper's serial test sequencer.
  std::size_t lanes = 1;
  // B: intrusiveness budget in bps over the declared offered loads of
  // in-flight probes. 0 disables the gate. An idle scheduler always admits
  // one probe regardless of B (progress guarantee) — the serial sequencer
  // itself offers exactly L/P, which must not deadlock under B = L/P.
  double budget_bps = 0.0;
  // Reject concurrent probes whose footprints share any LinkKey.
  bool link_disjoint = false;
  // Senescence-weighted aging: effective priority = class·8 + wait/quantum,
  // so a queued probe gains one class level per 8 quanta waited and any
  // class eventually outranks any other. Zero disables aging (pure class
  // order, FIFO within class).
  std::int64_t aging_quantum_ns = 500'000'000;  // 500 ms
  // Hard bound: an entry that has waited at least this long is admitted
  // before any non-starving entry (oldest first), still subject to the
  // budget/disjoint gates. Zero disables.
  std::int64_t starvation_limit_ns = 0;
};

struct SchedulerStats {
  std::uint64_t admitted = 0;            // == launched
  // A gate test that failed and parked the entry on the budget watermark /
  // a busy link's waiter list. Counted once per blocking transition, not
  // once per scan pass — a parked entry costs nothing until woken.
  std::uint64_t deferred_budget = 0;
  std::uint64_t deferred_disjoint = 0;
  std::uint64_t starvation_picks = 0;    // admissions forced by the limit
  std::uint64_t priority_inversions = 0; // admitted over an older entry
  // Incremental wake-up accounting (DESIGN.md §15): entries moved from a
  // park structure back to ready order by a wake event (blocking link
  // freed, budget watermark rose, or a reconfiguration re-opened a gate).
  // This is the *entire* re-test cost of a release — the honest successor
  // of the old deferred×release full-scan count, assertable from SelfMib.
  std::uint64_t wake_tests = 0;
  // Woken entries whose next gate test still failed (re-parked): wake-ups
  // that did no useful work. A high futile share means many waiters block
  // on more than one gate (e.g. everything queues behind one trunk).
  std::uint64_t futile_wakeups = 0;

  friend bool operator==(const SchedulerStats& a, const SchedulerStats& b) {
    return a.admitted == b.admitted &&
           a.deferred_budget == b.deferred_budget &&
           a.deferred_disjoint == b.deferred_disjoint &&
           a.starvation_picks == b.starvation_picks &&
           a.priority_inversions == b.priority_inversions &&
           a.wake_tests == b.wake_tests &&
           a.futile_wakeups == b.futile_wakeups;
  }
  friend bool operator!=(const SchedulerStats& a, const SchedulerStats& b) {
    return !(a == b);
  }
};

// One admission, in admission order — the deterministic trace the property
// tests replay (same seed ⇒ identical trace).
struct AdmissionRecord {
  std::uint64_t admit_seq = 0;  // 0-based admission index
  std::int64_t at_ns = 0;       // scheduler clock at admission
  std::uint64_t entry_seq = 0;  // enqueue order of the admitted entry
  std::uint64_t tag = 0;        // ProbeProfile::tag
  ProbeClass priority = ProbeClass::kNormal;
  double offered_bps = 0.0;
  std::uint32_t in_flight_after = 0;
  std::uint32_t lane = 0;       // smallest lane id free at admission
};

class LaneScheduler {
  struct Node;

 public:
  // A task receives a completion callback it must invoke exactly once.
  // Copies share one cell: the first call releases the lane, later calls
  // are counted no-ops (double_dones()), destroying the last copy uncalled
  // releases it as abandoned, and once the scheduler is gone every call is
  // a no-op. Calling a default-constructed Done does nothing.
  class Done {
   public:
    Done() = default;
    // Drops this copy (the last copy dropped uncalled abandons the lane).
    Done& operator=(std::nullptr_t) {
      cell_.reset();
      return *this;
    }
    void operator()() const;
    explicit operator bool() const { return static_cast<bool>(cell_); }

   private:
    friend class LaneScheduler;
    struct Cell {
      LaneScheduler* sched = nullptr;
      Node* node = nullptr;
      bool called = false;
    };
    explicit Done(util::RefPool<Cell>::Ref cell) : cell_(std::move(cell)) {}
    util::RefPool<Cell>::Ref cell_;
  };
  // 16 inline bytes: `this` plus a handle or index, as large as a
  // std::function, so queued nodes do not grow.
  using Task = util::SmallFunction<void(Done), 16>;

  static constexpr std::size_t kUnlimited =
      std::numeric_limits<std::size_t>::max();

  explicit LaneScheduler(SchedulerConfig config = {});
  LaneScheduler(const LaneScheduler&) = delete;
  LaneScheduler& operator=(const LaneScheduler&) = delete;

  void configure(const SchedulerConfig& config);
  const SchedulerConfig& config() const { return config_; }
  void set_lanes(std::size_t lanes);

  // Clock used for aging, starvation, and trace timestamps. Without one the
  // scheduler is timeless: aging is inert and admission is class-then-FIFO.
  void set_clock(std::function<std::int64_t()> now_ns);

  // Live load reading (e.g. obs::IntrusivenessMeter's last monitoring-class
  // sample). When set and the budget gate is active, a candidate is also
  // held back while `live() + offered > B` — unless the scheduler is idle,
  // preserving the progress guarantee. A live reading can drop without any
  // scheduler event, so while a probe is installed every admission pass
  // re-wakes the budget-parked set (the watermark cannot index an external
  // signal); link-parked entries still wake incrementally.
  void set_load_probe(std::function<double()> live_bps);

  void enqueue(Task task) { enqueue(std::move(task), ProbeProfile{}); }
  void enqueue(Task task, ProbeProfile profile);

  std::size_t in_flight() const { return in_flight_; }
  std::size_t queued() const { return queued_; }
  std::uint64_t launched() const { return launched_; }
  std::uint64_t completed() const { return completed_; }
  // Contract violations absorbed: extra Done invocations beyond the first,
  // and lanes reclaimed because every copy of a Done was destroyed uncalled.
  std::uint64_t double_dones() const { return double_dones_; }
  std::uint64_t abandoned() const { return abandoned_; }
  bool idle() const { return in_flight_ == 0 && queued_ == 0; }
  // Declared load committed to in-flight probes (the budget gate's view).
  double committed_bps() const { return committed_bps_; }
  // Links occupied by in-flight probes.
  std::size_t busy_links() const { return occupied_links_; }
  // Waiting entries currently parked on a busy link / the budget watermark.
  // queued() - parked_on_links() - parked_on_budget() entries are in ready
  // order (not known-blocked; heads are gate-tested at admission time).
  std::size_t parked_on_links() const { return parked_links_; }
  std::size_t parked_on_budget() const { return parked_budget_; }
  const SchedulerStats& scheduler_stats() const { return sched_stats_; }

  // Lane-accounting and index invariants: every launch is exactly one of
  // completed, abandoned, or still in flight; the committed budget and the
  // link-occupancy index drain to zero when nothing is in flight; the
  // occupancy counts equal the multiset union of in-flight footprints;
  // every link-parked entry waits under a currently busy key, and every
  // budget-parked entry genuinely exceeds the current headroom. Throws
  // std::logic_error on violation.
  void check_consistency() const;

  // Re-classifies every queued entry whose profile tag equals `tag`
  // (DESIGN.md §12: the control plane concentrates probe budget on volatile
  // or decision-critical paths). Moved entries keep their enqueue seq and
  // merge into the destination class in seq order, preserving the per-class
  // FIFO invariant; in-flight probes are unaffected. Returns the number of
  // entries moved.
  std::size_t reprioritize(std::uint64_t tag, ProbeClass cls);

  // Bounded admission trace; capacity 0 (default) disables recording.
  void record_admissions(std::size_t capacity);
  const std::vector<AdmissionRecord>& admissions() const { return trace_; }
  std::uint64_t admissions_recorded() const { return trace_emitted_; }

  // Self-observability (DESIGN.md §10/§11/§15). Registers "<prefix>."
  // counters and gauges plus, when `now_ns` is provided, slot-wait and
  // slot-hold histograms (the serialization stall a probe suffers between
  // enqueue and launch is exactly the senescence the paper trades for
  // bounded intrusiveness). A now_ns passed here also becomes the scheduler
  // clock.
  void attach_observability(obs::Registry& registry,
                            std::string prefix = "sequencer",
                            std::function<std::int64_t()> now_ns = {});

 private:
  struct LinkState;

  // One waiting or in-flight request. Nodes are pool-allocated with stable
  // addresses (intrusive list members) and recycled through a free list;
  // enqueue adopts the caller's footprint buffer (ProbeProfile is taken by
  // value) rather than copying it, so a warmed-up scheduler enqueues
  // without touching the allocator.
  struct Node {
    Task fn;
    std::vector<LinkKey> footprint;
    // Occupancy entries for `footprint`, cached at admission so release
    // decrements the counts without re-hashing the keys. LinkState
    // addresses are stable (node-based map, entries never erased while a
    // probe occupies them).
    std::vector<LinkState*> link_states;
    double offered_bps = 0.0;
    std::uint64_t tag = 0;
    std::uint64_t seq = 0;
    std::int64_t enqueued_ns = 0;
    std::int64_t launched_ns = 0;
    LinkKey park_key = 0;       // blocking link while kParkedLink
    // While kReady after a link wake: the link whose wake this node carries.
    // If the node re-parks on a different gate while that link is still
    // free, the wake passes to the link's next waiter (baton passing).
    LinkKey woken_from = 0;
    LinkState* woken_from_ls = nullptr;
    // Refs in ready_ heaps that revalidate for this node's current
    // (seq, cls): while > 0 a wake can flip state to kReady without
    // pushing a duplicate ref (a park leaves its ref buried; re-waking
    // makes it live again). Undercounting only costs a duplicate push.
    std::uint32_t ready_refs = 0;
    Node* all_prev = nullptr;   // per-class seq-ordered list of waiters
    Node* all_next = nullptr;
    std::uint32_t lane = 0;     // lane id while in flight
    ProbeClass cls = ProbeClass::kNormal;
    enum class State : std::uint8_t {
      kFree,         // on the node free list
      kReady,        // waiting, not known-blocked (in the ready heap)
      kParkedLink,   // waiting in busy_links_[park_key]'s waiter heap
      kParkedBudget, // waiting on the budget watermark heap
      kInFlight,
    } state = State::kFree;
    bool woken = false;  // last transition was a wake (futile accounting)
  };

  // Lazy-deletion heap references: validity is re-checked against the node
  // at pop time (seq/class/state/park key), so parking or admitting an
  // entry never has to search a heap.
  struct ReadyRef {
    std::uint64_t seq = 0;
    Node* node = nullptr;
  };
  struct BudgetRef {
    double offered_bps = 0.0;
    std::uint64_t seq = 0;
    Node* node = nullptr;
  };
  struct LinkState {
    std::uint32_t count = 0;  // in-flight probes occupying this link
    // Entries parked on this link: per-class lazy min-heaps by seq, so a
    // release can wake exactly the one waiter per class that could become
    // that class's candidate. Zero-count entries persist (live waiters'
    // wakes ride batons, see Node::woken_from; dead entries keep the map
    // and their heap capacity warm — the index is bounded by the distinct
    // links ever probed, and sweep_link_states() reclaims on configure).
    std::vector<ReadyRef> waiters[kProbeClassCount];
  };
  struct ClassList {
    Node* head = nullptr;
    Node* tail = nullptr;
  };
  enum class Gate : std::uint8_t { kPass, kBudget, kLink };
  struct GateResult {
    Gate gate = Gate::kPass;
    LinkKey link = 0;
    LinkState* ls = nullptr;  // the blocking link's entry when gate == kLink
  };

  static void abandon(Done::Cell& cell);  // last Done copy dropped
  std::int64_t now() const { return now_ns_ ? now_ns_() : 0; }
  double budget_ceiling() const;
  Node* alloc_node();
  void free_node(Node* n);
  void all_push_back(Node* n);
  void all_unlink(Node* n);
  void all_insert_sorted(Node* n);
  void ready_push(Node* n);
  Node* ready_peek(std::size_t cls);
  void ready_pop(std::size_t cls);
  GateResult test_gates(const Node& n);
  void park(Node* n, const GateResult& why);
  void wake(Node* n, LinkKey from, LinkState* from_ls);
  // Pops stale refs off one class's waiter heap; wakes the min-seq live
  // waiter if `wake_one`.
  void pop_and_wake(LinkKey key, LinkState& ls, std::size_t cls,
                    bool wake_one);
  // count hit 0: one wake per class
  void wake_link_free(LinkKey key, LinkState& ls);
  // baton handoff
  void wake_next_on(LinkKey key, LinkState& ls, std::size_t cls);
  void wake_budget_fits();
  void rewake_all_parked();
  void sweep_link_states();  // drop stale refs / empty zero-count entries
  Node* pick();
  void admit(Node* n);
  void finish(Node* n, bool abandoned);
  void pump();

  SchedulerConfig config_;
  std::size_t in_flight_ = 0;
  std::size_t queued_ = 0;
  std::size_t parked_links_ = 0;
  std::size_t parked_budget_ = 0;
  std::uint64_t launched_ = 0;
  std::uint64_t completed_ = 0;
  std::uint64_t double_dones_ = 0;
  std::uint64_t abandoned_ = 0;
  std::uint64_t next_entry_seq_ = 0;
  double committed_bps_ = 0.0;
  bool pumping_ = false;  // flattens re-entrant pumps into the outer loop

  // Stable node storage: fixed-size chunks so a cold scheduler pays one
  // allocation per kNodePoolChunk enqueues, not one per node.
  static constexpr std::size_t kNodePoolChunk = 64;
  std::vector<std::unique_ptr<Node[]>> pool_chunks_;
  std::size_t pool_used_ = 0;  // slots used in the newest chunk
  std::vector<Node*> free_nodes_;
  ClassList all_[kProbeClassCount];  // every waiting entry, seq order
  std::vector<ReadyRef> ready_[kProbeClassCount];  // min-heaps by seq
  std::vector<BudgetRef> budget_wait_;  // min-heap by (offered, seq)
  // Occupancy index: LinkKey -> in-flight count + parked waiter heaps.
  std::unordered_map<LinkKey, LinkState> busy_links_;
  std::size_t occupied_links_ = 0;  // entries with count > 0
  // Lane id recycling: smallest freed id first, deterministic.
  std::vector<std::uint32_t> free_lanes_;  // min-heap
  std::uint32_t lane_high_ = 0;

  SchedulerStats sched_stats_;
  std::function<std::int64_t()> now_ns_;
  std::function<double()> live_bps_;
  std::vector<AdmissionRecord> trace_;
  std::size_t trace_capacity_ = 0;
  std::uint64_t trace_emitted_ = 0;
  // Observability handles (null while detached; owned by the registry).
  obs::Scope obs_;
  bool obs_timed_ = false;
  obs::Histogram* obs_slot_wait_ = nullptr;
  obs::Histogram* obs_slot_hold_ = nullptr;

  // Cells of the outstanding Done handles. Declared last so it is torn
  // down first: a Done dropped while the other members are destroyed must
  // already see the scheduler as gone.
  util::RefPool<Done::Cell> done_cells_{&LaneScheduler::abandon};
};

}  // namespace netmon::core
