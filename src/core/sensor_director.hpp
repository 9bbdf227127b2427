#pragma once

// The sensor director (paper §4.1, Figure 2): receives requests from the
// resource manager as lists of (path, metrics), initiates collection via
// network sensors (through the test sequencer), records results in the
// measurement database, and reports (path, metric) tuples back either
// synchronously (batched per round) or asynchronously (per measurement).
//
// Supervision layer (DESIGN.md §9): every measurement runs under an optional
// deadline (a sensor that never invokes `done` is timed out and its
// sequencer slot reclaimed; a late completion degrades to a counted no-op),
// failed or timed-out attempts are retried with capped exponential backoff
// plus deterministic jitter, a per-(sensor, path) circuit breaker trips after
// consecutive failures (with half-open probing to recover), and a registered
// fallback sensor chain (e.g. NTTCP -> SNMP, the paper's §7 hybrid) degrades
// fidelity gracefully. Every sample carries a SampleQuality flag. All
// supervision features default OFF, in which case behavior (and event
// scheduling) is identical to the unsupervised director.

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "core/measurement_db.hpp"
#include "core/path.hpp"
#include "core/sequencer.hpp"
#include "sim/simulator.hpp"
#include "util/function.hpp"
#include "util/ref_pool.hpp"

namespace netmon::core {

// A network sensor collects one metric sample for one path (paper §4.1:
// "network sensors are responsible for collecting network performance
// data"). Implementations exist at different instrumentation points.
class NetworkSensor {
 public:
  // Move-only; 48 inline bytes hold the director's completion (five words)
  // without an allocation.
  using Done = util::SmallFunction<void(MetricValue), 48>;

  virtual ~NetworkSensor() = default;
  virtual std::string name() const = 0;
  virtual bool supports(Metric metric) const = 0;
  // Must invoke `done` exactly once (possibly with a failed MetricValue).
  virtual void measure(const Path& path, Metric metric, Done done) = 0;
};

struct PathRequest {
  Path path;
  std::vector<Metric> metrics;
  // Lane-scheduler admission class (DESIGN.md §11): paths the resource
  // manager is actively deciding about go kCritical; bulk matrix coverage
  // can ride kBackground. Ignored by the default FIFO configuration.
  ProbeClass priority = ProbeClass::kNormal;
};

struct MonitorRequest {
  std::vector<PathRequest> paths;

  enum class Mode {
    kOnce,        // one round of measurements
    kContinuous,  // re-run each round as soon as the previous finishes
    kPeriodic,    // rounds start every `period`
  };
  Mode mode = Mode::kOnce;
  sim::Duration period = sim::Duration::sec(5);

  enum class Reporting {
    kAsynchronous,  // each tuple pushed as its measurement completes
    kSynchronous,   // all tuples of a round delivered together at round end
  };
  Reporting reporting = Reporting::kAsynchronous;

  bool record_to_database = true;
};

// Supervision of the measurement pipeline. The defaults disable everything,
// reproducing the unsupervised director bit for bit.
struct SupervisionConfig {
  // Per-attempt deadline; a sensor that has not completed by then is timed
  // out, its sequencer slot reclaimed, and the attempt counted failed.
  // Zero disables the deadline.
  sim::Duration deadline = sim::Duration::ns(0);

  // Retries of a failed/timed-out attempt against the *same* sensor, with
  // capped exponential backoff and deterministic jitter derived from
  // (path, metric, attempt). Zero disables retries.
  int max_retries = 0;
  sim::Duration backoff_base = sim::Duration::ms(100);
  sim::Duration backoff_max = sim::Duration::sec(5);

  // Circuit breaker: after this many consecutive failures a sensor is
  // skipped (the chain falls through to the next sensor) until
  // `breaker_open_for` has elapsed; then a single half-open probe is
  // admitted, and its outcome closes or re-opens the breaker.
  // Scoped per (sensor, path) — the usual per-endpoint outlier rule — so a
  // dead target cannot poison a sensor's standing on healthy paths, while a
  // sensor-wide pathology (hang, crash) still trips every path's breaker
  // within `breaker_threshold` attempts each.
  // Zero disables the breaker.
  int breaker_threshold = 0;
  sim::Duration breaker_open_for = sim::Duration::sec(10);

  // When the whole chain is exhausted, re-report the last known good value
  // tagged SampleQuality::kStale (the database still records the failure).
  bool report_stale_on_exhaustion = false;
};

enum class BreakerState : std::uint8_t { kClosed, kOpen, kHalfOpen };
const char* to_string(BreakerState state);

// Per-(sensor, path) health as seen by the supervision layer.
struct SensorHealth {
  BreakerState state = BreakerState::kClosed;
  int consecutive_failures = 0;
  sim::TimePoint open_until{};
  bool probe_in_flight = false;  // half-open admits one probe at a time
  std::uint64_t successes = 0;
  std::uint64_t failures = 0;  // includes timeouts
  std::uint64_t trips = 0;     // closed/half-open -> open transitions
};

struct DirectorStats {
  std::uint64_t requests_accepted = 0;
  std::uint64_t measurements_started = 0;
  std::uint64_t measurements_completed = 0;
  std::uint64_t measurements_failed = 0;  // completed with valid == false
  std::uint64_t tuples_reported = 0;
  std::uint64_t rounds_completed = 0;
  // Supervision counters.
  std::uint64_t timeouts = 0;          // attempts killed by the deadline
  std::uint64_t late_completions = 0;  // done() after timeout: counted no-op
  std::uint64_t retries = 0;           // backoff re-attempts scheduled
  std::uint64_t fallbacks = 0;         // chain advanced to a fallback sensor
  std::uint64_t breaker_skips = 0;     // sensors skipped with an open breaker
  std::uint64_t exhausted = 0;         // jobs that ran out of sensors
  std::uint64_t stale_reports = 0;     // last-known re-reports on exhaustion
};

class SensorDirector {
 public:
  using TupleCallback = std::function<void(const PathMetricTuple&)>;
  using RoundCallback =
      std::function<void(const std::vector<PathMetricTuple>&)>;
  using RequestId = std::uint64_t;

  SensorDirector(sim::Simulator& sim, std::size_t max_concurrent = 1);
  SensorDirector(sim::Simulator& sim, std::size_t max_concurrent,
                 SupervisionConfig supervision,
                 std::size_t history_depth = 64,
                 TieredStorageConfig storage = {});

  // Sensor registration; the last *primary* registered for a metric wins
  // (and clears that metric's fallback chain). register_fallback appends to
  // the chain; fallbacks are tried in registration order after the primary.
  // Sensors are not owned: every registered sensor must outlive the
  // director (destroy the director first — see HighFidelityMonitor).
  void register_sensor(Metric metric, NetworkSensor* sensor);
  void register_fallback(Metric metric, NetworkSensor* sensor);
  NetworkSensor* sensor_for(Metric metric) const;
  const std::vector<NetworkSensor*>& chain_for(Metric metric) const {
    return chains_[static_cast<std::size_t>(metric)];
  }

  void set_supervision(SupervisionConfig supervision) {
    supervision_ = supervision;
  }
  const SupervisionConfig& supervision() const { return supervision_; }

  // Lane-scheduler generalization (DESIGN.md §11). set_scheduling replaces
  // the embedded scheduler's configuration (lanes, budget, disjointness,
  // aging); the profiler, when set, describes each measurement's offered
  // load and link footprint to the admission gates — without one every
  // probe is unconstrained (tag and priority are still filled in). Changes
  // affect admissions from the next pump; already-launched probes finish.
  using ProbeProfiler = std::function<ProbeProfile(const Path&, Metric)>;
  void set_scheduling(const SchedulerConfig& scheduling) {
    sequencer_.configure(scheduling);
  }
  void set_probe_profiler(ProbeProfiler profiler) {
    profiler_ = std::move(profiler);
  }
  // Breaker state of a sensor on one path; nullptr if that pair was never
  // exercised with the breaker enabled.
  const SensorHealth* health(const NetworkSensor* sensor,
                             const Path& path) const;

  // Resource-manager interface. Either callback may be null.
  RequestId submit(MonitorRequest request, TupleCallback on_tuple,
                   RoundCallback on_round = nullptr);
  void cancel(RequestId id);
  bool active(RequestId id) const { return requests_.count(id) != 0; }

  // --- control-plane retuning hooks (DESIGN.md §12) -----------------------
  // Adjusts a live request's period in place. The change takes effect when
  // the *next* round is scheduled — the in-flight round's cadence was fixed
  // when it started. Only meaningful for kPeriodic requests (kContinuous
  // ignores the period). False for unknown requests or non-positive periods.
  bool retune_period(RequestId id, sim::Duration period);
  std::optional<sim::Duration> period_of(RequestId id) const;
  // Re-classifies one path of a live request: probes of that path already
  // queued in the lane scheduler are re-ranked immediately (by PathId tag,
  // so other requests sharing the path move with it), and every subsequent
  // round enqueues the path at the new class. False when the request does
  // not carry the path.
  bool set_path_priority(RequestId id, const Path& path, ProbeClass priority);
  // Current class of one path of a live request (first match); nullopt when
  // the request or path is unknown.
  std::optional<ProbeClass> path_priority(RequestId id,
                                          const Path& path) const;

  MeasurementDatabase& database() { return database_; }
  const MeasurementDatabase& database() const { return database_; }
  TestSequencer& sequencer() { return sequencer_; }
  const DirectorStats& stats() const { return stats_; }
  sim::Simulator& simulator() { return sim_; }

  // Self-observability (DESIGN.md §10). Registers the director's pipeline
  // counters and sample-quality mix under "<prefix>.", forwards to the
  // embedded sequencer ("<prefix>.sequencer", with the simulator clock, so
  // slot-wait = serialization stall is measured) and database
  // ("<prefix>.db", senescence), and publishes per-(sensor, path)
  // success/failure/trip counters as health entries appear. Breaker
  // transitions additionally emit trace events when the registry has a
  // TraceSink.
  void attach_observability(obs::Registry& registry,
                            std::string prefix = "director");

 private:
  struct ActiveRequest {
    RequestId id;
    MonitorRequest request;
    TupleCallback on_tuple;
    RoundCallback on_round;
    // Database id of each PathRequest's path, interned on the first round
    // that measures anything.
    std::vector<PathId> path_ids;
    // Asynchronous mode: one reported tuple per PathRequest, its path
    // copied once; each report rewrites metric and value in place.
    std::vector<PathMetricTuple> tuples;
    // Synchronous mode: the round's first round_count entries, assigned in
    // place, so a steady round reuses their path buffers.
    std::vector<PathMetricTuple> round_tuples;
    std::size_t round_count = 0;
    std::size_t outstanding = 0;
    sim::TimePoint round_started;
    bool cancelled = false;
  };

  // One (path, metric) measurement job, possibly spanning several attempts
  // across several sensors of the chain. Pooled (util::RefPool): the
  // scheduler task, the sensor's completion, the deadline and the backoff
  // timer each hold a JobRef, and the slot recycles when the last drops.
  struct Job {
    std::shared_ptr<ActiveRequest> request;
    PathId path_id = kInvalidPathId;
    std::uint32_t path_index = 0;  // index into request->request.paths
    Metric metric = Metric::kThroughput;
    ProbeClass priority = ProbeClass::kNormal;
    std::size_t sensor_index = 0;  // position in the fallback chain
    int attempt = 0;               // retries consumed on the current sensor
    // The live attempt: its deadline and its sensor completion race, the
    // first to arrive settles it, and anything carrying an older id (or
    // arriving once settled) is a counted late no-op.
    std::uint64_t attempt_id = 0;
    bool settled = true;
    sim::EventHandle deadline;
  };
  using JobRef = util::RefPool<Job>::Ref;

  void start_round(std::shared_ptr<ActiveRequest> request);
  void enqueue_job(const JobRef& job);
  void launch(const JobRef& job, TestSequencer::Done done);
  void on_measured(const JobRef& job, NetworkSensor* sensor,
                   std::uint64_t attempt_id, const TestSequencer::Done& done,
                   MetricValue value);
  void attempt_failed(const JobRef& job, NetworkSensor* sensor,
                      TestSequencer::Done done);
  void exhaust(const JobRef& job, TestSequencer::Done done);
  sim::Duration backoff_delay(const Job& job) const;

  bool breaker_admits(NetworkSensor* sensor, PathId path);
  void breaker_success(NetworkSensor* sensor, PathId path);
  void breaker_failure(NetworkSensor* sensor, PathId path);
  // health_ lookup that registers the pair's observability gauges on first
  // contact (when attached).
  SensorHealth& health_entry(NetworkSensor* sensor, PathId path);
  void publish_health(const NetworkSensor* sensor, PathId path,
                      const SensorHealth& h);

  void job_finished(const Job& job, const MetricValue& reported,
                    const MetricValue* recorded = nullptr);
  void round_finished(const std::shared_ptr<ActiveRequest>& request);

  sim::Simulator& sim_;
  TestSequencer sequencer_;
  MeasurementDatabase database_;
  std::array<std::vector<NetworkSensor*>, kMetricCount> chains_{};
  SupervisionConfig supervision_;
  ProbeProfiler profiler_;
  std::map<std::pair<const NetworkSensor*, PathId>, SensorHealth> health_;
  std::map<RequestId, std::shared_ptr<ActiveRequest>> requests_;
  RequestId next_id_ = 1;
  util::RefPool<Job> jobs_;
  std::uint64_t next_attempt_id_ = 1;
  DirectorStats stats_;

  // Observability handles (null while detached; owned by the registry).
  obs::Scope obs_;
  std::array<obs::Counter*, 4> obs_quality_{};  // indexed by SampleQuality
};

}  // namespace netmon::core
