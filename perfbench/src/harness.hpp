#pragma once

// Shared machinery of the benchmark binary: the heap-allocation counter,
// host-time spans, the simulated-result digest, and the per-repetition
// result every workload fills in.

#include <chrono>
#include <cstdint>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/sensor_director.hpp"
#include "net/topology.hpp"
#include "sim/simulator.hpp"

namespace perfbench {

// Heap allocations made by this process so far (counting operator new).
std::uint64_t alloc_count();

inline std::int64_t host_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double peak_rss_mb();

// ---------------------------------------------------------------------------
// Spans. Each layer boundary the benchmark calls through has a fixed id; the
// tracer keeps open spans on a stack (the simulator is single-threaded, so
// spans nest strictly) and charges each closed span's duration to its
// parent's child time, which gives exact self time per layer. Raw spans are
// also kept in memory, up to a cap, and written to a file when the run ends.

enum SpanId : std::uint8_t {
  kSpanTimed,           // the whole timed phase (root)
  kSpanSetupTopology,   // topology build + auto_route (set-up, not timed)
  kSpanSimRun,          // sim::Simulator::run_for / run
  kSpanRouteProfile,    // the director's probe profiler (route footprints)
  kSpanDirectorSubmit,  // SensorDirector::submit
  kSpanDirectorComplete,  // a sensor's Done back into the director
  kSpanNttcpLaunch,     // NttcpSensor::measure
  kSpanSnmpLaunch,      // SnmpSensor::measure
  kSpanSchedEnqueue,    // LaneScheduler::enqueue
  kSpanSchedRelease,    // LaneScheduler Done (release + next admission)
  kSpanDbRecord,        // MeasurementDatabase::record
  kSpanDbQuery,         // MeasurementDatabase::query
  kSpanCount,
};

const char* span_name(SpanId id);

struct SpanTotals {
  std::uint64_t count = 0;
  std::int64_t total_ns = 0;  // inclusive
  std::int64_t self_ns = 0;   // minus nested spans
};

class Tracer {
 public:
  struct Raw {
    std::int64_t start_ns;
    std::int64_t end_ns;
    std::uint32_t parent;  // index into the raw list; ~0u for a root
    SpanId id;
  };

  bool enabled() const { return enabled_; }
  void set_enabled(bool on) { enabled_ = on; }
  void reset();

  void begin(SpanId id) {
    std::uint32_t raw_index = ~0u;
    const std::int64_t now = host_ns();
    if (raw_.size() < raw_cap_) {
      raw_index = static_cast<std::uint32_t>(raw_.size());
      raw_.push_back(Raw{now, 0,
                         stack_.empty() ? ~0u : stack_.back().raw_index, id});
    }
    stack_.push_back(Open{now, 0, raw_index, id});
  }
  void end() {
    const std::int64_t now = host_ns();
    const Open open = stack_.back();
    stack_.pop_back();
    const std::int64_t duration = now - open.start_ns;
    SpanTotals& t = totals_[open.id];
    ++t.count;
    t.total_ns += duration;
    t.self_ns += duration - open.child_ns;
    if (!stack_.empty()) stack_.back().child_ns += duration;
    if (open.raw_index != ~0u) raw_[open.raw_index].end_ns = now;
  }

  const SpanTotals& totals(SpanId id) const { return totals_[id]; }
  const std::vector<Raw>& raw() const { return raw_; }
  std::uint64_t raw_dropped() const;

 private:
  struct Open {
    std::int64_t start_ns;
    std::int64_t child_ns;
    std::uint32_t raw_index;
    SpanId id;
  };
  bool enabled_ = false;
  std::vector<Open> stack_;
  SpanTotals totals_[kSpanCount] = {};
  std::vector<Raw> raw_;
  std::size_t raw_cap_ = 200'000;
};

Tracer& tracer();

// RAII span; a no-op (one branch) when tracing is off.
class Span {
 public:
  explicit Span(SpanId id) : on_(tracer().enabled()) {
    if (on_) tracer().begin(id);
  }
  ~Span() {
    if (on_) tracer().end();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  bool on_;
};

// ---------------------------------------------------------------------------
// FNV-1a digest over simulated outcomes. Same seed => same digest, whatever
// the host speed; a speed-only change must leave it unchanged.

class Digest {
 public:
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xFF;
      h_ *= 0x100000001B3ull;
    }
  }
  void add_double(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    add(bits);
  }
  void add(const std::string& s) {
    for (unsigned char c : s) {
      h_ ^= c;
      h_ *= 0x100000001B3ull;
    }
    add(s.size());
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xCBF29CE484222325ull;
};

// ---------------------------------------------------------------------------
// Inter-sample gaps per (path, metric) series, fed from a database record
// hook or a tuple observer; also digests every sample it sees.

class SampleLog {
 public:
  void on_sample(std::size_t series, const netmon::core::MetricValue& v);
  std::uint64_t samples() const { return samples_; }
  std::uint64_t failed() const { return failed_; }
  // Samples recorded per series (index = series slot).
  const std::vector<std::uint32_t>& per_series() const { return count_; }
  // Exact quantile of all inter-sample gaps, in simulated seconds; 0 when
  // no series has two samples.
  double gap_quantile_s(double q) const;
  Digest& digest() { return digest_; }

 private:
  std::vector<std::int64_t> last_ns_;
  std::vector<std::uint32_t> count_;
  std::vector<std::int64_t> gaps_ns_;
  std::uint64_t samples_ = 0;
  std::uint64_t failed_ = 0;
  Digest digest_;
};

// ---------------------------------------------------------------------------
// Traced-run sensor decorator: spans the sensor launch and the Done back
// into the director, counts failed results, and integrates the
// simulated time probes hold a lane (for lane occupancy). Registered only in
// traced repetitions; it schedules no events, so the simulation is the same.

class TracedSensor : public netmon::core::NetworkSensor {
 public:
  TracedSensor(netmon::sim::Simulator& sim, netmon::core::NetworkSensor& inner,
               SpanId launch_span)
      : sim_(sim), inner_(inner), launch_span_(launch_span) {}

  std::string name() const override { return inner_.name(); }
  bool supports(netmon::core::Metric metric) const override {
    return inner_.supports(metric);
  }
  void measure(const netmon::core::Path& path, netmon::core::Metric metric,
               Done done) override;

  std::uint64_t failed() const { return failed_; }
  double hold_s() const { return static_cast<double>(hold_ns_) * 1e-9; }

 private:
  netmon::sim::Simulator& sim_;
  netmon::core::NetworkSensor& inner_;
  SpanId launch_span_;
  std::uint64_t failed_ = 0;
  std::int64_t hold_ns_ = 0;
};

// Wraps a probe profiler so each call is counted and (when tracing) spanned.
netmon::core::SensorDirector::ProbeProfiler counted_profiler(
    netmon::core::SensorDirector::ProbeProfiler inner, std::uint64_t* calls);

// Adds a lane scheduler's admission counters ("sched.*") to `layer`.
void add_sched_counts(std::map<std::string, double>& layer,
                      const netmon::core::SchedulerStats& stats);
// Adds a measurement database's record and tiered-store counters ("db.*")
// to `layer`.
void add_db_counts(std::map<std::string, double>& layer,
                   const netmon::core::MeasurementDatabase& db);

// Network-wide frame and drop counters summed over every NIC and switch port.
struct NetCounts {
  std::uint64_t frames = 0;
  std::uint64_t drops = 0;
};
NetCounts net_counts(const netmon::net::Network& network);

// ---------------------------------------------------------------------------

// Everything one repetition (set-up + timed phase) produces.
struct Rep {
  double setup_s = 0.0;
  double wall_s = 0.0;
  double sim_s = 0.0;             // simulated seconds of the timed phase
  std::uint64_t samples = 0;      // (path, metric) samples recorded
  std::uint64_t admissions = 0;   // probes admitted by lane schedulers
  std::uint64_t attempted = 0;    // measurements attempted
  std::uint64_t failed = 0;       // failed or timed-out measurements
  std::uint64_t allocs = 0;       // heap allocations in the timed phase
  double first_round_s = -1.0;    // host s from submit to full coverage
  double peak_rss_mb = 0.0;       // peak RSS of the repetition's process
  // Simulated end-to-end metrics (repeat exactly for a seed), by name.
  std::map<std::string, double> sim_metrics;
  // Per-layer counts and derived ratios, by name.
  std::map<std::string, double> layer;
  std::uint64_t checks = 0;           // correctness gates evaluated
  std::vector<std::string> failures;  // correctness-gate failures
  std::uint64_t digest = 0;
  bool traced = false;
  SpanTotals spans[kSpanCount] = {};
};

// One workload: set-up builds everything up to the first timed event, run
// is the timed phase, finish checks correctness and fills in the result.
class Workload {
 public:
  virtual ~Workload() = default;
  virtual void setup(std::uint64_t seed, bool traced) = 0;
  virtual void run(Rep& rep) = 0;
  virtual void finish(Rep& rep) = 0;
};

std::unique_ptr<Workload> make_rtds9x3();
std::unique_ptr<Workload> make_fabric10k();
std::unique_ptr<Workload> make_admit_contended();
std::unique_ptr<Workload> make_zones_chaos();

// Gate helper: records a failure message when `ok` is false.
inline void check(Rep& rep, bool ok, const std::string& what) {
  ++rep.checks;
  if (!ok) rep.failures.push_back(what);
}

}  // namespace perfbench
