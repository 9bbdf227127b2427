#pragma once

// Self-observability metrics registry (DESIGN.md §10). The monitor of the
// paper is evaluated by fidelity (senescence + accuracy), intrusiveness,
// and scalability (§4.4); this registry is where the codebase measures
// those properties about *itself*: hot layers register counters, gauges,
// and streaming-quantile histograms here, and a snapshot/exporter surface
// turns them into one coherent, deterministic telemetry view (text, JSON,
// or — via obs/self_mib — an RMON-style SNMP group, so the monitor can be
// monitored by the architecture it implements).
//
// Cost model: instrumented components hold plain pointers into the
// registry and guard every touch with a null check, so an unattached
// component pays one predictable branch; attached counters are a single
// increment, and histogram observations on per-event hot paths are
// sampled (1-in-N) to stay under the <5% bench budget. Defining
// NETMON_OBS_ENABLED=0 compiles every instrumentation site out entirely
// (netmon::obs::kCompiledIn folds the guards away), for a measured-zero
// configuration.
//
// The registry is passive: it never schedules simulator events, so
// attaching observability cannot perturb event order — the event-core
// golden trace holds with instrumentation on (tests/obs_test.cpp).

#ifndef NETMON_OBS_ENABLED
#define NETMON_OBS_ENABLED 1
#endif

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "obs/event_log.hpp"
#include "obs/quantile.hpp"

namespace netmon::obs {

// Compile-time master switch; see NETMON_OBS in the top-level CMakeLists.
inline constexpr bool kCompiledIn = NETMON_OBS_ENABLED != 0;

class Counter {
 public:
  void inc(std::uint64_t n = 1) { v_ += n; }
  std::uint64_t value() const { return v_; }

 private:
  std::uint64_t v_ = 0;
};

class Gauge {
 public:
  void set(double v) { v_ = v; }
  void add(double d) { v_ += d; }
  double value() const { return v_; }

 private:
  double v_ = 0.0;
};

class Histogram {
 public:
  void observe(double x) { sketch_.add(x); }
  const QuantileSketch& sketch() const { return sketch_; }
  std::size_t count() const { return sketch_.count(); }

 private:
  QuantileSketch sketch_;
};

// One structured trace event: a timestamped (category, name, value) triple
// emitted by an instrumented component (breaker transitions, timeouts,
// escalations...). Stored in a bounded EventLog so a chaos soak cannot grow
// without bound.
struct TraceEvent {
  std::int64_t at_ns = 0;
  std::string category;
  std::string name;
  double value = 0.0;

  friend void digest_into(Fnv1a& h, const TraceEvent& e) {
    h.u64(static_cast<std::uint64_t>(e.at_ns));
    h.str(e.category);
    h.str(e.name);
    h.f64(e.value);
  }
};

using TraceSink = EventLog<TraceEvent>;

// One exported metric, as captured by Registry::snapshot().
struct SnapshotEntry {
  enum class Kind { kCounter, kGauge, kHistogram };

  std::string name;
  Kind kind = Kind::kCounter;
  double value = 0.0;  // counter/gauge value; histogram count
  // Histogram detail (zero for scalar kinds).
  std::uint64_t count = 0;
  double min = 0.0;
  double max = 0.0;
  double mean = 0.0;
  double p50 = 0.0;
  double p90 = 0.0;
  double p99 = 0.0;
};

// Named metric registry. Handles returned by counter()/gauge()/histogram()
// are stable for the registry's lifetime (node-based storage), so hot
// paths cache the pointer once and never re-look-up by name. Iteration and
// export order is name-sorted, hence deterministic.
class Registry {
 public:
  Registry() = default;
  // Scopes hold this registry's address, so it has a fixed identity.
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  // Get-or-create. Throws std::logic_error if `name` already names a
  // metric of a different kind.
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  Histogram& histogram(const std::string& name);
  // Callback-backed gauge, evaluated at snapshot time: zero hot-path cost
  // for values a component already maintains (stats structs, queue sizes).
  // Re-registering a name replaces the callback.
  void gauge_fn(const std::string& name, std::function<double()> fn);

  // Removes every metric whose name starts with `prefix`. Components do
  // not call this themselves: their obs::Scope does, on destruction or
  // re-attach, and only while the registry is still alive — so a registry
  // and the components attached to it may be destroyed in either order.
  void remove_prefix(const std::string& prefix);

  bool contains(const std::string& name) const;
  std::size_t size() const;

  // Optional structured trace sink (not owned).
  void set_trace(TraceSink* sink) { trace_ = sink; }
  TraceSink* trace() const { return trace_; }
  void emit(std::int64_t at_ns, std::string category, std::string name,
            double value) {
    if (trace_ != nullptr) {
      trace_->append(
          TraceEvent{at_ns, std::move(category), std::move(name), value});
    }
  }

  // Point-in-time capture of every metric, name-sorted. gauge_fn callbacks
  // are evaluated here.
  std::vector<SnapshotEntry> snapshot() const;

  // Human-readable one-line-per-metric dump.
  static std::string to_text(const std::vector<SnapshotEntry>& snapshot);
  // Stable JSON (sorted keys, fixed float format): the same telemetry
  // yields the identical byte string, so exports diff cleanly across runs.
  static std::string to_json(const std::vector<SnapshotEntry>& snapshot);
  std::string export_text() const { return to_text(snapshot()); }
  std::string export_json() const { return to_json(snapshot()); }

  // Read-only access to the underlying tables (used by obs/self_mib to
  // bind live MIB variables to handles).
  const std::map<std::string, Counter>& counters() const { return counters_; }
  const std::map<std::string, Gauge>& gauges() const { return gauges_; }
  const std::map<std::string, Histogram>& histograms() const {
    return histograms_;
  }
  const std::map<std::string, std::function<double()>>& gauge_fns() const {
    return gauge_fns_;
  }

 private:
  void check_unique(const std::string& name, const char* kind) const;

  std::map<std::string, Counter> counters_;
  std::map<std::string, Gauge> gauges_;
  std::map<std::string, std::function<double()>> gauge_fns_;
  std::map<std::string, Histogram> histograms_;
  TraceSink* trace_ = nullptr;
  // Liveness token: Scopes watch it weakly and skip their removal once the
  // registry is gone.
  std::shared_ptr<const bool> alive_ = std::make_shared<const bool>(true);

  friend class Scope;
};

// A component's attachment to a Registry: the one way to attach
// observability (DESIGN.md §10). It registers metrics as
// "<prefix>.<suffix>" and, on destruction or when a new Scope is moved
// over it, removes "<prefix>.*" again — but only if the registry is still
// alive, so neither side has to outlive the other. A default-constructed
// Scope is detached, and with observability compiled out every Scope is:
// registrations return null handles and gauge_fn/emit do nothing, so
// components need no compile-out branch of their own.
//
// Hot paths keep the raw handles counter()/histogram() return and
// null-check them; the registry owns what they point to.
class Scope {
 public:
  Scope() = default;
  Scope(Registry& registry, std::string prefix);
  Scope(Scope&& other) noexcept;
  Scope& operator=(Scope&& other) noexcept;
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  ~Scope() { release(); }

  // True while attached to a registry that is still alive.
  bool attached() const { return registry_ != nullptr && !alive_.expired(); }
  const std::string& prefix() const { return prefix_; }

  // Get-or-create "<prefix>.<suffix>"; null while detached.
  Counter* counter(const std::string& suffix) const;
  Gauge* gauge(const std::string& suffix) const;
  Histogram* histogram(const std::string& suffix) const;
  void gauge_fn(const std::string& suffix, std::function<double()> fn) const;
  // gauge_fn reading a value the component already maintains (a stats
  // field, a size); the value must live as long as this Scope.
  template <typename T>
  void gauge_of(const std::string& suffix, const T& value) const {
    gauge_fn(suffix, [&value] { return static_cast<double>(value); });
  }
  // Forwards to Registry::emit while attached.
  void emit(std::int64_t at_ns, std::string category, std::string name,
            double value) const;

 private:
  void release();

  Registry* registry_ = nullptr;
  std::weak_ptr<const bool> alive_;
  std::string prefix_;
};

}  // namespace netmon::obs
