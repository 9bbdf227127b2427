#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cstdlib>
#include <new>

#include "net/switch.hpp"

// ---------------------------------------------------------------------------
// Counting operator new: every heap allocation in the process bumps one
// counter. The benchmark is single-threaded, so a plain counter suffices.

namespace {
std::uint64_t g_allocs = 0;

void* counted_alloc(std::size_t size) {
  ++g_allocs;
  if (size == 0) size = 1;
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* counted_aligned_alloc(std::size_t size, std::align_val_t align) {
  ++g_allocs;
  const std::size_t a = static_cast<std::size_t>(align);
  std::size_t rounded = (size + a - 1) / a * a;
  if (rounded == 0) rounded = a;
  if (void* p = std::aligned_alloc(a, rounded)) return p;
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  ++g_allocs;
  return std::malloc(size == 0 ? 1 : size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  ++g_allocs;
  return std::malloc(size == 0 ? 1 : size);
}
void* operator new(std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace perfbench {

using namespace netmon;

std::uint64_t alloc_count() { return g_allocs; }

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

const char* span_name(SpanId id) {
  static const char* const kNames[kSpanCount] = {
      "timed",          "net.setup_topology", "sim.run",
      "net.route_profile", "director.submit", "director.complete",
      "nttcp.launch",   "snmp.launch",        "sched.enqueue",
      "sched.release",  "db.record",          "db.query",
  };
  return kNames[id];
}

void Tracer::reset() {
  stack_.clear();
  for (SpanTotals& t : totals_) t = SpanTotals{};
  raw_.clear();
  raw_.reserve(raw_cap_);
  stack_.reserve(64);
}

std::uint64_t Tracer::raw_dropped() const {
  std::uint64_t total = 0;
  for (const SpanTotals& t : totals_) total += t.count;
  return total - raw_.size();
}

Tracer& tracer() {
  static Tracer instance;
  return instance;
}

void SampleLog::on_sample(std::size_t series, const core::MetricValue& v) {
  if (series >= last_ns_.size()) {
    last_ns_.resize(series + 1, -1);
    count_.resize(series + 1, 0);
  }
  const std::int64_t at = v.measured_at.nanos();
  if (last_ns_[series] >= 0) gaps_ns_.push_back(at - last_ns_[series]);
  last_ns_[series] = at;
  ++count_[series];
  ++samples_;
  if (!v.valid) ++failed_;
  digest_.add(series);
  digest_.add(static_cast<std::uint64_t>(at));
  digest_.add_double(v.value);
  digest_.add(static_cast<std::uint64_t>(v.valid) |
              (static_cast<std::uint64_t>(v.quality) << 1));
}

double SampleLog::gap_quantile_s(double q) const {
  if (gaps_ns_.empty()) return 0.0;
  std::vector<std::int64_t> sorted = gaps_ns_;
  std::sort(sorted.begin(), sorted.end());
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  const double ns = static_cast<double>(sorted[lo]) * (1.0 - frac) +
                    static_cast<double>(sorted[hi]) * frac;
  return ns * 1e-9;
}

void TracedSensor::measure(const core::Path& path, core::Metric metric,
                           Done done) {
  Span span(launch_span_);
  const std::int64_t start = sim_.now().nanos();
  inner_.measure(path, metric,
                 [this, start, done = std::move(done)](core::MetricValue v) {
                   Span complete(kSpanDirectorComplete);
                   hold_ns_ += sim_.now().nanos() - start;
                   if (!v.valid) ++failed_;
                   done(v);
                 });
}

core::SensorDirector::ProbeProfiler counted_profiler(
    core::SensorDirector::ProbeProfiler inner, std::uint64_t* calls) {
  return [inner = std::move(inner), calls](const core::Path& path,
                                           core::Metric metric) {
    Span span(kSpanRouteProfile);
    ++*calls;
    return inner(path, metric);
  };
}

void add_sched_counts(std::map<std::string, double>& layer,
                      const core::SchedulerStats& stats) {
  layer["sched.admitted"] += static_cast<double>(stats.admitted);
  layer["sched.wake_tests"] += static_cast<double>(stats.wake_tests);
  layer["sched.futile_wakeups"] += static_cast<double>(stats.futile_wakeups);
  layer["sched.deferred_disjoint"] +=
      static_cast<double>(stats.deferred_disjoint);
  layer["sched.deferred_budget"] += static_cast<double>(stats.deferred_budget);
}

void add_db_counts(std::map<std::string, double>& layer,
                   const core::MeasurementDatabase& db) {
  const core::TieredStore& store = db.tiered();
  layer["db.records"] += static_cast<double>(db.records_written());
  layer["db.pages_in_use"] += static_cast<double>(store.stats().pages_in_use);
  layer["db.overcommits"] += static_cast<double>(store.stats().overcommits);
  for (std::size_t t = 0; t < store.config().tiers; ++t) {
    layer["db.rollovers"] += static_cast<double>(store.tier_stats(t).rollovers);
    layer["db.evictions"] += static_cast<double>(store.tier_stats(t).evictions);
  }
}

NetCounts net_counts(const net::Network& network) {
  NetCounts out;
  auto add = [&out](const net::Nic& nic) {
    const net::NicCounters& c = nic.counters();
    out.frames += c.out_frames;
    out.drops += c.out_drops + c.in_drops;
  };
  for (const auto& host : network.hosts()) {
    for (const auto& nic : host->nics()) add(*nic);
  }
  for (const auto& sw : network.switches()) {
    for (const auto& port : sw->ports()) add(*port);
  }
  for (const auto& link : network.links()) {
    out.drops += link->frames_dropped_down() + link->fault_stats().frames_dropped +
                 link->fault_stats().frames_corrupted;
  }
  return out;
}

}  // namespace perfbench
