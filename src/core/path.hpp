#pragma once

// The dynamic-path abstraction (paper §3, after Welch [2]): instead of
// monitoring the communication infrastructure as a whole, the resource
// manager names application-level paths — ordered lists of application
// processes — and the metrics to collect on each.

#include <compare>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "net/address.hpp"
#include "sim/time.hpp"

namespace netmon::core {

struct ProcessEndpoint {
  std::string process;  // e.g. "rtds-server"
  net::IpAddr host;
  std::uint16_t port = 0;

  auto operator<=>(const ProcessEndpoint&) const = default;
  std::string to_string() const;
};

class Path {
 public:
  Path() = default;
  // Requires at least two endpoints.
  explicit Path(std::vector<ProcessEndpoint> endpoints);
  Path(ProcessEndpoint from, ProcessEndpoint to);

  const std::vector<ProcessEndpoint>& endpoints() const { return endpoints_; }
  const ProcessEndpoint& source() const { return endpoints_.front(); }
  const ProcessEndpoint& destination() const { return endpoints_.back(); }
  std::size_t leg_count() const { return endpoints_.size() - 1; }
  std::pair<const ProcessEndpoint&, const ProcessEndpoint&> leg(
      std::size_t i) const;

  std::string to_string() const;  // "a@10.0.0.1 -> b@10.0.0.2"

  // Structural hash, computed once at construction (endpoints are immutable
  // afterwards). Lets hash containers key on Path without re-hashing the
  // endpoint strings per lookup — the measurement database's interning step
  // sits on the per-sample hot path.
  std::size_t hash() const { return hash_; }

  bool operator==(const Path& o) const {
    return hash_ == o.hash_ && endpoints_ == o.endpoints_;
  }
  std::strong_ordering operator<=>(const Path& o) const {
    return endpoints_ <=> o.endpoints_;
  }

 private:
  std::vector<ProcessEndpoint> endpoints_;
  std::size_t hash_ = 0;
};

enum class Metric : std::uint8_t {
  kThroughput,     // end-to-end application-level throughput, bits/second
  kOneWayLatency,  // seconds
  kReachability,   // 1.0 reachable / 0.0 not
};
constexpr std::size_t kMetricCount = 3;
const char* to_string(Metric metric);

// Provenance of a sample under supervision (DESIGN.md §9): the resource
// manager can weigh a first-attempt reading differently from one that needed
// retries, came from a lower-fidelity fallback sensor, or is a re-report of
// the last known value after the whole sensor chain was exhausted.
enum class SampleQuality : std::uint8_t {
  kFresh,     // first attempt on the primary sensor succeeded
  kRetried,   // succeeded after >= 1 retry of the same sensor
  kFallback,  // succeeded via a fallback sensor in the chain
  kStale,     // supervision exhausted; last known value re-reported
};
const char* to_string(SampleQuality quality);

struct MetricValue {
  double value = 0.0;
  bool valid = false;          // false: the measurement itself failed
  sim::TimePoint measured_at;  // true simulation time of completion
  SampleQuality quality = SampleQuality::kFresh;

  static MetricValue of(double v, sim::TimePoint at) {
    return MetricValue{v, true, at};
  }
  static MetricValue failed(sim::TimePoint at) {
    return MetricValue{0.0, false, at};
  }
};

// Dense index of a Path interned by a MeasurementDatabase. Ids are assigned
// in interning order, starting at 0, and stay valid for the database's
// lifetime.
using PathId = std::uint32_t;
constexpr PathId kInvalidPathId = 0xFFFFFFFFu;

// The (path, metric) tuple reported to the resource manager (paper §4.1).
struct PathMetricTuple {
  Path path;
  Metric metric = Metric::kThroughput;
  MetricValue value;
  // The director's database id for `path`, so consumers can index per-path
  // state densely; kInvalidPathId when the producer has none.
  PathId path_id = kInvalidPathId;
};

}  // namespace netmon::core

template <>
struct std::hash<netmon::core::Path> {
  std::size_t operator()(const netmon::core::Path& p) const {
    return p.hash();
  }
};
