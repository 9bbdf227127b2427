#include "obs/metrics.hpp"

#include <algorithm>
#include <cstdio>
#include <stdexcept>
#include <utility>

namespace netmon::obs {
namespace {

// Fixed-format double rendering so exports are byte-stable across runs and
// platforms (no locale, no shortest-round-trip variance). Trailing zeros
// are trimmed for readability but deterministically.
std::string format_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6f", v);
  std::string s(buf);
  auto dot = s.find('.');
  auto last = s.find_last_not_of('0');
  if (last == dot) last = dot - 1;  // "3.000000" -> "3"
  s.erase(last + 1);
  return s;
}

std::string json_escape(const std::string& in) {
  std::string out;
  out.reserve(in.size() + 2);
  for (char c : in) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        out += c;
    }
  }
  return out;
}

}  // namespace

void Registry::check_unique(const std::string& name, const char* kind) const {
  auto clash = [&](bool same_kind, const char* table) {
    if (!same_kind) {
      throw std::logic_error("obs::Registry: metric '" + name +
                             "' already registered as " + table +
                             ", requested as " + kind);
    }
  };
  if (counters_.count(name) != 0) clash(kind == std::string("counter"),
                                        "counter");
  if (gauges_.count(name) != 0) clash(kind == std::string("gauge"), "gauge");
  if (gauge_fns_.count(name) != 0) {
    clash(kind == std::string("gauge_fn"), "gauge_fn");
  }
  if (histograms_.count(name) != 0) {
    clash(kind == std::string("histogram"), "histogram");
  }
}

Counter& Registry::counter(const std::string& name) {
  auto it = counters_.find(name);
  if (it != counters_.end()) return it->second;
  check_unique(name, "counter");
  return counters_[name];
}

Gauge& Registry::gauge(const std::string& name) {
  auto it = gauges_.find(name);
  if (it != gauges_.end()) return it->second;
  check_unique(name, "gauge");
  return gauges_[name];
}

Histogram& Registry::histogram(const std::string& name) {
  auto it = histograms_.find(name);
  if (it != histograms_.end()) return it->second;
  check_unique(name, "histogram");
  return histograms_[name];
}

void Registry::gauge_fn(const std::string& name, std::function<double()> fn) {
  auto it = gauge_fns_.find(name);
  if (it != gauge_fns_.end()) {
    it->second = std::move(fn);
    return;
  }
  check_unique(name, "gauge_fn");
  gauge_fns_[name] = std::move(fn);
}

namespace {
template <typename Map>
void erase_prefix(Map& map, const std::string& prefix) {
  auto it = map.lower_bound(prefix);
  while (it != map.end() && it->first.compare(0, prefix.size(), prefix) == 0) {
    it = map.erase(it);
  }
}
}  // namespace

void Registry::remove_prefix(const std::string& prefix) {
  erase_prefix(counters_, prefix);
  erase_prefix(gauges_, prefix);
  erase_prefix(gauge_fns_, prefix);
  erase_prefix(histograms_, prefix);
}

Scope::Scope(Registry& registry, std::string prefix) {
  if constexpr (!obs::kCompiledIn) {
    (void)registry;
    (void)prefix;
    return;
  }
  registry_ = &registry;
  alive_ = registry.alive_;
  prefix_ = std::move(prefix);
}

Scope::Scope(Scope&& other) noexcept
    : registry_(std::exchange(other.registry_, nullptr)),
      alive_(std::move(other.alive_)),
      prefix_(std::move(other.prefix_)) {}

Scope& Scope::operator=(Scope&& other) noexcept {
  if (this != &other) {
    release();
    registry_ = std::exchange(other.registry_, nullptr);
    alive_ = std::move(other.alive_);
    prefix_ = std::move(other.prefix_);
  }
  return *this;
}

void Scope::release() {
  if (attached()) registry_->remove_prefix(prefix_ + ".");
  registry_ = nullptr;
  alive_.reset();
}

Counter* Scope::counter(const std::string& suffix) const {
  return attached() ? &registry_->counter(prefix_ + "." + suffix) : nullptr;
}

Gauge* Scope::gauge(const std::string& suffix) const {
  return attached() ? &registry_->gauge(prefix_ + "." + suffix) : nullptr;
}

Histogram* Scope::histogram(const std::string& suffix) const {
  return attached() ? &registry_->histogram(prefix_ + "." + suffix) : nullptr;
}

void Scope::gauge_fn(const std::string& suffix,
                     std::function<double()> fn) const {
  if (attached()) registry_->gauge_fn(prefix_ + "." + suffix, std::move(fn));
}

void Scope::emit(std::int64_t at_ns, std::string category, std::string name,
                 double value) const {
  if (attached()) {
    registry_->emit(at_ns, std::move(category), std::move(name), value);
  }
}

bool Registry::contains(const std::string& name) const {
  return counters_.count(name) != 0 || gauges_.count(name) != 0 ||
         gauge_fns_.count(name) != 0 || histograms_.count(name) != 0;
}

std::size_t Registry::size() const {
  return counters_.size() + gauges_.size() + gauge_fns_.size() +
         histograms_.size();
}

std::vector<SnapshotEntry> Registry::snapshot() const {
  std::vector<SnapshotEntry> out;
  out.reserve(size());
  for (const auto& [name, c] : counters_) {
    SnapshotEntry e;
    e.name = name;
    e.kind = SnapshotEntry::Kind::kCounter;
    e.value = static_cast<double>(c.value());
    out.push_back(std::move(e));
  }
  for (const auto& [name, g] : gauges_) {
    SnapshotEntry e;
    e.name = name;
    e.kind = SnapshotEntry::Kind::kGauge;
    e.value = g.value();
    out.push_back(std::move(e));
  }
  for (const auto& [name, fn] : gauge_fns_) {
    SnapshotEntry e;
    e.name = name;
    e.kind = SnapshotEntry::Kind::kGauge;
    e.value = fn ? fn() : 0.0;
    out.push_back(std::move(e));
  }
  for (const auto& [name, h] : histograms_) {
    const QuantileSketch& s = h.sketch();
    SnapshotEntry e;
    e.name = name;
    e.kind = SnapshotEntry::Kind::kHistogram;
    e.value = static_cast<double>(s.count());
    e.count = s.count();
    e.min = s.min();
    e.max = s.max();
    e.mean = s.mean();
    e.p50 = s.p50();
    e.p90 = s.p90();
    e.p99 = s.p99();
    out.push_back(std::move(e));
  }
  std::sort(out.begin(), out.end(),
            [](const SnapshotEntry& a, const SnapshotEntry& b) {
              return a.name < b.name;
            });
  return out;
}

std::string Registry::to_text(const std::vector<SnapshotEntry>& snapshot) {
  std::string out;
  for (const SnapshotEntry& e : snapshot) {
    out += e.name;
    switch (e.kind) {
      case SnapshotEntry::Kind::kCounter:
        out += " counter " + format_double(e.value);
        break;
      case SnapshotEntry::Kind::kGauge:
        out += " gauge " + format_double(e.value);
        break;
      case SnapshotEntry::Kind::kHistogram:
        out += " histogram count=" + format_double(e.value) +
               " min=" + format_double(e.min) + " mean=" + format_double(e.mean) +
               " max=" + format_double(e.max) + " p50=" + format_double(e.p50) +
               " p90=" + format_double(e.p90) + " p99=" + format_double(e.p99);
        break;
    }
    out += '\n';
  }
  return out;
}

std::string Registry::to_json(const std::vector<SnapshotEntry>& snapshot) {
  std::string out = "{\n";
  bool first = true;
  for (const SnapshotEntry& e : snapshot) {
    if (!first) out += ",\n";
    first = false;
    out += "  \"" + json_escape(e.name) + "\": ";
    switch (e.kind) {
      case SnapshotEntry::Kind::kCounter:
      case SnapshotEntry::Kind::kGauge:
        out += format_double(e.value);
        break;
      case SnapshotEntry::Kind::kHistogram:
        out += "{\"count\": " + format_double(e.value) +
               ", \"min\": " + format_double(e.min) +
               ", \"mean\": " + format_double(e.mean) +
               ", \"max\": " + format_double(e.max) +
               ", \"p50\": " + format_double(e.p50) +
               ", \"p90\": " + format_double(e.p90) +
               ", \"p99\": " + format_double(e.p99) + "}";
        break;
    }
  }
  out += "\n}\n";
  return out;
}

}  // namespace netmon::obs
