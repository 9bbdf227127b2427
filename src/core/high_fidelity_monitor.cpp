#include "core/high_fidelity_monitor.hpp"

#include <algorithm>
#include <stdexcept>
#include <unordered_map>

#include "util/logging.hpp"

namespace netmon::core {

void SinkSet::install(net::Host& host, std::uint16_t nttcp_port,
                      std::uint16_t echo_port) {
  sinks_.push_back(std::make_unique<nttcp::NttcpSink>(host, nttcp_port));
  responders_.push_back(
      std::make_unique<nttcp::EchoResponder>(host, echo_port));
}

NttcpSensor::NttcpSensor(net::Network& network,
                         nttcp::NttcpConfig probe_config,
                         nttcp::ReachabilityProbe::Config reach_config)
    : network_(network),
      probe_config_(probe_config),
      reach_config_(reach_config) {}

bool NttcpSensor::supports(Metric metric) const {
  (void)metric;
  return true;  // the application-layer tool measures all three accurately
}

namespace {

// Pops a recycled slot index, or appends a fresh slot.
template <class Slots>
std::uint32_t take_slot(Slots& slots, std::vector<std::uint32_t>& free) {
  if (!free.empty()) {
    const std::uint32_t i = free.back();
    free.pop_back();
    return i;
  }
  slots.emplace_back();
  return static_cast<std::uint32_t>(slots.size() - 1);
}

}  // namespace

void NttcpSensor::measure(const Path& path, Metric metric, Done done) {
  const std::uint32_t m = take_slot(measurements_, free_measurements_);
  Measurement& ms = measurements_[m];
  ms.path = path;
  ms.metric = metric;
  ms.acc = LegAccumulator{};
  ms.done = std::move(done);
  measure_leg(m, 0);
}

void NttcpSensor::measure_leg(std::uint32_t m, std::size_t leg_index) {
  const Measurement& ms = measurements_[m];
  auto [from, to] = ms.path.leg(leg_index);
  net::Host* source = network_.host_of(from.host);
  if (source == nullptr || !source->up()) {
    complete(m, MetricValue::failed(network_.simulator().now()));
    return;
  }
  const std::uint32_t p = take_slot(probes_, free_probes_);
  ProbeSlot& slot = probes_[p];
  slot.measurement = m;
  slot.leg = leg_index;
  ++probes_launched_;
  if (ms.metric == Metric::kReachability) {
    slot.reach.emplace(*source, to.host, reach_config_,
                       [this, p](const nttcp::ReachabilityResult& r) {
                         on_reach_result(p, r);
                       });
    slot.reach->start();
    return;
  }
  slot.nttcp.emplace(*source, to.host, probe_config_,
                     [this, p](const nttcp::NttcpResult& r) {
                       on_nttcp_result(p, r);
                     });
  slot.nttcp->start();
}

void NttcpSensor::on_reach_result(std::uint32_t p,
                                  const nttcp::ReachabilityResult& r) {
  cleanup_later(p);
  const std::uint32_t m = probes_[p].measurement;
  const std::size_t next_leg = probes_[p].leg + 1;
  const sim::TimePoint now = network_.simulator().now();
  if (!r.reachable) {
    complete(m, MetricValue::of(0.0, now));
  } else if (next_leg >= measurements_[m].path.leg_count()) {
    complete(m, MetricValue::of(1.0, now));
  } else {
    measure_leg(m, next_leg);
  }
}

void NttcpSensor::on_nttcp_result(std::uint32_t p,
                                  const nttcp::NttcpResult& r) {
  cleanup_later(p);
  probe_bytes_on_wire_ += r.probe_bytes_on_wire;
  const std::uint32_t m = probes_[p].measurement;
  const std::size_t next_leg = probes_[p].leg + 1;
  Measurement& ms = measurements_[m];
  if (!r.completed) {
    complete(m, MetricValue::failed(network_.simulator().now()));
    return;
  }
  LegAccumulator& acc = ms.acc;
  if (ms.metric == Metric::kThroughput) {
    if (!acc.have_throughput || r.throughput_bps < acc.min_throughput_bps) {
      acc.have_throughput = true;
      acc.min_throughput_bps = r.throughput_bps;
    }
  } else {  // one-way latency
    acc.latency_sum_s += r.latency.empty() ? 0.0 : r.latency.median();
  }
  if (next_leg < ms.path.leg_count()) {
    measure_leg(m, next_leg);
    return;
  }
  const double value = ms.metric == Metric::kThroughput
                           ? acc.min_throughput_bps
                           : acc.latency_sum_s;
  complete(m, MetricValue::of(value, network_.simulator().now()));
}

void NttcpSensor::complete(std::uint32_t m, const MetricValue& value) {
  // The slot is free before the caller hears back: its completion may
  // start the next measurement, which can reuse it.
  Done done = std::move(measurements_[m].done);
  free_measurements_.push_back(m);
  done(value);
}

void NttcpSensor::cleanup_later(std::uint32_t p) {
  // Probes finish from inside their own callbacks; destroy them on a fresh
  // event so no object deletes itself mid-call.
  network_.simulator().schedule_in(sim::Duration::ns(0), [this, p] {
    probes_[p].reach.reset();
    probes_[p].nttcp.reset();
    free_probes_.push_back(p);
  });
}

SensorDirector::ProbeProfiler make_route_profiler(
    net::Network& network, const nttcp::NttcpConfig& probe,
    double reach_offered_bps) {
  const double probe_bps = nttcp::NttcpProbe::peak_load_bps(probe);
  struct PathFootprint {
    std::vector<LinkKey> keys;
    double hop_multiplier = 1.0;
  };
  auto cache = std::make_shared<std::unordered_map<Path, PathFootprint>>();
  return [&network, probe_bps, reach_offered_bps,
          cache](const Path& path, Metric metric) {
    ProbeProfile profile;
    auto it = cache->find(path);
    if (it == cache->end()) {
      PathFootprint fp;
      // One route walk per direction; returns that direction's hop count.
      auto add_direction = [&fp, &network](net::IpAddr a, net::IpAddr b) {
        const net::Network::RouteTrace trace = network.trace_route(a, b);
        for (const net::Medium* medium : trace.media) {
          const auto key = static_cast<LinkKey>(
              reinterpret_cast<std::uintptr_t>(medium));
          if (std::find(fp.keys.begin(), fp.keys.end(), key) ==
              fp.keys.end()) {
            fp.keys.push_back(key);
          }
        }
        return trace.hops;
      };
      // Legs are measured sequentially, so the concurrent load is the worst
      // single leg's. octets_by_class() charges the burst once per L3 hop
      // (routers re-inject it), so the declared load — which the budget B
      // and the IntrusivenessMeter it is checked against both use — scales
      // by the data direction's hop count.
      for (std::size_t leg = 0; leg < path.leg_count(); ++leg) {
        auto [from, to] = path.leg(leg);
        const std::size_t hops = add_direction(from.host, to.host);
        add_direction(to.host, from.host);
        fp.hop_multiplier =
            std::max(fp.hop_multiplier, static_cast<double>(hops));
      }
      it = cache->emplace(path, std::move(fp)).first;
    }
    const double data_bps =
        metric == Metric::kReachability ? reach_offered_bps : probe_bps;
    profile.offered_bps = data_bps * it->second.hop_multiplier;
    profile.footprint = it->second.keys;
    return profile;
  };
}

HighFidelityMonitor::HighFidelityMonitor(net::Network& network, Config config)
    : sensor_(network, config.probe, config.reach),
      director_(network.simulator(), config.max_concurrent,
                config.supervision, std::move(config.storage)) {
  director_.register_sensor(Metric::kThroughput, &sensor_);
  director_.register_sensor(Metric::kOneWayLatency, &sensor_);
  director_.register_sensor(Metric::kReachability, &sensor_);
  SchedulerConfig scheduling = config.scheduling;
  if (scheduling.lanes == 1) scheduling.lanes = config.max_concurrent;
  director_.set_scheduling(scheduling);
  if (config.auto_profile &&
      (scheduling.budget_bps > 0 || scheduling.link_disjoint)) {
    director_.set_probe_profiler(make_route_profiler(network, config.probe));
  }
}

}  // namespace netmon::core
