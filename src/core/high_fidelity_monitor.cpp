#include "core/high_fidelity_monitor.hpp"

#include <algorithm>
#include <stdexcept>

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

void NttcpSensor::measure(const Path& path, Metric metric, Done done) {
  auto acc = std::make_shared<LegAccumulator>();
  measure_leg(path, metric, 0, std::move(acc), std::move(done));
}

void NttcpSensor::measure_leg(const Path& path, Metric metric,
                              std::size_t leg_index,
                              std::shared_ptr<LegAccumulator> acc,
                              Done done) {
  auto [from, to] = path.leg(leg_index);
  net::Host* source = network_.host_of(from.host);
  if (source == nullptr || !source->up()) {
    done(MetricValue::failed(network_.simulator().now()));
    return;
  }
  const bool last_leg = leg_index + 1 >= path.leg_count();
  const std::uint64_t token = next_token_++;

  if (metric == Metric::kReachability) {
    auto probe = std::make_unique<nttcp::ReachabilityProbe>(
        *source, to.host, reach_config_,
        [this, path, metric, leg_index, acc, done, last_leg,
         token](const nttcp::ReachabilityResult& r) {
          cleanup_later(token);
          if (!r.reachable) {
            done(MetricValue::of(0.0, network_.simulator().now()));
            return;
          }
          if (last_leg) {
            done(MetricValue::of(1.0, network_.simulator().now()));
          } else {
            measure_leg(path, metric, leg_index + 1, acc, done);
          }
        });
    ++probes_launched_;
    probe->start();
    active_reach_.emplace(token, std::move(probe));
    return;
  }

  auto probe = std::make_unique<nttcp::NttcpProbe>(
      *source, to.host, probe_config_,
      [this, path, metric, leg_index, acc, done, last_leg,
       token](const nttcp::NttcpResult& r) {
        cleanup_later(token);
        probe_bytes_on_wire_ += r.probe_bytes_on_wire;
        if (!r.completed) {
          done(MetricValue::failed(network_.simulator().now()));
          return;
        }
        if (metric == Metric::kThroughput) {
          if (!acc->have_throughput || r.throughput_bps < acc->min_throughput_bps) {
            acc->have_throughput = true;
            acc->min_throughput_bps = r.throughput_bps;
          }
        } else {  // one-way latency
          acc->latency_sum_s += r.latency.empty() ? 0.0 : r.latency.median();
        }
        if (!last_leg) {
          measure_leg(path, metric, leg_index + 1, acc, done);
          return;
        }
        const double value = metric == Metric::kThroughput
                                 ? acc->min_throughput_bps
                                 : acc->latency_sum_s;
        done(MetricValue::of(value, network_.simulator().now()));
      });
  ++probes_launched_;
  probe->start();
  active_probes_.emplace(token, std::move(probe));
}

void NttcpSensor::cleanup_later(std::uint64_t token) {
  // Probes finish from inside their own callbacks; destroy them on a fresh
  // event so no object deletes itself mid-call.
  network_.simulator().schedule_in(sim::Duration::ns(0), [this, token] {
    active_probes_.erase(token);
    active_reach_.erase(token);
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
                config.supervision, config.history_depth,
                std::move(config.storage)) {
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
