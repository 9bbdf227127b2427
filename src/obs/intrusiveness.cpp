#include "obs/intrusiveness.hpp"

namespace netmon::obs {

IntrusivenessMeter::IntrusivenessMeter(sim::Simulator& sim,
                                       const net::Network& network,
                                       Registry& registry, std::string prefix,
                                       sim::Duration tick)
    : network_(network), obs_(registry, std::move(prefix)), tick_(tick) {
  const auto totals = network_.octets_by_class();
  for (std::size_t c = 0; c < net::kTrafficClassCount; ++c) {
    Lane& lane = lanes_[c];
    lane.first = lane.last = totals[c];
    const auto cls = static_cast<net::TrafficClass>(c);
    const std::string base = net::to_string(cls);
    obs_.gauge_of(base + ".peak_bps", lane.peak_bps);
    obs_.gauge_fn(base + ".mean_bps", [this, cls] { return mean_bps(cls); });
    obs_.gauge_fn(base + ".total_bytes", [this, cls] {
      return static_cast<double>(total_bytes(cls));
    });
    lane.bps_hist = obs_.histogram(base + ".bps");
  }
  obs_.gauge_fn("monitoring_share", [this] { return monitoring_share(); });
  task_ = sim::PeriodicTask(sim, tick_, [this] { sample(); });
}

double IntrusivenessMeter::mean_bps(net::TrafficClass cls) const {
  const Lane& lane = lanes_[index(cls)];
  return samples_ == 0 ? 0.0 : lane.sum_bps / static_cast<double>(samples_);
}

std::uint64_t IntrusivenessMeter::total_bytes(net::TrafficClass cls) const {
  const Lane& lane = lanes_[index(cls)];
  return lane.last - lane.first;
}

double IntrusivenessMeter::monitoring_share() const {
  std::uint64_t monitor = 0;
  std::uint64_t all = 0;
  for (std::size_t c = 0; c < net::kTrafficClassCount; ++c) {
    const std::uint64_t carried = lanes_[c].last - lanes_[c].first;
    all += carried;
    const auto cls = static_cast<net::TrafficClass>(c);
    if (cls == net::TrafficClass::kMonitoring ||
        cls == net::TrafficClass::kManagement) {
      monitor += carried;
    }
  }
  return all == 0 ? 0.0 : static_cast<double>(monitor) /
                              static_cast<double>(all);
}

void IntrusivenessMeter::sample() {
  const auto totals = network_.octets_by_class();
  for (std::size_t c = 0; c < net::kTrafficClassCount; ++c) {
    Lane& lane = lanes_[c];
    const double bps = static_cast<double>(totals[c] - lane.last) * 8.0 /
                       tick_.to_seconds();
    lane.last = totals[c];
    lane.last_bps = bps;
    if (bps > lane.peak_bps) lane.peak_bps = bps;
    lane.sum_bps += bps;
    if (lane.bps_hist != nullptr) lane.bps_hist->observe(bps);
  }
  ++samples_;
}

}  // namespace netmon::obs
