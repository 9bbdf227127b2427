#pragma once

// Shared broadcast medium (classic half-duplex Ethernet bus). Models carrier
// sense, deferral, binary-exponential-backoff collisions, and excessive-
// collision discard. Every attached interface hears every frame, which is
// what makes passive RMON probing (and media-layer reachability sniffing)
// possible on this medium and impossible on switched links.

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "net/nic.hpp"
#include "obs/metrics.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"

namespace netmon::net {

struct SegmentStats {
  std::uint64_t frames_carried = 0;
  std::uint64_t octets_carried = 0;
  std::uint64_t broadcast_frames = 0;
  std::uint64_t collisions = 0;
  std::uint64_t excessive_collision_drops = 0;
  std::int64_t busy_nanos = 0;
  std::array<std::uint64_t, kTrafficClassCount> octets_by_class{};
};

class SharedSegment : public Medium {
 public:
  SharedSegment(sim::Simulator& sim, util::Rng rng, std::string name,
                double bandwidth_bps, sim::Duration propagation_delay);
  SharedSegment(const SharedSegment&) = delete;
  SharedSegment& operator=(const SharedSegment&) = delete;

  void attach(Nic* nic) override;
  void on_frame_queued(Nic& nic) override;
  bool is_broadcast_medium() const override { return true; }
  double bandwidth_bps() const override { return bandwidth_bps_; }
  std::vector<Nic*> attached_nics() const override { return nics_; }

  const std::string& name() const { return name_; }
  const SegmentStats& stats() const { return stats_; }
  const std::vector<Nic*>& attached() const { return nics_; }

  // Mean utilization (busy fraction) since the start of the run.
  double utilization(sim::TimePoint now) const;

  // Ethernet contention parameters.
  static constexpr int kMaxAttempts = 16;
  static constexpr int kMaxBackoffExponent = 10;

  // Self-observability (DESIGN.md §10): callback gauges over the segment's
  // existing stats — utilization, collisions, per-class octets — under
  // "<prefix>.". No cost on the contention path.
  void attach_observability(obs::Registry& registry,
                            const std::string& prefix);

 private:
  bool medium_busy() const;
  void schedule_contention_check(sim::TimePoint at);
  void contention_check();
  void start_transmission(Nic& nic);
  sim::Duration slot_time() const;

  sim::Simulator& sim_;
  util::Rng rng_;
  std::string name_;
  double bandwidth_bps_;
  sim::Duration propagation_;
  std::vector<Nic*> nics_;
  sim::TimePoint busy_until_{};
  bool check_scheduled_ = false;
  sim::TimePoint check_at_{};
  std::unordered_map<Nic*, int> attempts_;
  std::unordered_map<Nic*, sim::TimePoint> backoff_until_;
  SegmentStats stats_;
  ParkedFrames in_flight_;  // frames propagating to the other stations
  obs::Scope obs_;
};

}  // namespace netmon::net
