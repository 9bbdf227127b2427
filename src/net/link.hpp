#pragma once

// Full-duplex point-to-point link (models switched-Ethernet segments between
// two devices, FDDI/ATM-class backbones, and router interconnects). Each
// direction serializes frames at the link rate and delivers after the
// propagation delay. Links can be forced down for failure injection.

#include <array>
#include <cstdint>
#include <string>

#include "net/nic.hpp"
#include "obs/metrics.hpp"
#include "sim/simulator.hpp"

namespace netmon::net {

class Link : public Medium {
 public:
  Link(sim::Simulator& sim, std::string name, double bandwidth_bps,
       sim::Duration propagation_delay);
  Link(const Link&) = delete;
  Link& operator=(const Link&) = delete;

  void attach(Nic* nic) override;
  void on_frame_queued(Nic& nic) override;
  bool is_broadcast_medium() const override { return false; }
  double bandwidth_bps() const override { return bandwidth_bps_; }
  std::vector<Nic*> attached_nics() const override;

  const std::string& name() const { return name_; }
  bool up() const { return up_; }
  // Bringing a link down drops frames in flight; bringing it back up
  // restarts transmission from the endpoint queues.
  void set_up(bool up);

  std::uint64_t octets_carried() const { return octets_carried_; }
  std::uint64_t frames_dropped_down() const { return frames_dropped_down_; }
  // Octets carried per traffic class — the per-link intrusiveness split
  // (paper §4.4): monitoring vs application bytes on this wire.
  const std::array<std::uint64_t, kTrafficClassCount>& octets_by_class()
      const {
    return octets_by_class_;
  }

  // Self-observability (DESIGN.md §10): per-class carried-octet gauges plus
  // drop counters under "<prefix>." (callback gauges over counters the link
  // already maintains — zero transmit-path cost). Detached by default;
  // removed again on re-attach/destruction.
  void attach_observability(obs::Registry& registry,
                            const std::string& prefix);

 private:
  int direction_of(const Nic& nic) const;
  void try_transmit(int dir);

  sim::Simulator& sim_;
  std::string name_;
  double bandwidth_bps_;
  sim::Duration propagation_;
  bool up_ = true;
  std::uint64_t generation_ = 0;  // bumped on down; in-flight frames check it
  std::array<Nic*, 2> ends_{nullptr, nullptr};
  std::array<bool, 2> busy_{false, false};
  std::uint64_t octets_carried_ = 0;
  std::uint64_t frames_dropped_down_ = 0;
  std::array<std::uint64_t, kTrafficClassCount> octets_by_class_{};
  ParkedFrames in_flight_;  // frames on the wire, awaiting delivery
  obs::Scope obs_;
};

}  // namespace netmon::net
