#pragma once

// Network interface: a finite transmit queue plus counters, attached to a
// Medium (point-to-point Link or SharedSegment). The same counters back the
// SNMP interfaces-group MIB variables.

#include <array>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "net/packet.hpp"
#include "sim/time.hpp"

namespace netmon::net {

class Medium;

struct NicCounters {
  std::uint64_t out_octets = 0;
  std::uint64_t out_frames = 0;
  std::uint64_t out_drops = 0;  // tx queue overflow or interface down
  std::uint64_t in_octets = 0;
  std::uint64_t in_frames = 0;
  std::uint64_t in_drops = 0;
  std::uint64_t collisions = 0;
  std::uint64_t deferrals = 0;
  std::array<std::uint64_t, kTrafficClassCount> out_octets_by_class{};
  std::array<std::uint64_t, kTrafficClassCount> in_octets_by_class{};
};

class Nic {
 public:
  using FrameHandler = std::function<void(const Frame&)>;

  Nic(std::string name, MacAddr mac, std::size_t tx_queue_capacity = 64);

  const std::string& name() const { return name_; }
  MacAddr mac() const { return mac_; }

  IpAddr ip() const { return ip_; }
  int prefix_length() const { return prefix_length_; }
  void assign_ip(IpAddr ip, int prefix_length);
  Prefix subnet() const { return Prefix(ip_, prefix_length_); }

  void attach(Medium* medium) { medium_ = medium; }
  Medium* medium() const { return medium_; }

  bool up() const { return up_; }
  void set_up(bool up);

  // Promiscuous interfaces (RMON probes, switch ports) accept every frame
  // on the medium, not just frames addressed to them.
  bool promiscuous() const { return promiscuous_; }
  void set_promiscuous(bool on) { promiscuous_ = on; }

  void set_frame_handler(FrameHandler handler) { handler_ = std::move(handler); }

  // Taps observe every accepted frame before the main handler (RMON probes,
  // media-layer sniffers). On a promiscuous interface that is all traffic
  // on the medium.
  void add_tap(FrameHandler tap) { taps_.push_back(std::move(tap)); }

  // Host-side transmit entry point; returns false (and counts a drop) when
  // the queue is full or the interface is down.
  bool enqueue(Frame frame);

  // Medium-side queue access.
  bool has_queued() const { return tx_count_ != 0; }
  std::optional<Frame> dequeue();
  const Frame* peek() const;
  void drop_head();  // excessive-collision discard
  std::size_t queue_depth() const { return tx_count_; }
  std::size_t queue_capacity() const { return tx_capacity_; }

  // Medium-side delivery; applies the address filter unless promiscuous.
  void deliver(const Frame& frame);

  // Called by the medium when a frame of `bytes` (Frame::size_bytes()) has
  // fully left this interface.
  void note_transmitted(std::uint32_t bytes, TrafficClass cls);
  void note_collision() { ++counters_.collisions; }
  void note_deferral() { ++counters_.deferrals; }

  const NicCounters& counters() const { return counters_; }

 private:
  bool accepts(const Frame& frame) const;
  std::size_t ring_index(std::size_t offset) const;  // head + offset, wrapped
  void pop_head();

  std::string name_;
  MacAddr mac_;
  IpAddr ip_{};
  int prefix_length_ = 32;
  bool up_ = true;
  bool promiscuous_ = false;
  std::size_t tx_capacity_;
  // Transmit FIFO as a ring over tx_ring_, grown by doubling up to
  // tx_capacity_ the first time the queue gets that deep, then reused: a
  // steady interface queues without allocating, and an idle one holds no
  // frame storage at all.
  std::vector<Frame> tx_ring_;
  std::size_t tx_head_ = 0;
  std::size_t tx_count_ = 0;
  Medium* medium_ = nullptr;
  FrameHandler handler_;
  std::vector<FrameHandler> taps_;
  NicCounters counters_;
};

// Fault-injection verdict for one frame, returned by a medium's FaultHook
// (fault::FaultInjector installs these to run scripted loss / corruption /
// delay windows). The frame still occupies the medium for its serialization
// time either way — a lost frame was transmitted, then lost in transit.
struct FaultVerdict {
  bool drop = false;         // lose the frame silently in transit
  bool corrupt = false;      // arrives damaged; fails CRC and is discarded
  sim::Duration extra_delay{};  // added to the propagation delay
};

// Per-frame fault hook consulted by Link and SharedSegment when scheduling
// delivery. Must be deterministic for a given run (seeded RNG inside).
using FaultHook = std::function<FaultVerdict(const Frame&)>;

// Medium-side fault counters, common to Link and SharedSegment.
struct MediumFaultStats {
  std::uint64_t frames_dropped = 0;
  std::uint64_t frames_corrupted = 0;
  std::uint64_t frames_delayed = 0;
};

// A transmission medium connecting interfaces.
class Medium {
 public:
  virtual ~Medium() = default;
  virtual void attach(Nic* nic) = 0;
  // The NIC notifies the medium whenever its queue becomes non-empty.
  virtual void on_frame_queued(Nic& nic) = 0;
  virtual bool is_broadcast_medium() const = 0;
  virtual double bandwidth_bps() const = 0;
  // Interfaces attached to this medium (topology introspection).
  virtual std::vector<Nic*> attached_nics() const = 0;

  // Fault-injection hook; nullptr (the default) means no faults.
  void set_fault_hook(FaultHook hook) { fault_hook_ = std::move(hook); }
  const MediumFaultStats& fault_stats() const { return fault_stats_; }

 protected:
  // Applies the hook to a frame about to be delivered. Returns the verdict
  // and maintains the fault counters.
  FaultVerdict apply_fault_hook(const Frame& frame) {
    FaultVerdict v;
    if (fault_hook_) v = fault_hook_(frame);
    if (v.drop) {
      ++fault_stats_.frames_dropped;
    } else if (v.corrupt) {
      ++fault_stats_.frames_corrupted;
    } else if (!v.extra_delay.is_zero()) {
      ++fault_stats_.frames_delayed;
    }
    return v;
  }
  bool has_fault_hook() const { return static_cast<bool>(fault_hook_); }

 private:
  FaultHook fault_hook_;
  MediumFaultStats fault_stats_;
};

}  // namespace netmon::net
