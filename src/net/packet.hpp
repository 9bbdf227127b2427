#pragma once

// Packet and frame model. Payloads are typed C++ objects shared by pointer
// (zero-copy); wire sizes are accounted for explicitly so byte counters,
// utilization, and intrusiveness measurements reflect real overheads.

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "net/address.hpp"

namespace netmon::net {

// Every packet carries the class of traffic it belongs to. Intrusiveness
// (paper §4.4) is measured directly as bytes-on-wire per class.
enum class TrafficClass : std::uint8_t {
  kApplication = 0,  // the monitored workload itself (e.g. RTDS tracks)
  kMonitoring,       // active probes (NTTCP sensors)
  kManagement,       // SNMP requests/responses/traps
  kClockSync,        // NTP exchanges
  kOther,
};
constexpr std::size_t kTrafficClassCount = 5;
const char* to_string(TrafficClass c);

enum class IpProto : std::uint8_t { kIcmp = 1, kTcp = 6, kUdp = 17 };

// Base class for typed application payloads. Receivers downcast with
// payload_as<T>(). The simulated wire carries payload_bytes, not the object.
struct Payload {
  virtual ~Payload() = default;
};

struct TcpHeader {
  std::uint32_t seq = 0;
  std::uint32_t ack = 0;
  bool syn = false;
  bool fin = false;
  bool ack_flag = false;
  bool rst = false;
  std::uint32_t window = 0;
};

struct Packet {
  IpAddr src;
  IpAddr dst;
  IpProto protocol = IpProto::kUdp;
  std::uint16_t src_port = 0;
  std::uint16_t dst_port = 0;
  std::uint32_t payload_bytes = 0;
  std::uint8_t ttl = 64;
  TrafficClass traffic_class = TrafficClass::kApplication;
  std::uint64_t id = 0;  // unique per packet, assigned by the sender's host
  TcpHeader tcp;         // meaningful only when protocol == kTcp
  std::shared_ptr<const Payload> payload;

  static constexpr std::uint32_t kIpHeaderBytes = 20;
  static constexpr std::uint32_t kUdpHeaderBytes = 8;
  static constexpr std::uint32_t kTcpHeaderBytes = 20;

  std::uint32_t header_bytes() const {
    switch (protocol) {
      case IpProto::kTcp: return kIpHeaderBytes + kTcpHeaderBytes;
      case IpProto::kUdp: return kIpHeaderBytes + kUdpHeaderBytes;
      case IpProto::kIcmp: return kIpHeaderBytes + 8;
    }
    return kIpHeaderBytes;
  }
  std::uint32_t size_on_wire() const { return payload_bytes + header_bytes(); }

  std::string describe() const;
};

template <typename T>
std::shared_ptr<const T> payload_as(const Packet& p) {
  return std::dynamic_pointer_cast<const T>(p.payload);
}

struct Frame {
  MacAddr src;
  MacAddr dst;
  Packet packet;

  // Ethernet MAC header + FCS; preamble/IFG are modeled in the medium gap.
  static constexpr std::uint32_t kFrameOverheadBytes = 18;
  static constexpr std::uint32_t kMinFrameBytes = 64;

  std::uint32_t size_bytes() const {
    const std::uint32_t raw = packet.size_on_wire() + kFrameOverheadBytes;
    return raw < kMinFrameBytes ? kMinFrameBytes : raw;
  }
};

// Frames in transit inside a medium or switch, parked until the event that
// hands them on fires. The event captures the 4-byte slot, not the frame:
// a ~100-byte Frame capture would overflow the simulator's inline callback
// buffer and cost a heap allocation plus payload reference-count traffic
// per hop. Slots recycle LIFO, so a steady stream parks without allocating.
class ParkedFrames {
 public:
  std::uint32_t park(Frame&& frame) {
    if (free_.empty()) {
      slots_.push_back(std::move(frame));
      return static_cast<std::uint32_t>(slots_.size() - 1);
    }
    const std::uint32_t slot = free_.back();
    free_.pop_back();
    slots_[slot] = std::move(frame);
    return slot;
  }

  // Moves the frame out (the slot keeps no payload reference) and frees the
  // slot. Taking before delivering also means nothing references the pool
  // while the receiver runs, so it may park more frames.
  Frame take(std::uint32_t slot) {
    Frame frame = std::move(slots_[slot]);
    free_.push_back(slot);
    return frame;
  }

 private:
  std::vector<Frame> slots_;
  std::vector<std::uint32_t> free_;
};

}  // namespace netmon::net
