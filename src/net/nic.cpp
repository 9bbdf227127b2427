#include "net/nic.hpp"

#include <algorithm>
#include <stdexcept>

#include "util/logging.hpp"

namespace netmon::net {

Nic::Nic(std::string name, MacAddr mac, std::size_t tx_queue_capacity)
    : name_(std::move(name)), mac_(mac), tx_capacity_(tx_queue_capacity) {
  if (tx_capacity_ == 0) throw std::invalid_argument("Nic: zero tx queue");
}

void Nic::assign_ip(IpAddr ip, int prefix_length) {
  ip_ = ip;
  prefix_length_ = prefix_length;
}

void Nic::set_up(bool up) {
  up_ = up;
  if (!up_) {
    counters_.out_drops += tx_count_;
    while (tx_count_ != 0) pop_head();
  }
}

std::size_t Nic::ring_index(std::size_t offset) const {
  const std::size_t i = tx_head_ + offset;
  return i < tx_ring_.size() ? i : i - tx_ring_.size();
}

void Nic::pop_head() {
  tx_ring_[tx_head_] = Frame{};  // release the payload now
  tx_head_ = ring_index(1);
  --tx_count_;
}

bool Nic::enqueue(Frame frame) {
  if (!up_ || tx_count_ >= tx_capacity_) {
    ++counters_.out_drops;
    return false;
  }
  if (tx_count_ == tx_ring_.size()) {
    // Full ring below capacity: unroll it into a buffer twice as large.
    std::vector<Frame> grown(std::min(
        tx_capacity_, std::max<std::size_t>(4, tx_ring_.size() * 2)));
    for (std::size_t i = 0; i < tx_count_; ++i) {
      grown[i] = std::move(tx_ring_[ring_index(i)]);
    }
    tx_ring_ = std::move(grown);
    tx_head_ = 0;
  }
  tx_ring_[ring_index(tx_count_)] = std::move(frame);
  ++tx_count_;
  if (medium_ != nullptr) medium_->on_frame_queued(*this);
  return true;
}

std::optional<Frame> Nic::dequeue() {
  if (tx_count_ == 0) return std::nullopt;
  std::optional<Frame> f(std::move(tx_ring_[tx_head_]));
  tx_head_ = ring_index(1);
  --tx_count_;
  return f;
}

const Frame* Nic::peek() const {
  return tx_count_ == 0 ? nullptr : &tx_ring_[tx_head_];
}

void Nic::drop_head() {
  if (tx_count_ == 0) return;
  pop_head();
  ++counters_.out_drops;
}

bool Nic::accepts(const Frame& frame) const {
  if (promiscuous_) return true;
  return frame.dst == mac_ || frame.dst.is_broadcast();
}

void Nic::deliver(const Frame& frame) {
  if (!up_) return;
  if (!accepts(frame)) return;
  ++counters_.in_frames;
  counters_.in_octets += frame.size_bytes();
  const auto cls = static_cast<std::size_t>(frame.packet.traffic_class);
  counters_.in_octets_by_class[cls] += frame.size_bytes();
  for (const auto& tap : taps_) tap(frame);
  if (handler_) {
    handler_(frame);
  } else {
    ++counters_.in_drops;
  }
}

void Nic::note_transmitted(std::uint32_t bytes, TrafficClass cls) {
  ++counters_.out_frames;
  counters_.out_octets += bytes;
  counters_.out_octets_by_class[static_cast<std::size_t>(cls)] += bytes;
}

}  // namespace netmon::net
