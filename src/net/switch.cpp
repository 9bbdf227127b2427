#include "net/switch.hpp"

#include "net/topology.hpp"

namespace netmon::net {

Switch::Switch(sim::Simulator& sim, Network& network, std::string name,
               sim::Duration forwarding_delay)
    : sim_(sim),
      network_(network),
      name_(std::move(name)),
      forwarding_delay_(forwarding_delay) {}

Nic& Switch::add_port(std::size_t tx_queue_capacity) {
  auto port = std::make_unique<Nic>(
      name_ + "-p" + std::to_string(ports_.size()), network_.allocate_mac(),
      tx_queue_capacity);
  port->set_promiscuous(true);
  port->set_frame_handler(
      [this, raw = port.get()](const Frame& f) { handle_frame(*raw, f); });
  ports_.push_back(std::move(port));
  return *ports_.back();
}

void Switch::handle_frame(Nic& in_port, const Frame& frame) {
  // Frames addressed to the port's own MAC never occur (ports have no IP);
  // everything observed is transit traffic.
  mac_table_[frame.src] = &in_port;

  if (!frame.dst.is_broadcast()) {
    auto it = mac_table_.find(frame.dst);
    if (it != mac_table_.end()) {
      if (it->second != &in_port) {
        ++frames_forwarded_;
        emit(*it->second, frame);
      }
      return;
    }
  }
  // Broadcast or unknown unicast: flood all other ports.
  ++frames_flooded_;
  for (auto& port : ports_) {
    if (port.get() != &in_port) emit(*port, frame);
  }
}

void Switch::emit(Nic& out_port, const Frame& frame) {
  const std::uint32_t slot = forwarding_.park(Frame(frame));
  sim_.schedule_in(forwarding_delay_, [this, &out_port, slot] {
    out_port.enqueue(forwarding_.take(slot));
  });
}

}  // namespace netmon::net
