#pragma once

// Learning store-and-forward L2 switch. Unicast frames go only to the
// learned port; unknown destinations and broadcasts flood. A passive probe
// on a switched port therefore cannot observe third-party conversations —
// the paper's §4.3 point that "in a switched environment, sniffing may not
// be possible".

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "net/nic.hpp"
#include "sim/simulator.hpp"

namespace netmon::net {

class Network;

class Switch {
 public:
  Switch(sim::Simulator& sim, Network& network, std::string name,
         sim::Duration forwarding_delay = sim::Duration::us(10));

  const std::string& name() const { return name_; }

  const std::vector<std::unique_ptr<Nic>>& ports() const { return ports_; }

  // Static provisioning (Network::auto_route fills tables from the
  // topology so cold-start unknown-unicast flooding does not distort
  // load measurements; dynamic learning still updates the table).
  void learn(MacAddr mac, Nic& port) { mac_table_[mac] = &port; }

  // Learned egress port for a MAC; nullptr when the address is unknown
  // (a frame for it would flood). Used by Network::route_media to trace
  // the L2 hops a unicast conversation actually occupies.
  Nic* port_for(MacAddr mac) const {
    auto it = mac_table_.find(mac);
    return it == mac_table_.end() ? nullptr : it->second;
  }

  std::size_t mac_table_size() const { return mac_table_.size(); }
  std::uint64_t frames_forwarded() const { return frames_forwarded_; }
  std::uint64_t frames_flooded() const { return frames_flooded_; }

 private:
  // Ports are added only through Network::attach/connect, which index
  // each one's owner for route_media and prime_switch_tables.
  friend class Network;
  Nic& add_port(std::size_t tx_queue_capacity = 128);

  void handle_frame(Nic& in_port, const Frame& frame);
  void emit(Nic& out_port, const Frame& frame);

  sim::Simulator& sim_;
  Network& network_;
  std::string name_;
  sim::Duration forwarding_delay_;
  std::vector<std::unique_ptr<Nic>> ports_;
  std::unordered_map<MacAddr, Nic*> mac_table_;
  ParkedFrames forwarding_;  // frames inside the forwarding delay
  std::uint64_t frames_forwarded_ = 0;
  std::uint64_t frames_flooded_ = 0;
};

}  // namespace netmon::net
