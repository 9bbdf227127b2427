#pragma once

// Network: owns every node, link, segment, and switch in a simulated
// internetwork; allocates MAC addresses and packet ids; resolves next-hop
// IPs to MACs; and computes shortest-path routing tables that individual
// nodes may override (e.g. to create the paper's asymmetric routes).

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "net/host.hpp"
#include "net/link.hpp"
#include "net/shared_segment.hpp"
#include "net/switch.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"

namespace netmon::net {

// Common capacity presets used by the HiPer-D style testbeds.
namespace bandwidth {
constexpr double kEthernet10 = 10e6;
constexpr double kFddi100 = 100e6;
constexpr double kAtm155 = 155e6;
}  // namespace bandwidth

class Network {
 public:
  Network(sim::Simulator& sim, util::Rng rng);
  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  sim::Simulator& simulator() { return sim_; }
  util::Rng& rng() { return rng_; }

  // --- construction -------------------------------------------------------
  // Without an explicit clock the host gets a perfect (zero-offset) clock.
  Host& add_host(const std::string& name);
  Host& add_host(const std::string& name, clk::HostClock clock);
  Host& add_host(const std::string& name, sim::Duration clock_offset,
                 double drift_ppm, sim::Duration granularity);
  Router& add_router(const std::string& name);
  SharedSegment& add_segment(const std::string& name, double bandwidth_bps,
                             sim::Duration propagation = sim::Duration::us(5));
  Switch& add_switch(const std::string& name,
                     sim::Duration forwarding_delay = sim::Duration::us(10));

  // Attach a node to a shared segment with the given address.
  Nic& attach(Node& node, SharedSegment& segment, IpAddr ip, int prefix_len,
              std::size_t tx_queue = 64);
  // Attach a node to a switch via a dedicated full-duplex link.
  Nic& attach(Node& node, Switch& sw, IpAddr ip, int prefix_len,
              double bandwidth_bps = bandwidth::kEthernet10,
              sim::Duration propagation = sim::Duration::us(1),
              std::size_t tx_queue = 64);
  // Direct point-to-point link between two nodes.
  std::pair<Nic*, Nic*> connect(Node& a, IpAddr ip_a, Node& b, IpAddr ip_b,
                                int prefix_len, double bandwidth_bps,
                                sim::Duration propagation = sim::Duration::us(5),
                                std::size_t tx_queue = 64);
  // Link two switches together (trunk).
  void connect(Switch& a, Switch& b, double bandwidth_bps,
               sim::Duration propagation = sim::Duration::us(1));

  // Computes shortest-path (hop count) routes for every node to every
  // assigned address and statically provisions switch MAC tables.
  // Existing table entries are cleared. Call again after topology changes;
  // manual overrides go in afterwards.
  void auto_route();
  // Fills every switch's MAC table from the topology (also done by
  // auto_route) so cold-start unknown-unicast flooding does not occur.
  void prime_switch_tables();

  // --- runtime services ---------------------------------------------------
  MacAddr allocate_mac() { return MacAddr(++next_mac_); }
  std::uint64_t next_packet_id() { return ++next_packet_id_; }
  std::optional<MacAddr> mac_of(IpAddr ip) const;
  Nic* nic_of(IpAddr ip) const;
  Host* find_host(const std::string& name) const;
  Host* host_of(IpAddr ip) const;

  const std::vector<std::unique_ptr<Host>>& hosts() const { return hosts_; }
  const std::vector<std::unique_ptr<SharedSegment>>& segments() const {
    return segments_;
  }
  const std::vector<std::unique_ptr<Link>>& links() const { return links_; }
  const std::vector<std::unique_ptr<Switch>>& switches() const {
    return switches_;
  }

  // Media (links and segments) a unicast packet from `src` to `dst`
  // traverses, in route order and without duplicates: each L3 hop's egress
  // medium plus every inter-switch trunk the frame crosses, per the current
  // routing tables and (primed) switch MAC tables. Empty when either
  // address is unknown or no route exists. Direction matters — asymmetric
  // routes yield different footprints. The lane scheduler keys on these to
  // keep concurrent probes link-disjoint (DESIGN.md §11).
  std::vector<const Medium*> route_media(IpAddr src, IpAddr dst) const;

  // Number of L3 transmissions a unicast packet from `src` to `dst` takes
  // (1 = direct delivery, +1 per router crossed), per the current routing
  // tables; 0 when either address is unknown or no route exists. This is
  // the multiplier between a flow's single-link rate and its contribution
  // to octets_by_class(), which charges every L3 egress.
  std::size_t route_hops(IpAddr src, IpAddr dst) const;

  // route_media and route_hops from one walk of the route.
  struct RouteTrace {
    std::vector<const Medium*> media;
    std::size_t hops = 0;
  };
  RouteTrace trace_route(IpAddr src, IpAddr dst) const;

  // Wire load by traffic class, counted once per L3 hop (egress of hosts
  // and routers; L2 replication inside switches is not double-counted) —
  // the intrusiveness measure of §4.4.
  std::array<std::uint64_t, kTrafficClassCount> octets_by_class() const;
  std::uint64_t total_octets() const;

  // Self-observability (DESIGN.md §10): network-wide per-class octet
  // gauges under "<prefix>.octets.*" plus per-medium groups
  // ("<prefix>.link.<name>.*", "<prefix>.segment.<name>.*"). Call after the
  // topology is built; media added later are not auto-covered.
  void attach_observability(obs::Registry& registry,
                            const std::string& prefix = "net");

 private:
  // What one assigned address resolves to.
  struct Endpoint {
    Nic* nic;
    Host* host;
  };

  void register_nic(Node& node, Nic& nic);
  // The only way a switch gains a port, so port_owner_ covers every port.
  Nic& add_port(Switch& sw);
  // Follows the routing tables hop by hop from `src` toward `dst` and
  // returns the L3 hop count; appends the media crossed to `media` unless
  // it is null.
  std::size_t walk_route(IpAddr src, IpAddr dst,
                         std::vector<const Medium*>* media) const;
  // L2 domain id per medium (segments + links merged through switches).
  std::unordered_map<const Medium*, int> compute_l2_domains() const;

  sim::Simulator& sim_;
  util::Rng rng_;
  std::uint64_t next_mac_ = 0x0200'0000'0000ull;
  std::uint64_t next_packet_id_ = 0;

  std::vector<std::unique_ptr<Host>> hosts_;
  std::vector<std::unique_ptr<SharedSegment>> segments_;
  std::vector<std::unique_ptr<Link>> links_;
  std::vector<std::unique_ptr<Switch>> switches_;
  // Both indices are filled as the topology is built (attach/connect) and
  // never rebuilt: nodes, ports and addresses are never removed.
  std::unordered_map<IpAddr, Endpoint> endpoints_;
  std::unordered_map<const Nic*, Switch*> port_owner_;
  obs::Scope obs_;
};

}  // namespace netmon::net
