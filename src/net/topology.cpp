#include "net/topology.hpp"

#include <deque>
#include <map>
#include <stdexcept>
#include <unordered_set>

#include "util/logging.hpp"

namespace netmon::net {

Network::Network(sim::Simulator& sim, util::Rng rng) : sim_(sim), rng_(rng) {}

Host& Network::add_host(const std::string& name) {
  return add_host(name, clk::HostClock(sim_));
}

Host& Network::add_host(const std::string& name, clk::HostClock clock) {
  hosts_.push_back(std::make_unique<Host>(sim_, *this, name, clock));
  return *hosts_.back();
}

Host& Network::add_host(const std::string& name, sim::Duration clock_offset,
                        double drift_ppm, sim::Duration granularity) {
  return add_host(name,
                  clk::HostClock(sim_, clock_offset, drift_ppm, granularity));
}

Router& Network::add_router(const std::string& name) {
  auto router = std::make_unique<Router>(sim_, *this, name,
                                         clk::HostClock(sim_));
  Router& ref = *router;
  hosts_.push_back(std::move(router));
  return ref;
}

SharedSegment& Network::add_segment(const std::string& name,
                                    double bandwidth_bps,
                                    sim::Duration propagation) {
  segments_.push_back(std::make_unique<SharedSegment>(
      sim_, rng_.fork(), name, bandwidth_bps, propagation));
  return *segments_.back();
}

Switch& Network::add_switch(const std::string& name,
                            sim::Duration forwarding_delay) {
  switches_.push_back(
      std::make_unique<Switch>(sim_, *this, name, forwarding_delay));
  return *switches_.back();
}

void Network::register_nic(Node& node, Nic& nic) {
  if (nic.ip().is_unspecified()) return;
  auto [it, inserted] = endpoints_.emplace(
      nic.ip(), Endpoint{&nic, dynamic_cast<Host*>(&node)});
  if (!inserted) {
    throw std::logic_error("Network: duplicate IP " + nic.ip().to_string());
  }
}

Nic& Network::add_port(Switch& sw) {
  Nic& port = sw.add_port();
  port_owner_.emplace(&port, &sw);
  return port;
}

Nic& Network::attach(Node& node, SharedSegment& segment, IpAddr ip,
                     int prefix_len, std::size_t tx_queue) {
  Nic& nic = node.add_nic(tx_queue);
  nic.assign_ip(ip, prefix_len);
  segment.attach(&nic);
  register_nic(node, nic);
  return nic;
}

Nic& Network::attach(Node& node, Switch& sw, IpAddr ip, int prefix_len,
                     double bandwidth_bps, sim::Duration propagation,
                     std::size_t tx_queue) {
  Nic& nic = node.add_nic(tx_queue);
  nic.assign_ip(ip, prefix_len);
  Nic& port = add_port(sw);
  links_.push_back(std::make_unique<Link>(
      sim_, node.name() + "<->" + sw.name(), bandwidth_bps, propagation));
  Link& link = *links_.back();
  link.attach(&nic);
  link.attach(&port);
  register_nic(node, nic);
  return nic;
}

std::pair<Nic*, Nic*> Network::connect(Node& a, IpAddr ip_a, Node& b,
                                       IpAddr ip_b, int prefix_len,
                                       double bandwidth_bps,
                                       sim::Duration propagation,
                                       std::size_t tx_queue) {
  Nic& na = a.add_nic(tx_queue);
  na.assign_ip(ip_a, prefix_len);
  Nic& nb = b.add_nic(tx_queue);
  nb.assign_ip(ip_b, prefix_len);
  links_.push_back(std::make_unique<Link>(
      sim_, a.name() + "<->" + b.name(), bandwidth_bps, propagation));
  Link& link = *links_.back();
  link.attach(&na);
  link.attach(&nb);
  register_nic(a, na);
  register_nic(b, nb);
  return {&na, &nb};
}

void Network::connect(Switch& a, Switch& b, double bandwidth_bps,
                      sim::Duration propagation) {
  Nic& pa = add_port(a);
  Nic& pb = add_port(b);
  links_.push_back(std::make_unique<Link>(
      sim_, a.name() + "<->" + b.name(), bandwidth_bps, propagation));
  Link& link = *links_.back();
  link.attach(&pa);
  link.attach(&pb);
}

std::optional<MacAddr> Network::mac_of(IpAddr ip) const {
  auto it = endpoints_.find(ip);
  if (it == endpoints_.end()) return std::nullopt;
  return it->second.nic->mac();
}

Nic* Network::nic_of(IpAddr ip) const {
  auto it = endpoints_.find(ip);
  return it == endpoints_.end() ? nullptr : it->second.nic;
}

Host* Network::find_host(const std::string& name) const {
  for (const auto& h : hosts_) {
    if (h->name() == name) return h.get();
  }
  return nullptr;
}

Host* Network::host_of(IpAddr ip) const {
  auto it = endpoints_.find(ip);
  return it == endpoints_.end() ? nullptr : it->second.host;
}

namespace {
// Minimal union-find over medium indices.
class UnionFind {
 public:
  explicit UnionFind(std::size_t n) : parent_(n) {
    for (std::size_t i = 0; i < n; ++i) parent_[i] = i;
  }
  std::size_t find(std::size_t x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }
  void unite(std::size_t a, std::size_t b) { parent_[find(a)] = find(b); }

 private:
  std::vector<std::size_t> parent_;
};
}  // namespace

std::unordered_map<const Medium*, int> Network::compute_l2_domains() const {
  std::vector<const Medium*> media;
  std::unordered_map<const Medium*, std::size_t> index;
  auto add_medium = [&](const Medium* m) {
    if (m != nullptr && index.emplace(m, media.size()).second) {
      media.push_back(m);
    }
  };
  for (const auto& s : segments_) add_medium(s.get());
  for (const auto& l : links_) add_medium(l.get());

  UnionFind uf(media.size());
  for (const auto& sw : switches_) {
    const Medium* first = nullptr;
    for (const auto& port : sw->ports()) {
      const Medium* m = port->medium();
      if (m == nullptr) continue;
      add_medium(m);  // ports always attach to known media, but be safe
      if (first == nullptr) {
        first = m;
      } else {
        uf.unite(index.at(first), index.at(m));
      }
    }
  }

  std::unordered_map<const Medium*, int> domain;
  for (const auto& [m, idx] : index) {
    domain[m] = static_cast<int>(uf.find(idx));
  }
  return domain;
}

void Network::auto_route() {
  prime_switch_tables();
  const auto domain_of_medium = compute_l2_domains();

  struct Attachment {
    Host* node;
    Nic* nic;
  };
  std::map<int, std::vector<Attachment>> by_domain;
  // Node -> (domain -> nic); the nic a node uses to reach that domain.
  std::unordered_map<Host*, std::map<int, Nic*>> node_domains;

  for (const auto& host : hosts_) {
    for (const auto& nic : host->nics()) {
      if (nic->ip().is_unspecified() || nic->medium() == nullptr) continue;
      auto it = domain_of_medium.find(nic->medium());
      if (it == domain_of_medium.end()) continue;
      by_domain[it->second].push_back(Attachment{host.get(), nic.get()});
      node_domains[host.get()].emplace(it->second, nic.get());
    }
  }

  for (const auto& src : hosts_) {
    src->routing().clear();
    // BFS over nodes; for each reachable node remember the egress nic and
    // the gateway nic (first hop's interface in the source's domain).
    struct Entry {
      Nic* out;
      Nic* gateway;  // nullptr means directly attached
    };
    std::unordered_map<Host*, Entry> reach;
    std::deque<Host*> queue;
    reach[src.get()] = Entry{nullptr, nullptr};
    queue.push_back(src.get());

    while (!queue.empty()) {
      Host* cur = queue.front();
      queue.pop_front();
      auto nd = node_domains.find(cur);
      if (nd == node_domains.end()) continue;
      // Only routers forward packets beyond their own interfaces.
      if (cur != src.get() && !cur->forwarding()) continue;
      for (const auto& [dom, cur_nic] : nd->second) {
        for (const Attachment& peer : by_domain[dom]) {
          if (peer.node == cur) continue;
          if (reach.count(peer.node) != 0) continue;
          Entry entry;
          if (cur == src.get()) {
            entry.out = cur_nic;
            entry.gateway = peer.nic;  // candidate first hop
          } else {
            entry = reach[cur];
          }
          reach[peer.node] = entry;
          queue.push_back(peer.node);
        }
      }
    }

    for (const auto& [node, entry] : reach) {
      if (node == src.get() || entry.gateway == nullptr) continue;
      for (const auto& nic : node->nics()) {
        if (nic->ip().is_unspecified()) continue;
        // Direct only when the route target is the first hop's own
        // interface; a destination's far-side address still goes via its
        // near-side interface so MAC resolution stays on this medium.
        const bool direct = entry.gateway->ip() == nic->ip();
        const IpAddr gw = direct ? IpAddr{} : entry.gateway->ip();
        src->routing().add(Prefix(nic->ip(), 32), gw, entry.out);
      }
    }
  }
}

std::size_t Network::walk_route(IpAddr src, IpAddr dst,
                               std::vector<const Medium*>* media) const {
  auto push_unique = [media](const Medium* m) {
    if (m == nullptr) return;
    for (const Medium* seen : *media) {
      if (seen == m) return;
    }
    media->push_back(m);
  };

  // Follow one L3 hop at the L2 layer: from the egress nic, across every
  // switch that forwards toward the hop target's MAC, until the medium the
  // target sits on. Hop-capped for safety against mispatched tables.
  auto walk_l2 = [&](const Nic* from, const Nic* target) {
    const Nic* cur = from;
    for (int hops = 0; hops < 64 && cur != nullptr; ++hops) {
      const Medium* medium = cur->medium();
      if (medium == nullptr) return;
      push_unique(medium);
      const Nic* next = nullptr;
      bool arrived = false;
      for (Nic* nic : medium->attached_nics()) {
        if (nic == cur) continue;
        if (nic == target) {
          arrived = true;
          break;
        }
        auto owner = port_owner_.find(nic);
        if (owner == port_owner_.end() || next != nullptr) continue;
        Nic* out = owner->second->port_for(target->mac());
        // out == nic would bounce the frame back where it came from — a
        // stale table, not a path; treat as unreachable through here.
        if (out != nullptr && out != nic) next = out;
      }
      if (arrived) return;
      cur = next;  // continue from the forwarding switch's egress port
    }
  };

  std::size_t count = 0;
  const Host* cur = host_of(src);
  for (int hops = 0; hops < 32 && cur != nullptr && !cur->owns_ip(dst);
       ++hops) {
    const auto route = cur->routing().lookup(dst);
    if (!route || route->out == nullptr) break;
    ++count;
    const IpAddr hop_ip =
        route->gateway.is_unspecified() ? dst : route->gateway;
    auto hop = endpoints_.find(hop_ip);
    if (hop == endpoints_.end()) break;
    if (media != nullptr) walk_l2(route->out, hop->second.nic);
    const Host* next = hop->second.host;
    if (next == cur) break;
    cur = next;
  }
  return count;
}

std::vector<const Medium*> Network::route_media(IpAddr src, IpAddr dst) const {
  return trace_route(src, dst).media;
}

std::size_t Network::route_hops(IpAddr src, IpAddr dst) const {
  return walk_route(src, dst, nullptr);
}

Network::RouteTrace Network::trace_route(IpAddr src, IpAddr dst) const {
  RouteTrace trace;
  trace.hops = walk_route(src, dst, &trace.media);
  return trace;
}

std::array<std::uint64_t, kTrafficClassCount> Network::octets_by_class()
    const {
  // One count per L3 hop: every frame is charged at the host/router NIC
  // that transmitted it. Switch-port retransmissions of the same frame are
  // L2 replication, not new load injected by anyone.
  std::array<std::uint64_t, kTrafficClassCount> totals{};
  for (const auto& host : hosts_) {
    for (const auto& nic : host->nics()) {
      for (std::size_t c = 0; c < kTrafficClassCount; ++c) {
        totals[c] += nic->counters().out_octets_by_class[c];
      }
    }
  }
  return totals;
}

void Network::prime_switch_tables() {
  for (const auto& sw : switches_) {
    for (const auto& port : sw->ports()) {
      Medium* start = port->medium();
      if (start == nullptr) continue;
      // Flood-fill the L2 topology reachable through this port (never
      // re-entering this switch) and learn every end-station MAC there.
      std::unordered_set<const Medium*> visited{start};
      std::deque<Medium*> queue{start};
      while (!queue.empty()) {
        Medium* medium = queue.front();
        queue.pop_front();
        for (Nic* nic : medium->attached_nics()) {
          if (nic == port.get()) continue;
          auto owner = port_owner_.find(nic);
          if (owner == port_owner_.end()) {
            sw->learn(nic->mac(), *port);  // end station
            continue;
          }
          if (owner->second == sw.get()) continue;  // loop back to self
          for (const auto& other_port : owner->second->ports()) {
            Medium* next = other_port->medium();
            if (next != nullptr && visited.insert(next).second) {
              queue.push_back(next);
            }
          }
        }
      }
    }
  }
}

std::uint64_t Network::total_octets() const {
  std::uint64_t sum = 0;
  for (auto v : octets_by_class()) sum += v;
  return sum;
}

void Network::attach_observability(obs::Registry& registry,
                                   const std::string& prefix) {
  obs_ = obs::Scope(registry, prefix);
  for (std::size_t c = 0; c < kTrafficClassCount; ++c) {
    const std::string name =
        std::string("octets.") + to_string(static_cast<TrafficClass>(c));
    obs_.gauge_fn(name, [this, c] {
      return static_cast<double>(octets_by_class()[c]);
    });
  }
  obs_.gauge_fn("total_octets",
                [this] { return static_cast<double>(total_octets()); });
  for (const auto& link : links_) {
    link->attach_observability(registry, prefix + ".link." + link->name());
  }
  for (const auto& segment : segments_) {
    segment->attach_observability(registry,
                                  prefix + ".segment." + segment->name());
  }
}

}  // namespace netmon::net
