#pragma once

// Static IP routing table with longest-prefix match. Tables are normally
// filled by Network::auto_route(); individual entries can be overridden to
// create asymmetric routes (paper §4.3: "In an environment where asymmetric
// routes exist between two hosts, information may flow in one direction but
// not in the other").

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "net/address.hpp"

namespace netmon::net {

class Nic;

struct Route {
  Prefix prefix;
  // Unspecified gateway means the destination is directly attached.
  IpAddr gateway;
  Nic* out = nullptr;
};

class RoutingTable {
 public:
  // Later insertions win among routes of equal prefix length.
  void add(Prefix prefix, IpAddr gateway, Nic* out);
  // Removes every route whose prefix equals `prefix` exactly.
  void remove(Prefix prefix);
  void clear() {
    routes_.clear();
    standby_.clear();
    dirty_ = true;
  }

  // Longest-prefix match: one hash probe per distinct prefix length in the
  // table, longest first. The index behind it is rebuilt by the first
  // lookup after a mutation (DESIGN.md §11), so lookup() is const but not
  // safe to call concurrently with itself.
  std::optional<Route> lookup(IpAddr dst) const;
  std::size_t size() const { return routes_.size(); }
  const std::vector<Route>& routes() const { return routes_; }
  std::string to_string() const;

  // Pre-provisioned alternate routes (DESIGN.md §12). A standby entry is
  // invisible to lookup() until swap_standby() exchanges it with the active
  // entries of the exact same prefix, so a control-plane failover — and its
  // rollback, which is the same swap again — changes one table atomically
  // and never leaves the prefix unrouted.
  void add_standby(Prefix prefix, IpAddr gateway, Nic* out);
  bool has_standby(Prefix prefix) const;
  // Swaps the active and standby route sets for `prefix`. Either side may
  // be empty (a standby /32 over a default route swaps in leaving nothing
  // behind; the swap back restores it), so the operation is always its own
  // inverse. Returns false (and changes nothing) only when neither side
  // holds an entry for the prefix.
  bool swap_standby(Prefix prefix);
  std::size_t standby_size() const { return standby_.size(); }
  const std::vector<Route>& standby_routes() const { return standby_; }

 private:
  // One open-addressing slot: key (network << 6 | length) -> the index in
  // routes_ of the last route with exactly that prefix.
  struct Slot {
    std::uint64_t key;
    std::uint32_t route;
  };

  void rebuild_index() const;

  // Source of truth, in insertion order.
  std::vector<Route> routes_;
  std::vector<Route> standby_;
  // Lazy longest-prefix-match index over routes_; valid while !dirty_.
  mutable std::vector<Slot> slots_;
  mutable std::uint64_t lengths_ = 0;  // bit L set: some route is a /L
  mutable int shift_ = 64;             // 64 - log2(slots_.size())
  mutable bool dirty_ = false;
};

}  // namespace netmon::net
