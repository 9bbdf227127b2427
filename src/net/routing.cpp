#include "net/routing.hpp"

#include <algorithm>
#include <bit>

#include "net/nic.hpp"

namespace netmon::net {

namespace {
constexpr std::uint64_t kEmptySlot = ~std::uint64_t{0};

// Never kEmptySlot: the length field only reaches 32.
std::uint64_t slot_key(const Prefix& prefix) {
  return (std::uint64_t{prefix.network().raw()} << 6) |
         static_cast<std::uint64_t>(prefix.length());
}

std::size_t slot_of(std::uint64_t key, int shift) {
  return static_cast<std::size_t>((key * 0x9E3779B97F4A7C15ull) >> shift);
}
}  // namespace

void RoutingTable::add(Prefix prefix, IpAddr gateway, Nic* out) {
  routes_.push_back(Route{prefix, gateway, out});
  dirty_ = true;
}

void RoutingTable::remove(Prefix prefix) {
  routes_.erase(std::remove_if(routes_.begin(), routes_.end(),
                               [&](const Route& r) { return r.prefix == prefix; }),
                routes_.end());
  dirty_ = true;
}

void RoutingTable::add_standby(Prefix prefix, IpAddr gateway, Nic* out) {
  standby_.push_back(Route{prefix, gateway, out});
}

bool RoutingTable::has_standby(Prefix prefix) const {
  return std::any_of(standby_.begin(), standby_.end(),
                     [&](const Route& r) { return r.prefix == prefix; });
}

bool RoutingTable::swap_standby(Prefix prefix) {
  std::vector<Route> now_standby;
  std::vector<Route> now_active;
  for (const Route& r : routes_) {
    if (r.prefix == prefix) now_standby.push_back(r);
  }
  for (const Route& r : standby_) {
    if (r.prefix == prefix) now_active.push_back(r);
  }
  // The swap is an involution even when one side is empty: a standby /32
  // over a default route swaps in leaving no standby entry, and the swap
  // back returns it. Only a prefix known to neither side is refused.
  if (now_standby.empty() && now_active.empty()) return false;
  remove(prefix);
  standby_.erase(std::remove_if(standby_.begin(), standby_.end(),
                                [&](const Route& r) { return r.prefix == prefix; }),
                 standby_.end());
  routes_.insert(routes_.end(), now_active.begin(), now_active.end());
  standby_.insert(standby_.end(), now_standby.begin(), now_standby.end());
  return true;
}

void RoutingTable::rebuild_index() const {
  // Load factor <= 1/2 keeps linear-probe chains short.
  const std::size_t capacity = std::bit_ceil(2 * routes_.size() + 2);
  shift_ = 64 - std::countr_zero(capacity);
  slots_.assign(capacity, Slot{kEmptySlot, 0});
  lengths_ = 0;
  const std::size_t mask = capacity - 1;
  for (std::size_t i = 0; i < routes_.size(); ++i) {
    const std::uint64_t key = slot_key(routes_[i].prefix);
    std::size_t s = slot_of(key, shift_);
    while (slots_[s].key != kEmptySlot && slots_[s].key != key) {
      s = (s + 1) & mask;
    }
    // Overwriting an equal prefix keeps the later insertion, as the table
    // promises for routes of equal length.
    slots_[s] = Slot{key, static_cast<std::uint32_t>(i)};
    lengths_ |= std::uint64_t{1} << routes_[i].prefix.length();
  }
  dirty_ = false;
}

std::optional<Route> RoutingTable::lookup(IpAddr dst) const {
  if (dirty_) rebuild_index();
  const std::size_t mask = slots_.size() - 1;
  for (std::uint64_t lengths = lengths_; lengths != 0;) {
    const int length = std::bit_width(lengths) - 1;
    lengths &= ~(std::uint64_t{1} << length);
    const std::uint64_t key = slot_key(Prefix(dst, length));
    for (std::size_t s = slot_of(key, shift_); slots_[s].key != kEmptySlot;
         s = (s + 1) & mask) {
      if (slots_[s].key == key) return routes_[slots_[s].route];
    }
  }
  return std::nullopt;
}

std::string RoutingTable::to_string() const {
  std::string out;
  for (const Route& r : routes_) {
    out += r.prefix.to_string();
    out += " via ";
    out += r.gateway.is_unspecified() ? "direct" : r.gateway.to_string();
    if (r.out != nullptr) {
      out += " dev ";
      out += r.out->name();
    }
    out += '\n';
  }
  return out;
}

}  // namespace netmon::net
