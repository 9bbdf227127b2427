// Model-based randomized test for net::RoutingTable: seeded random streams
// of add / remove / add_standby / swap_standby / clear run against a naive
// reference that keeps the active and standby route lists as flat vectors
// and answers lookups by a linear longest-prefix scan in which a later
// route of equal length wins. After every operation the table must agree
// with the reference on the route lists (in insertion order); after most,
// also on the lookup of random addresses and of every network ever
// inserted. That pins down the lazily rebuilt per-length index behind
// lookup(): its longest-first probe order, the later-insertion tie rule,
// and that every mutation invalidates it.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "net/routing.hpp"
#include "util/rng.hpp"

namespace netmon::net {
namespace {

// ---- Reference model ------------------------------------------------------

struct Model {
  std::vector<Route> active;
  std::vector<Route> standby;

  static void erase_prefix(std::vector<Route>& routes, Prefix prefix) {
    routes.erase(std::remove_if(routes.begin(), routes.end(),
                                [&](const Route& r) { return r.prefix == prefix; }),
                 routes.end());
  }

  bool swap(Prefix prefix) {
    std::vector<Route> to_active;
    std::vector<Route> to_standby;
    for (const Route& r : active) {
      if (r.prefix == prefix) to_standby.push_back(r);
    }
    for (const Route& r : standby) {
      if (r.prefix == prefix) to_active.push_back(r);
    }
    if (to_active.empty() && to_standby.empty()) return false;
    erase_prefix(active, prefix);
    erase_prefix(standby, prefix);
    active.insert(active.end(), to_active.begin(), to_active.end());
    standby.insert(standby.end(), to_standby.begin(), to_standby.end());
    return true;
  }

  std::optional<Route> lookup(IpAddr dst) const {
    const Route* best = nullptr;
    for (const Route& r : active) {
      if (!r.prefix.contains(dst)) continue;
      if (best == nullptr || r.prefix.length() >= best->prefix.length()) {
        best = &r;
      }
    }
    if (best == nullptr) return std::nullopt;
    return *best;
  }
};

bool same_route(const Route& a, const Route& b) {
  return a.prefix == b.prefix && a.gateway == b.gateway && a.out == b.out;
}

std::string describe(const std::optional<Route>& r) {
  if (!r) return "none";
  return r->prefix.to_string() + " via " + r->gateway.to_string();
}

::testing::AssertionResult same_lists(const std::vector<Route>& got,
                                      const std::vector<Route>& want) {
  if (got.size() != want.size()) {
    return ::testing::AssertionFailure()
           << "size " << got.size() << " vs model " << want.size();
  }
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (!same_route(got[i], want[i])) {
      return ::testing::AssertionFailure()
             << "entry " << i << ": " << describe(got[i]) << " vs model "
             << describe(want[i]);
    }
  }
  return ::testing::AssertionSuccess();
}

::testing::AssertionResult same_lookup(const RoutingTable& table,
                                       const Model& model, IpAddr dst) {
  const auto got = table.lookup(dst);
  const auto want = model.lookup(dst);
  if (got.has_value() != want.has_value() ||
      (got && !same_route(*got, *want))) {
    return ::testing::AssertionFailure()
           << "lookup(" << dst.to_string() << ") = " << describe(got)
           << ", model says " << describe(want);
  }
  return ::testing::AssertionSuccess();
}

// Addresses drawn from a small space so prefixes overlap and nest, plus a
// share of arbitrary 32-bit addresses that only a default route matches.
IpAddr random_address(util::Rng& rng) {
  if (rng.uniform_int(0, 9) == 0) {
    return IpAddr(static_cast<std::uint32_t>(rng.next()));
  }
  return IpAddr(10, static_cast<std::uint8_t>(rng.uniform_int(0, 3)),
                static_cast<std::uint8_t>(rng.uniform_int(0, 3)),
                static_cast<std::uint8_t>(rng.uniform_int(0, 15)));
}

// A fixed pool of prefixes per seed: mixed lengths including /0 defaults,
// host routes and lengths that never share a boundary with the others.
std::vector<Prefix> prefix_pool(util::Rng& rng) {
  static constexpr int kLengths[] = {0, 8, 14, 16, 22, 24, 28, 30, 31, 32};
  std::vector<Prefix> pool;
  for (int i = 0; i < 48; ++i) {
    const int length = kLengths[rng.uniform_int(0, 9)];
    pool.emplace_back(random_address(rng), length);
  }
  return pool;
}

void run_stream(std::uint64_t seed, int ops) {
  util::Rng rng(seed);
  const std::vector<Prefix> pool = prefix_pool(rng);
  RoutingTable table;
  Model model;
  std::vector<Prefix> inserted;
  std::uint32_t next_gateway = 1;  // unique per route: tells duplicates apart

  for (int op = 0; op < ops; ++op) {
    const Prefix prefix = pool[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(pool.size()) - 1))];
    const IpAddr gateway(next_gateway++);
    const std::int64_t roll = rng.uniform_int(0, 99);
    std::string what;
    if (roll < 45) {
      table.add(prefix, gateway, nullptr);
      model.active.push_back(Route{prefix, gateway, nullptr});
      inserted.push_back(prefix);
      what = "add";
    } else if (roll < 60) {
      table.remove(prefix);
      Model::erase_prefix(model.active, prefix);
      what = "remove";
    } else if (roll < 75) {
      table.add_standby(prefix, gateway, nullptr);
      model.standby.push_back(Route{prefix, gateway, nullptr});
      inserted.push_back(prefix);
      what = "add_standby";
    } else if (roll < 98) {
      // Prefer prefixes that hold a standby entry so swaps mostly act.
      Prefix target = prefix;
      if (!model.standby.empty() && rng.uniform_int(0, 3) != 0) {
        target = model.standby[static_cast<std::size_t>(rng.uniform_int(
                                   0, static_cast<std::int64_t>(
                                          model.standby.size()) - 1))]
                     .prefix;
      }
      ASSERT_EQ(table.has_standby(target),
                std::any_of(model.standby.begin(), model.standby.end(),
                            [&](const Route& r) { return r.prefix == target; }));
      // Involution: a swap and its repeat leave every lookup as it was.
      std::vector<std::optional<Route>> before;
      for (const Prefix& p : inserted) before.push_back(table.lookup(p.network()));
      RoutingTable twice = table;
      const bool swapped = twice.swap_standby(target);
      ASSERT_EQ(twice.swap_standby(target), swapped);
      for (std::size_t i = 0; i < inserted.size(); ++i) {
        const auto again = twice.lookup(inserted[i].network());
        ASSERT_EQ(again.has_value(), before[i].has_value());
        if (again) {
          ASSERT_TRUE(same_route(*again, *before[i]));
        }
      }
      ASSERT_EQ(twice.size(), table.size());
      ASSERT_EQ(twice.standby_size(), table.standby_size());

      ASSERT_EQ(table.swap_standby(target), model.swap(target))
          << "seed " << seed << " op " << op;
      what = "swap_standby";
    } else {
      table.clear();
      model.active.clear();
      model.standby.clear();
      inserted.clear();
      what = "clear";
    }

    ASSERT_TRUE(same_lists(table.routes(), model.active))
        << "seed " << seed << " op " << op << " (" << what << ")";
    ASSERT_TRUE(same_lists(table.standby_routes(), model.standby))
        << "seed " << seed << " op " << op << " (" << what << ")";
    // Skip the lookups after some ops, so several mutations pile up
    // between two rebuilds of the lazy index.
    if (rng.uniform_int(0, 2) == 0) continue;
    for (int probe = 0; probe < 16; ++probe) {
      ASSERT_TRUE(same_lookup(table, model, random_address(rng)))
          << "seed " << seed << " op " << op << " (" << what << ")";
    }
    for (const Prefix& p : inserted) {
      ASSERT_TRUE(same_lookup(table, model, p.network()))
          << "seed " << seed << " op " << op << " (" << what << ")";
    }
  }
}

TEST(RoutingModel, RandomStreamsMatchLinearLongestPrefixReference) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    run_stream(seed, 1500);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(RoutingModel, LookupAfterEveryMutationSeesIt) {
  // Interleave each mutation with a lookup so the index is rebuilt between
  // every pair of writes, then repeat the stream with lookups only at the
  // end: both must land on the same answers.
  RoutingTable eager;
  RoutingTable lazy;
  const Prefix host(IpAddr(10, 0, 0, 5), 32);
  const Prefix subnet(IpAddr(10, 0, 0, 0), 24);
  const Prefix fallback(IpAddr{}, 0);
  const IpAddr dst(10, 0, 0, 5);
  auto step = [&](auto&& mutate, std::optional<IpAddr> expect) {
    mutate(eager);
    mutate(lazy);
    const auto r = eager.lookup(dst);
    ASSERT_EQ(r.has_value(), expect.has_value());
    if (r) {
      EXPECT_EQ(r->gateway, *expect);
    }
  };
  step([&](RoutingTable& t) { t.add(fallback, IpAddr(1, 0, 0, 1), nullptr); },
       IpAddr(1, 0, 0, 1));
  step([&](RoutingTable& t) { t.add(subnet, IpAddr(2, 0, 0, 1), nullptr); },
       IpAddr(2, 0, 0, 1));
  step([&](RoutingTable& t) { t.add(subnet, IpAddr(2, 0, 0, 2), nullptr); },
       IpAddr(2, 0, 0, 2));
  step([&](RoutingTable& t) { t.add_standby(host, IpAddr(3, 0, 0, 1), nullptr); },
       IpAddr(2, 0, 0, 2));
  step([&](RoutingTable& t) { t.swap_standby(host); }, IpAddr(3, 0, 0, 1));
  step([&](RoutingTable& t) { t.remove(subnet); }, IpAddr(3, 0, 0, 1));
  step([&](RoutingTable& t) { t.swap_standby(host); }, IpAddr(1, 0, 0, 1));
  step([&](RoutingTable& t) { t.clear(); }, std::nullopt);
  step([&](RoutingTable& t) { t.add(subnet, IpAddr(4, 0, 0, 1), nullptr); },
       IpAddr(4, 0, 0, 1));
  const auto r = lazy.lookup(dst);
  ASSERT_TRUE(r);
  EXPECT_EQ(r->gateway, IpAddr(4, 0, 0, 1));
  EXPECT_FALSE(lazy.lookup(IpAddr(10, 0, 1, 5)));
}

}  // namespace
}  // namespace netmon::net
