// Heap-allocation budgets of the steady-state probe pipeline (DESIGN.md
// §16). This binary replaces the global operator new with a counting one,
// so every allocation the libraries make is visible. Each test warms a
// scenario up — pools, rings, tables and socket free lists reach their
// working size — and then bounds the allocations of its steady state per
// unit of work: per recorded sample for the paper's 9x3 reachability round,
// per forwarded frame for a UDP stream through a switch, and per path the
// measurement database interns.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <vector>

#include "apps/rtds.hpp"
#include "apps/testbed.hpp"
#include "core/high_fidelity_monitor.hpp"
#include "core/lane_scheduler.hpp"
#include "core/measurement_db.hpp"
#include "manager/resource_manager.hpp"
#include "net/switch.hpp"
#include "net/topology.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"

// ---------------------------------------------------------------------------
// Counting operator new. The simulator is single-threaded, so a plain
// counter suffices.

namespace {
std::uint64_t g_allocs = 0;

void* counted_alloc(std::size_t size) {
  ++g_allocs;
  if (size == 0) size = 1;
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* counted_aligned_alloc(std::size_t size, std::align_val_t align) {
  ++g_allocs;
  const std::size_t a = static_cast<std::size_t>(align);
  std::size_t rounded = (size + a - 1) / a * a;
  if (rounded == 0) rounded = a;
  if (void* p = std::aligned_alloc(a, rounded)) return p;
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  ++g_allocs;
  return std::malloc(size == 0 ? 1 : size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  ++g_allocs;
  return std::malloc(size == 0 ? 1 : size);
}
void* operator new(std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace netmon {
namespace {

using sim::Duration;
using sim::TimePoint;

// The counter itself must see allocations, or every budget passes vacuously.
TEST(AllocBudget, CounterSeesHeapAllocations) {
  const std::uint64_t before = g_allocs;
  auto p = std::make_unique<std::uint64_t>(7);
  std::vector<int> v(16);
  EXPECT_GE(g_allocs - before, 2u);
  EXPECT_EQ(*p + v.size(), 23u);
}

// The paper's 9x3 HiPer-D round: 3 servers, 9 clients, the active server
// streaming RTDS tracks, the serial (K = 1) sequencer probing reachability
// of all 27 paths back to back, and the resource manager judging every
// tuple. Once warm, a recorded sample may cost at most 6 allocations;
// what remains is mostly the echo payloads each probe and reply carry.
TEST(AllocBudget, RtdsReachabilityRoundStaysWithinSixPerSample) {
  sim::Simulator sim;
  apps::TestbedOptions options;
  options.servers = 3;
  options.clients = 9;
  options.seed = 1;
  apps::Testbed bed(sim, options);
  std::vector<std::unique_ptr<apps::RtdsServer>> servers;
  for (int s = 0; s < bed.server_count(); ++s) {
    servers.push_back(std::make_unique<apps::RtdsServer>(
        bed.server(s), apps::RtdsServer::Config{}));
  }
  servers[0]->start();
  std::vector<std::unique_ptr<apps::RtdsClient>> clients;
  for (int c = 0; c < bed.client_count(); ++c) {
    clients.push_back(std::make_unique<apps::RtdsClient>(
        bed.client(c), apps::RtdsClient::Config{}));
    clients.back()->connect(bed.server_ip(0));
  }

  core::HighFidelityMonitor::Config mon_cfg;
  mon_cfg.probe.message_length = 8192;
  mon_cfg.probe.inter_send = Duration::ms(5);
  mon_cfg.probe.message_count = 4;
  mon_cfg.probe.result_timeout = Duration::ms(500);
  core::HighFidelityMonitor monitor(bed.network(), mon_cfg);
  std::uint64_t samples = 0;
  monitor.database().set_record_hook(
      [&samples](core::PathId, core::Metric, const core::MetricValue&) {
        ++samples;
      });

  mgr::ResourceManager::Config rm_cfg;
  rm_cfg.metrics = {core::Metric::kReachability};
  rm_cfg.strikes = 2;
  mgr::ResourceManager manager(monitor.director(), rm_cfg);
  mgr::ManagedApplication app;
  app.name = "rtds";
  for (int s = 0; s < bed.server_count(); ++s) {
    app.server_pool.push_back(bed.server_ip(s));
  }
  for (int c = 0; c < bed.client_count(); ++c) {
    app.client_pool.push_back(bed.client_ip(c));
  }
  app.port = apps::kRtdsPort;
  manager.manage(app, bed.server_ip(0));

  sim.run_until(TimePoint::from_nanos(Duration::sec(2).nanos()));
  const std::uint64_t samples0 = samples;
  const std::uint64_t allocs0 = g_allocs;
  sim.run_until(TimePoint::from_nanos(Duration::sec(5).nanos()));
  const std::uint64_t recorded = samples - samples0;
  const std::uint64_t allocs = g_allocs - allocs0;

  ASSERT_GT(recorded, 10000u);  // ~14k samples per simulated second
  EXPECT_EQ(manager.reconfigurations(), 0u);
  EXPECT_EQ(manager.tuples_consumed(), samples);
  const double per_sample =
      static_cast<double>(allocs) / static_cast<double>(recorded);
  EXPECT_LE(per_sample, 6.0) << allocs << " allocations over " << recorded
                             << " samples";
}

// A steady UDP stream a -> switch -> b: three datagrams every 200 us, so
// the sender's queue holds several frames at once. Once the rings and
// parking pools have grown, forwarding a frame allocates nothing.
TEST(AllocBudget, SteadyUdpStreamForwardsFramesWithoutAllocating) {
  sim::Simulator sim;
  net::Network network(sim, util::Rng(1));
  net::Host& a = network.add_host("a");
  net::Host& b = network.add_host("b");
  net::Switch& sw = network.add_switch("sw");
  const net::IpAddr b_ip(10, 0, 0, 2);
  network.attach(a, sw, net::IpAddr(10, 0, 0, 1), 24,
                 net::bandwidth::kFddi100);
  network.attach(b, sw, b_ip, 24, net::bandwidth::kFddi100);
  network.auto_route();

  std::uint64_t received = 0;
  b.udp().bind(7000, [&received](const net::Packet&) { ++received; });
  net::UdpSocket& tx = a.udp().bind(0, nullptr);
  sim::PeriodicTask sender(sim, Duration::us(200), [&tx, b_ip] {
    for (int i = 0; i < 3; ++i) {
      tx.send_to(b_ip, 7000, 512, nullptr, net::TrafficClass::kApplication);
    }
  });

  sim.run_for(Duration::ms(20));
  const std::uint64_t frames0 = sw.frames_forwarded();
  const std::uint64_t received0 = received;
  const std::uint64_t allocs0 = g_allocs;
  sim.run_for(Duration::ms(200));
  const std::uint64_t frames = sw.frames_forwarded() - frames0;
  const std::uint64_t allocs = g_allocs - allocs0;

  ASSERT_GT(frames, 2500u);
  EXPECT_EQ(received - received0, frames);
  EXPECT_EQ(allocs, 0u) << allocs << " allocations over " << frames
                        << " forwarded frames";
}

// A Done is pointer-sized, so a timer that captures it next to two words
// (the shape of a lane holder releasing after a delay) stays inside
// sim::Callback's inline buffer; with a task capturing two words (Task's
// inline size), a warm admit/complete cycle allocates nothing.
TEST(AllocBudget, WarmAdmissionCycleWithTimedReleaseAllocatesNothing) {
  struct Run {
    sim::Simulator sim;
    core::LaneScheduler sched{core::SchedulerConfig{.lanes = 4}};
    std::uint64_t completions = 0;
  } run;
  auto cycle = [&run](int rounds) {
    for (int r = 0; r < rounds; ++r) {
      for (std::uint64_t i = 0; i < 16; ++i) {
        run.sched.enqueue([&run, i](core::LaneScheduler::Done done) {
          run.sim.schedule_in(Duration::us(1 + static_cast<std::int64_t>(i)),
                              [&run, i, done] {
                                run.completions += i;
                                done();
                              });
        });
      }
      run.sim.run();
    }
  };
  cycle(4);
  const std::uint64_t allocs0 = g_allocs;
  cycle(16);
  EXPECT_EQ(g_allocs - allocs0, 0u);
  EXPECT_EQ(run.sched.completed(), 20u * 16u);
  EXPECT_EQ(run.sched.abandoned(), 0u);
  EXPECT_EQ(run.completions, 20u * 120u);
}

// Interning a path stores one map node holding a copy of the Path, whose
// endpoint vector is the second allocation; the per-metric series are plain
// fields in one dense vector. What remains is the geometric growth of the
// id map's buckets and the two dense vectors, a few dozen allocations over
// 10k paths.
TEST(AllocBudget, InterningAPathCostsTwoAllocations) {
  constexpr std::uint64_t kPaths = 10000;
  constexpr std::uint64_t kGrowth = 64;
  std::vector<core::Path> paths;
  paths.reserve(kPaths);
  for (std::uint64_t i = 0; i < kPaths; ++i) {
    const auto lo = static_cast<std::uint8_t>(i & 0xFF);
    const auto hi = static_cast<std::uint8_t>(i >> 8);
    paths.emplace_back(
        core::ProcessEndpoint{"server", net::IpAddr(10, 1, hi, lo), 1},
        core::ProcessEndpoint{"client", net::IpAddr(10, 2, hi, lo), 2});
  }
  core::MeasurementDatabase db;
  const std::uint64_t allocs0 = g_allocs;
  for (const core::Path& path : paths) db.id_of(path);
  const std::uint64_t allocs = g_allocs - allocs0;

  ASSERT_EQ(db.interned_paths(), kPaths);
  EXPECT_LE(allocs, 2 * kPaths + kGrowth)
      << static_cast<double>(allocs) / static_cast<double>(kPaths)
      << " allocations per interned path";
}

}  // namespace
}  // namespace netmon
