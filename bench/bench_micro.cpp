// Microbenchmarks (google-benchmark) for the hot substrate paths: event
// queue, BER codec, MIB walks, the measurement database, a full simulated
// UDP round trip, frame forwarding through a switch, and one sample's trip
// through the director/database/manager pipeline.

#include <benchmark/benchmark.h>

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "core/lane_scheduler.hpp"
#include "core/measurement_db.hpp"
#include "core/sensor_director.hpp"
#include "ctrl/control_plane.hpp"
#include "manager/resource_manager.hpp"
#include "net/switch.hpp"
#include "net/topology.hpp"
#include "net/udp.hpp"
#include "obs/metrics.hpp"
#include "sim/simulator.hpp"
#include "snmp/mib.hpp"
#include "snmp/mib2.hpp"
#include "snmp/pdu.hpp"

using namespace netmon;

namespace {

void BM_EventQueueScheduleRun(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::Simulator sim;
    int fired = 0;
    for (int i = 0; i < n; ++i) {
      sim.schedule_in(sim::Duration::us((i * 37) % 1000 + 1),
                      [&fired] { ++fired; });
    }
    sim.run();
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_EventQueueScheduleRun)->Arg(1000)->Arg(100000);

// Same workload with the self-observability registry attached: the pair
// quantifies the instrumentation overhead on the hottest path (budget <5%;
// sampled histograms + counter increments — see src/obs/metrics.hpp).
void BM_EventQueueScheduleRunObserved(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  obs::Registry registry;
  for (auto _ : state) {
    sim::Simulator sim;
    sim.attach_observability(registry, "sim");
    int fired = 0;
    for (int i = 0; i < n; ++i) {
      sim.schedule_in(sim::Duration::us((i * 37) % 1000 + 1),
                      [&fired] { ++fired; });
    }
    sim.run();
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_EventQueueScheduleRunObserved)->Arg(1000)->Arg(100000);

void BM_PeriodicTimerChain(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator sim;
    int fired = 0;
    auto handle = sim.schedule_periodic(sim::Duration::us(10),
                                        [&fired] { ++fired; });
    sim.run_for(sim::Duration::ms(100));
    handle.cancel();
    benchmark::DoNotOptimize(fired);
  }
}
BENCHMARK(BM_PeriodicTimerChain);

// 1000 concurrent periodic probes at staggered cadences: the wheel's bucket
// path (link, cascade, batch dispatch) rather than the solo fast path.
void BM_ConcurrentPeriodicTimers(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator sim;
    std::uint64_t fired = 0;
    std::vector<sim::EventHandle> handles;
    handles.reserve(1000);
    for (int i = 0; i < 1000; ++i) {
      handles.push_back(sim.schedule_periodic(
          sim::Duration::us(100 + (i * 7) % 400), [&fired] { ++fired; }));
    }
    sim.run_for(sim::Duration::ms(10));
    for (auto& h : handles) h.cancel();
    benchmark::DoNotOptimize(fired);
  }
}
BENCHMARK(BM_ConcurrentPeriodicTimers);

// The lane scheduler's admission cycle: enqueue 1024 gated probes, then
// complete them one at a time so every finish() re-runs the pick() scan
// over the still-queued entries. Arg is the lane count — 1 is the serial
// sequencer special case (no gates), 4 adds the budget and link-disjoint
// gates with footprints that collide often enough to force scan skips.
void BM_LaneSchedulerAdmissionCycle(benchmark::State& state) {
  const auto lanes = static_cast<std::size_t>(state.range(0));
  constexpr int kTasks = 1024;
  for (auto _ : state) {
    core::SchedulerConfig cfg;
    cfg.lanes = lanes;
    cfg.budget_bps = 1e6 * static_cast<double>(lanes);
    cfg.link_disjoint = lanes > 1;
    core::LaneScheduler sched(cfg);
    std::deque<core::LaneScheduler::Done> running;
    for (int i = 0; i < kTasks; ++i) {
      core::ProbeProfile profile;
      profile.offered_bps = 1e6;
      profile.priority = static_cast<core::ProbeClass>(i % 3);
      profile.footprint = {static_cast<core::LinkKey>(i % 16),
                           static_cast<core::LinkKey>(100 + i % 7)};
      sched.enqueue(
          [&running](core::LaneScheduler::Done done) {
            running.push_back(std::move(done));
          },
          profile);
    }
    while (!running.empty()) {
      auto done = std::move(running.front());
      running.pop_front();
      done();
    }
    benchmark::DoNotOptimize(sched.completed());
  }
  state.SetItemsProcessed(state.iterations() * kTasks);
}
BENCHMARK(BM_LaneSchedulerAdmissionCycle)->Arg(1)->Arg(4);

// The pathological shape the 10k-path soak exposed (DESIGN.md §11/§15): a
// deep queue whose head is blocked on a handful of shared links, so every
// release used to rescan the whole deferred prefix (O(deferred × footprint)
// per admission, quadratic over the drain). Arg is the task count; all
// footprints draw from 6 links, so at most 3 disjoint probes run at once
// and the queue stays deep for the entire drain. The indexed admission gate
// (link→waiter index + budget watermark) makes each release wake only the
// entries whose blocking link actually freed.
void BM_LaneSchedulerContendedDrain(benchmark::State& state) {
  const int tasks = static_cast<int>(state.range(0));
  for (auto _ : state) {
    core::SchedulerConfig cfg;
    cfg.lanes = 4;
    cfg.link_disjoint = true;
    core::LaneScheduler sched(cfg);
    std::deque<core::LaneScheduler::Done> running;
    for (int i = 0; i < tasks; ++i) {
      core::ProbeProfile profile;
      profile.priority = static_cast<core::ProbeClass>(i % 3);
      profile.footprint = {static_cast<core::LinkKey>(i % 3),
                           static_cast<core::LinkKey>(3 + (i / 3) % 3)};
      sched.enqueue(
          [&running](core::LaneScheduler::Done done) {
            running.push_back(std::move(done));
          },
          profile);
    }
    while (!running.empty()) {
      auto done = std::move(running.front());
      running.pop_front();
      done();
    }
    benchmark::DoNotOptimize(sched.completed());
  }
  state.SetItemsProcessed(state.iterations() * tasks);
}
BENCHMARK(BM_LaneSchedulerContendedDrain)->Arg(1024)->Arg(8192);

snmp::Message sample_message() {
  snmp::Message msg;
  msg.community = "public";
  msg.pdu.type = snmp::PduType::kResponse;
  msg.pdu.request_id = 42;
  for (std::uint32_t i = 0; i < 8; ++i) {
    msg.pdu.varbinds.push_back(snmp::VarBind{
        snmp::mib2::if_column(snmp::mib2::kIfInOctets, i + 1),
        snmp::SnmpValue(snmp::Counter32{123456789u + i})});
  }
  return msg;
}

void BM_BerEncode(benchmark::State& state) {
  const snmp::Message msg = sample_message();
  for (auto _ : state) {
    auto bytes = msg.encode();
    benchmark::DoNotOptimize(bytes.data());
  }
}
BENCHMARK(BM_BerEncode);

void BM_BerDecode(benchmark::State& state) {
  const auto bytes = sample_message().encode();
  for (auto _ : state) {
    auto msg = snmp::Message::decode(bytes);
    benchmark::DoNotOptimize(msg.pdu.varbinds.size());
  }
}
BENCHMARK(BM_BerDecode);

void BM_MibGetNextWalk(benchmark::State& state) {
  snmp::MibTree tree;
  const int n = static_cast<int>(state.range(0));
  for (int i = 0; i < n; ++i) {
    tree.add_const(snmp::Oid{1, 3, 6, 1, 4, 1, 42,
                             static_cast<std::uint32_t>(i)},
                   snmp::SnmpValue(i));
  }
  for (auto _ : state) {
    snmp::Oid cursor{1};
    int visited = 0;
    while (auto next = tree.get_next(cursor)) {
      cursor = next->oid;
      ++visited;
    }
    benchmark::DoNotOptimize(visited);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_MibGetNextWalk)->Arg(64)->Arg(1024);

void BM_MeasurementDbRecord(benchmark::State& state) {
  core::Path path(
      core::ProcessEndpoint{"a", net::IpAddr(10, 0, 0, 1), 1},
      core::ProcessEndpoint{"b", net::IpAddr(10, 0, 0, 2), 1});
  core::MeasurementDatabase db;
  std::int64_t t = 0;
  for (auto _ : state) {
    db.record(path, core::Metric::kThroughput,
              core::MetricValue::of(1e6, sim::TimePoint::from_nanos(++t)));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MeasurementDbRecord);

// Steady-state record+current over a working set of 27 paths x 3 metrics,
// keyed by Path (interning wrapper) vs. by dense PathId (hot API).
std::vector<core::Path> sample_paths() {
  std::vector<core::Path> paths;
  for (int i = 0; i < 27; ++i) {
    paths.emplace_back(
        core::ProcessEndpoint{"src", net::IpAddr(10, 0, std::uint8_t(i / 8), std::uint8_t(i % 8 + 1)), 1},
        core::ProcessEndpoint{"dst", net::IpAddr(10, 1, std::uint8_t(i / 8), std::uint8_t(i % 8 + 1)), 1});
  }
  return paths;
}

void BM_MeasurementDbWorkingSetByPath(benchmark::State& state) {
  const auto paths = sample_paths();
  core::MeasurementDatabase db;
  std::int64_t t = 0;
  for (auto _ : state) {
    for (const core::Path& p : paths) {
      for (std::size_t m = 0; m < core::kMetricCount; ++m) {
        const auto metric = static_cast<core::Metric>(m);
        const auto now = sim::TimePoint::from_nanos(++t);
        db.record(p, metric, core::MetricValue::of(1.0, now));
        auto cur = db.current(p, metric, now, sim::Duration::sec(1));
        benchmark::DoNotOptimize(cur);
      }
    }
  }
  state.SetItemsProcessed(state.iterations() * paths.size() *
                          core::kMetricCount);
}
BENCHMARK(BM_MeasurementDbWorkingSetByPath);

void BM_MeasurementDbWorkingSetById(benchmark::State& state) {
  const auto paths = sample_paths();
  core::MeasurementDatabase db;
  std::vector<core::PathId> ids;
  for (const core::Path& p : paths) ids.push_back(db.id_of(p));
  std::int64_t t = 0;
  for (auto _ : state) {
    for (const core::PathId id : ids) {
      for (std::size_t m = 0; m < core::kMetricCount; ++m) {
        const auto metric = static_cast<core::Metric>(m);
        const auto now = sim::TimePoint::from_nanos(++t);
        db.record(id, metric, core::MetricValue::of(1.0, now));
        auto cur = db.current(id, metric, now, sim::Duration::sec(1));
        benchmark::DoNotOptimize(cur);
      }
    }
  }
  state.SetItemsProcessed(state.iterations() * ids.size() *
                          core::kMetricCount);
}
BENCHMARK(BM_MeasurementDbWorkingSetById);

// Observed twin of the PathId working set: senescence accounting (interval
// histograms + per-read age) rides along on every record/current.
void BM_MeasurementDbWorkingSetByIdObserved(benchmark::State& state) {
  const auto paths = sample_paths();
  obs::Registry registry;
  core::MeasurementDatabase db;
  db.attach_observability(registry, "db");
  std::vector<core::PathId> ids;
  for (const core::Path& p : paths) ids.push_back(db.id_of(p));
  std::int64_t t = 0;
  for (auto _ : state) {
    for (const core::PathId id : ids) {
      for (std::size_t m = 0; m < core::kMetricCount; ++m) {
        const auto metric = static_cast<core::Metric>(m);
        const auto now = sim::TimePoint::from_nanos(++t);
        db.record(id, metric, core::MetricValue::of(1.0, now));
        auto cur = db.current(id, metric, now, sim::Duration::sec(1));
        benchmark::DoNotOptimize(cur);
      }
    }
  }
  state.SetItemsProcessed(state.iterations() * ids.size() *
                          core::kMetricCount);
}
BENCHMARK(BM_MeasurementDbWorkingSetByIdObserved);

// Tiered-store ingest (DESIGN.md §13): round-robin over a working set whose
// sealed pages overflow the bounded pool, so every record() amortizes page
// rollover, rollup into coarser tiers, and deterministic eviction — the
// steady-state churn cost, not the warm-up cost.
void BM_TieredIngest(benchmark::State& state) {
  core::TieredStorageConfig config;
  config.page_points = 16;
  config.rollup_factor = 8;
  config.tiers = 3;
  config.max_pages = 256;  // 64 series x 3 open pages + churn headroom
  core::MeasurementDatabase db(/*history_depth=*/2, config);
  std::vector<core::PathId> ids;
  for (int i = 0; i < 64; ++i) {
    ids.push_back(db.id_of(core::Path(
        core::ProcessEndpoint{
            "s", net::IpAddr(10, 2, std::uint8_t(i / 8), std::uint8_t(i % 8 + 1)), 1},
        core::ProcessEndpoint{"d", net::IpAddr(10, 3, 0, 1), 1})));
  }
  std::int64_t t = 0;
  std::size_t next = 0;
  for (auto _ : state) {
    const auto now = sim::TimePoint::from_nanos(++t);
    db.record(ids[next], core::Metric::kThroughput,
              core::MetricValue::of(1e6, now));
    if (++next == ids.size()) next = 0;
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["evictions"] =
      static_cast<double>(db.tiered().evictions());
}
BENCHMARK(BM_TieredIngest);

// Time-range query against a prefilled 100k-sample series at 1 ms cadence.
// The resolution argument (ms) picks the serving tier: 0 forces raw tier 0
// (~100k points stitched), 8 the first rollup, 64 the coarsest tier.
void BM_RangeQuery(benchmark::State& state) {
  core::TieredStorageConfig config;
  config.page_points = 64;
  config.rollup_factor = 8;
  config.tiers = 3;
  config.max_pages = 4096;  // retains the full series: query cost only
  core::MeasurementDatabase db(/*history_depth=*/2, config);
  const core::PathId id = db.id_of(core::Path(
      core::ProcessEndpoint{"s", net::IpAddr(10, 4, 0, 1), 1},
      core::ProcessEndpoint{"d", net::IpAddr(10, 4, 0, 2), 1}));
  constexpr std::int64_t kStep = 1'000'000;  // 1 ms
  constexpr std::int64_t kSamples = 100'000;
  for (std::int64_t i = 1; i <= kSamples; ++i) {
    db.record(id, core::Metric::kOneWayLatency,
              core::MetricValue::of(0.001, sim::TimePoint::from_nanos(i * kStep)));
  }
  const auto resolution = sim::Duration::ms(state.range(0));
  const auto t0 = sim::TimePoint::from_nanos(0);
  const auto t1 = sim::TimePoint::from_nanos((kSamples + 1) * kStep);
  double points = 0.0;
  for (auto _ : state) {
    auto result = db.query(id, core::Metric::kOneWayLatency, t0, t1,
                           resolution);
    benchmark::DoNotOptimize(result.points.data());
    points = static_cast<double>(result.points.size());
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["points"] = points;
}
BENCHMARK(BM_RangeQuery)->Arg(0)->Arg(8)->Arg(64);

// Control-plane rule evaluation on the tuple hot path (DESIGN.md §12).
// Arg(0): liveness bookkeeping only. Arg(1): priority boost enabled, so
// every latency tuple additionally feeds the per-path P² p90 sketch and
// runs the volatility drift check. No manager is attached, so evaluation
// cost is isolated from actuation cost.
void BM_ControlPolicyEvaluate(benchmark::State& state) {
  const bool with_drift = state.range(0) != 0;
  sim::Simulator sim;
  net::Network network(sim, util::Rng(3));
  ctrl::ControlConfig config;
  config.enabled = true;
  config.route_failover = false;
  config.probe_retuning = false;
  config.priority_boost = with_drift;
  ctrl::ControlPlane plane(sim, network, config);

  const auto paths = sample_paths();
  std::vector<core::PathMetricTuple> tuples;
  std::int64_t t = 0;
  for (const core::Path& p : paths) {
    core::PathMetricTuple tuple;
    tuple.path = p;
    tuple.metric = core::Metric::kOneWayLatency;
    // Mild jitter: exercises the sketch without tripping the drift rule
    // on every sample.
    const std::int64_t seq = ++t;
    tuple.value = core::MetricValue::of(0.001 + 0.0001 * (seq % 7),
                                        sim::TimePoint::from_nanos(seq));
    tuples.push_back(tuple);
  }

  for (auto _ : state) {
    for (const auto& tuple : tuples) {
      plane.observe_tuple("bench", tuple);
    }
    benchmark::DoNotOptimize(plane.stats().tuples_seen);
  }
  state.SetItemsProcessed(state.iterations() * tuples.size());
}
BENCHMARK(BM_ControlPolicyEvaluate)->Arg(0)->Arg(1);

void BM_SimulatedUdpRoundTrip(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator sim;
    net::Network network(sim, util::Rng(1));
    auto& a = network.add_host("a");
    auto& b = network.add_host("b");
    network.connect(a, net::IpAddr(10, 0, 0, 1), b, net::IpAddr(10, 0, 0, 2),
                    24, 100e6, sim::Duration::us(10));
    network.auto_route();
    int received = 0;
    auto* reply_to = &a.udp().bind(7001, [&](const net::Packet&) { ++received; });
    (void)reply_to;
    auto& echo = b.udp().bind(7000, nullptr);
    b.udp().bind(7002, nullptr);
    auto& sock = a.udp().bind(0, nullptr);
    echo.set_handler([&](const net::Packet& p) {
      echo.send_to(p.src, 7001, p.payload_bytes, nullptr, p.traffic_class);
    });
    for (int i = 0; i < 100; ++i) {
      sock.send_to(net::IpAddr(10, 0, 0, 2), 7000, 256, nullptr,
                   net::TrafficClass::kOther);
    }
    sim.run();
    benchmark::DoNotOptimize(received);
  }
  state.SetItemsProcessed(state.iterations() * 100);
}
BENCHMARK(BM_SimulatedUdpRoundTrip);

// A steady UDP stream a -> switch -> b: each iteration sends a burst of 64
// datagrams and runs until all are delivered, so every frame crosses two
// links and one switch (queueing, serialization, forwarding delay). The
// topology is built and warmed once, outside the timed loop.
void BM_LinkFrameForward(benchmark::State& state) {
  constexpr int kBurst = 64;
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
  auto burst = [&] {
    for (int i = 0; i < kBurst; ++i) {
      tx.send_to(b_ip, 7000, 512, nullptr, net::TrafficClass::kApplication);
    }
    sim.run();
  };
  burst();
  for (auto _ : state) burst();
  benchmark::DoNotOptimize(received);
  state.SetItemsProcessed(state.iterations() * kBurst);
}
BENCHMARK(BM_LinkFrameForward);

// A sensor that answers every reachability request at once, taking the
// network out of the per-sample pipeline.
class InstantReachSensor : public core::NetworkSensor {
 public:
  explicit InstantReachSensor(sim::Simulator& sim) : sim_(sim) {}
  std::string name() const override { return "instant"; }
  bool supports(core::Metric m) const override {
    return m == core::Metric::kReachability;
  }
  void measure(const core::Path&, core::Metric, Done done) override {
    done(core::MetricValue::of(1.0, sim_.now()));
  }

 private:
  sim::Simulator& sim_;
};

// One sample's round trip through the per-sample pipeline on the paper's
// 9x3 matrix: the serial sequencer admits the probe, the sensor answers,
// the director records it in the database and reports the tuple, and the
// resource manager judges it. The manager drives the director in
// continuous mode, so one simulator event runs a whole 27-sample round.
void BM_DirectorSampleRoundTrip(benchmark::State& state) {
  sim::Simulator sim;
  core::SensorDirector director(sim, 1);
  InstantReachSensor sensor(sim);
  director.register_sensor(core::Metric::kReachability, &sensor);
  mgr::ResourceManager::Config cfg;
  cfg.metrics = {core::Metric::kReachability};
  cfg.strikes = 2;
  mgr::ResourceManager manager(director, cfg);
  mgr::ManagedApplication app;
  app.name = "rtds";
  for (std::uint8_t s = 1; s <= 3; ++s) {
    app.server_pool.push_back(net::IpAddr(10, 0, 0, s));
  }
  for (std::uint8_t c = 1; c <= 9; ++c) {
    app.client_pool.push_back(net::IpAddr(10, 0, 1, c));
  }
  app.port = 7;
  manager.manage(app, app.server_pool[0]);
  sim.run(64);  // warm: pools, database series and pages
  const std::uint64_t tuples0 = manager.tuples_consumed();
  for (auto _ : state) sim.run(1);
  state.SetItemsProcessed(
      static_cast<std::int64_t>(manager.tuples_consumed() - tuples0));
}
BENCHMARK(BM_DirectorSampleRoundTrip);

}  // namespace

BENCHMARK_MAIN();
