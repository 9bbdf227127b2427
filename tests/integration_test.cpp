// End-to-end scenarios spanning every subsystem: the full Figure-1 loop
// (application + monitor + resource manager) and cross-monitor consistency.

#include <gtest/gtest.h>

#include "apps/rtds.hpp"
#include "apps/testbed.hpp"
#include "apps/traffic.hpp"
#include "core/high_fidelity_monitor.hpp"
#include "core/hybrid_monitor.hpp"
#include "core/scalable_monitor.hpp"
#include "manager/resource_manager.hpp"
#include "rmon/probe.hpp"

namespace netmon {
namespace {

using sim::Duration;

// The headline scenario: RTDS runs on server0; server0 dies; the monitor
// notices; the resource manager fails over; clients keep getting tracks.
TEST(Integration, RtdsSurvivesServerFailure) {
  sim::Simulator sim;
  apps::TestbedOptions options;
  options.servers = 3;
  options.clients = 4;
  apps::Testbed bed(sim, options);

  // Application processes on every pool member (only the active one runs).
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

  // Monitor + resource manager.
  core::HighFidelityMonitor::Config mon_cfg;
  mon_cfg.probe.message_count = 4;
  mon_cfg.probe.inter_send = Duration::ms(5);
  mon_cfg.probe.result_timeout = Duration::ms(500);
  core::HighFidelityMonitor monitor(bed.network(), mon_cfg);

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

  // Wire reconfiguration to the application layer: start the replacement
  // server process and repoint every client.
  manager.set_reconfiguration_callback(
      [&](const mgr::ReconfigurationEvent& event) {
        for (int s = 0; s < bed.server_count(); ++s) {
          if (bed.server_ip(s) == event.new_server) {
            servers[s]->start();
          } else {
            servers[s]->stop();
          }
        }
        for (auto& client : clients) client->connect(event.new_server);
      });
  manager.manage(app, bed.server_ip(0));

  sim.run_for(Duration::sec(5));
  const auto tracks_before = clients[0]->tracks_received();
  EXPECT_GT(tracks_before, 100u);

  // Kill the active server host.
  bed.server(0).set_up(false);
  sim.run_for(Duration::sec(60));

  EXPECT_GE(manager.reconfigurations(), 1u);
  EXPECT_NE(manager.active_server("rtds"), bed.server_ip(0));
  // Clients resumed receiving tracks from the new server.
  EXPECT_GT(clients[0]->tracks_received(), tracks_before + 500);
  // The outage was bounded: the longest gap is far below the 60 s window.
  EXPECT_LT(clients[0]->longest_gap().to_seconds(), 30.0);
}

// The database's last-known-value answers outlive a dead sensor target
// (paper §4.1: "enables both current value and last known value reporting").
TEST(Integration, DatabaseServesLastKnownAfterFailure) {
  sim::Simulator sim;
  apps::TestbedOptions options;
  options.servers = 1;
  options.clients = 1;
  apps::Testbed bed(sim, options);
  core::HighFidelityMonitor::Config cfg;
  cfg.probe.message_count = 4;
  cfg.probe.inter_send = Duration::ms(5);
  cfg.probe.result_timeout = Duration::ms(500);
  core::HighFidelityMonitor monitor(bed.network(), cfg);

  core::MonitorRequest request;
  request.paths.push_back(
      core::PathRequest{bed.path(0, 0), {core::Metric::kThroughput}});
  request.mode = core::MonitorRequest::Mode::kContinuous;
  const auto id = monitor.director().submit(request, nullptr);
  sim.run_for(Duration::sec(3));

  auto fresh = monitor.database().current(
      bed.path(0, 0), core::Metric::kThroughput, sim.now(), Duration::sec(2));
  ASSERT_TRUE(fresh);
  const double healthy_value = fresh->value;

  bed.client(0).set_up(false);
  sim.run_for(Duration::sec(10));
  monitor.director().cancel(id);

  // Current value is gone (recent samples failed)...
  EXPECT_FALSE(monitor.database().current(bed.path(0, 0),
                                          core::Metric::kThroughput, sim.now(),
                                          Duration::sec(2)));
  // ...but the last-known value survives.
  auto last = monitor.database().last_known(bed.path(0, 0),
                                            core::Metric::kThroughput);
  ASSERT_TRUE(last);
  EXPECT_DOUBLE_EQ(last->value, healthy_value);
}

// High-fidelity and SNMP monitors must agree on gross reachability, while
// their throughput figures differ (the fidelity gap the paper reports).
TEST(Integration, MonitorsAgreeOnReachabilityDifferOnFidelity) {
  sim::Simulator sim;
  apps::TestbedOptions options;
  options.servers = 1;
  options.clients = 2;
  apps::Testbed bed(sim, options);

  // A low-rate probe stream (0.27 Mb/s offered) next to heavy unrelated
  // cross-traffic from the same interface: the counter-based estimate
  // cannot separate the two (the paper's core fidelity objection).
  core::HighFidelityMonitor::Config hf_cfg;
  hf_cfg.probe.message_length = 1024;
  hf_cfg.probe.message_count = 16;
  hf_cfg.probe.inter_send = Duration::ms(30);
  core::HighFidelityMonitor hf(bed.network(), hf_cfg);
  core::ScalableMonitor snmp_mon(bed.network(), bed.station());

  apps::TrafficSink sink(bed.client(1));
  apps::CbrTraffic::Config cross;
  cross.rate_bps = 6e6;
  cross.packet_bytes = 1024;
  apps::CbrTraffic cbr(bed.server(0), bed.client_ip(1), cross);
  cbr.start();

  core::MonitorRequest request;
  request.paths.push_back(core::PathRequest{
      bed.path(0, 0), {core::Metric::kThroughput, core::Metric::kReachability}});

  std::map<core::Metric, double> hf_values, snmp_values;
  hf.director().submit(request, [&](const core::PathMetricTuple& t) {
    if (t.value.valid) hf_values[t.metric] = t.value.value;
  });
  snmp_mon.director().submit(request, [&](const core::PathMetricTuple& t) {
    if (t.value.valid) snmp_values[t.metric] = t.value.value;
  });
  sim.run_for(Duration::sec(10));
  cbr.stop();

  ASSERT_TRUE(hf_values.count(core::Metric::kReachability));
  ASSERT_TRUE(snmp_values.count(core::Metric::kReachability));
  EXPECT_DOUBLE_EQ(hf_values[core::Metric::kReachability], 1.0);
  EXPECT_DOUBLE_EQ(snmp_values[core::Metric::kReachability], 1.0);

  ASSERT_TRUE(hf_values.count(core::Metric::kThroughput));
  ASSERT_TRUE(snmp_values.count(core::Metric::kThroughput));
  // SNMP sees the whole interface (probe + 6 Mb/s cross-traffic); the
  // probe sees only its own ~0.3 Mb/s stream: the estimates must diverge.
  EXPECT_GT(snmp_values[core::Metric::kThroughput],
            hf_values[core::Metric::kThroughput] * 3.0);
}

// Monitoring traffic is visible and bounded in the per-class accounting —
// the intrusiveness criterion is directly measurable.
TEST(Integration, IntrusivenessAccountedByClass) {
  sim::Simulator sim;
  apps::TestbedOptions options;
  options.servers = 2;
  options.clients = 2;
  apps::Testbed bed(sim, options);
  core::HighFidelityMonitor::Config cfg;
  cfg.probe.message_count = 8;
  cfg.probe.inter_send = Duration::ms(10);
  core::HighFidelityMonitor monitor(bed.network(), cfg);

  core::MonitorRequest request;
  request.paths = bed.full_matrix({core::Metric::kThroughput});
  monitor.director().submit(request, nullptr);
  sim.run_for(Duration::sec(20));

  const auto totals = bed.network().octets_by_class();
  const auto monitoring =
      totals[static_cast<std::size_t>(net::TrafficClass::kMonitoring)];
  EXPECT_GT(monitoring, 0u);
  // Sensor-side accounting should roughly match the wire (probe payload
  // travels one switch hop -> counted twice: host link + switch port).
  EXPECT_GT(monitor.sensor().probe_bytes_on_wire(), 0u);
  EXPECT_EQ(totals[static_cast<std::size_t>(net::TrafficClass::kApplication)],
            0u);
}

// RMON alarm -> trap -> hybrid escalation -> NTTCP probe, end to end on a
// shared segment.
TEST(Integration, HybridReactsToRmonAlarm) {
  sim::Simulator sim;
  apps::SharedLanOptions options;
  options.hosts = 4;
  apps::SharedLanTestbed bed(sim, options);
  rmon::Probe probe(bed.probe_host(), bed.segment());

  core::HybridMonitor::Config cfg;
  cfg.probe.message_count = 4;
  cfg.probe.inter_send = Duration::ms(5);
  cfg.background_period = Duration::sec(30);  // background mostly idle
  core::HybridMonitor monitor(bed.network(), bed.station(), cfg);
  monitor.arm_utilization_alarm(probe, 0.3, 0.05, Duration::ms(500));

  core::Path path(
      core::ProcessEndpoint{"app", bed.host_ip(0), 0},
      core::ProcessEndpoint{"app", bed.host_ip(1), 0});
  std::vector<core::PathMetricTuple> tuples;
  monitor.start({core::PathRequest{path, {core::Metric::kReachability}}},
                [&](const core::PathMetricTuple& t) { tuples.push_back(t); });

  sim.run_for(Duration::sec(2));
  const auto targeted_before = monitor.targeted_measurements();

  // Saturate the segment: alarm crosses, trap fires, hybrid escalates.
  bed.host(3).udp().bind(7009, nullptr);
  apps::CbrTraffic::Config cross;
  cross.rate_bps = 6e6;
  cross.packet_bytes = 1000;
  cross.dst_port = 7009;
  apps::CbrTraffic cbr(bed.host(2), bed.host_ip(3), cross);
  cbr.start();
  sim.run_for(Duration::sec(5));
  cbr.stop();

  EXPECT_GT(monitor.escalations(), 0u);
  EXPECT_GT(monitor.targeted_measurements(), targeted_before);
}

// Whole-system determinism: the same seed reproduces a full scenario —
// application, monitor, SNMP, RMON, failure injection — event for event.
TEST(Integration, SameSeedReproducesWholeSystemRun) {
  struct Fingerprint {
    std::uint64_t tracks;
    std::uint64_t monitoring_octets;
    std::uint64_t management_octets;
    std::uint64_t rmon_packets;
    std::uint64_t collisions;
    std::uint64_t tuples;
    std::uint64_t events;
    bool operator==(const Fingerprint&) const = default;
  };
  auto run_once = [](std::uint64_t seed) {
    sim::Simulator sim;
    apps::SharedLanOptions options;
    options.hosts = 4;
    options.seed = seed;
    apps::SharedLanTestbed bed(sim, options);
    rmon::Probe probe(bed.probe_host(), bed.segment());

    apps::RtdsServer server(bed.host(0), apps::RtdsServer::Config{});
    apps::RtdsClient client(bed.host(1), apps::RtdsClient::Config{});
    server.start();
    client.connect(bed.host_ip(0));

    apps::OnOffTraffic::Config cross;
    cross.rate_bps = 4e6;
    apps::OnOffTraffic onoff(bed.host(2), bed.host_ip(3), cross,
                             util::Rng(seed ^ 0x5EED));
    bed.host(3).udp().bind(apps::kTrafficSinkPort, nullptr);
    onoff.start();

    core::ScalableMonitor monitor(bed.network(), bed.station());
    core::MonitorRequest request;
    request.paths.push_back(core::PathRequest{
        core::Path(core::ProcessEndpoint{"rtds", bed.host_ip(0), 0},
                   core::ProcessEndpoint{"rtds", bed.host_ip(1), 0}),
        {core::Metric::kReachability, core::Metric::kThroughput}});
    request.mode = core::MonitorRequest::Mode::kPeriodic;
    request.period = sim::Duration::sec(1);
    std::uint64_t tuples = 0;
    monitor.director().submit(request,
                              [&](const core::PathMetricTuple&) { ++tuples; });

    sim.schedule_in(sim::Duration::sec(5), [&] { bed.host(1).set_up(false); });
    sim.schedule_in(sim::Duration::sec(8), [&] { bed.host(1).set_up(true); });
    sim.run_for(sim::Duration::sec(12));

    const auto by_class = bed.network().octets_by_class();
    return Fingerprint{
        client.tracks_received(),
        by_class[static_cast<std::size_t>(net::TrafficClass::kMonitoring)],
        by_class[static_cast<std::size_t>(net::TrafficClass::kManagement)],
        probe.ether_stats().packets,
        bed.segment().stats().collisions,
        tuples,
        sim.events_executed()};
  };
  const auto a = run_once(12345);
  const auto b = run_once(12345);
  EXPECT_EQ(a, b);
  // And a different seed genuinely changes the run.
  const auto c = run_once(54321);
  EXPECT_NE(a.events, c.events);
}

}  // namespace
}  // namespace netmon
