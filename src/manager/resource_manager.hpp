#pragma once

// Resource manager (paper §1, Figure 1): consumes (path, metric) tuples
// from a network resource monitor and reconfigures the system from its
// replicated pools when critical components fail or resources fall below
// requirements. Mirrors the HiPer-D RTDS arrangement (§5.1): a pool of S
// servers and C clients, with the full S×C path matrix monitored.

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/sensor_director.hpp"

namespace netmon::mgr {

struct Requirements {
  // <= 0 disables a check.
  double min_throughput_bps = 0.0;
  double max_latency_s = 0.0;
  bool require_reachability = true;
};

struct ManagedApplication {
  std::string name;
  std::vector<net::IpAddr> server_pool;
  std::vector<net::IpAddr> client_pool;
  std::uint16_t port = 0;
  Requirements requirements;
};

struct ReconfigurationEvent {
  std::string application;
  net::IpAddr old_server;
  net::IpAddr new_server;
  sim::TimePoint at;
  std::string reason;
};

class ResourceManager {
 public:
  struct Config {
    // How the monitor is driven.
    core::MonitorRequest::Mode mode = core::MonitorRequest::Mode::kContinuous;
    sim::Duration period = sim::Duration::sec(2);
    std::vector<core::Metric> metrics = {core::Metric::kReachability,
                                         core::Metric::kThroughput};
    // A path is failed after this many consecutive bad samples.
    int strikes = 2;
    // The active server is failed when at least this fraction of its
    // client paths are failed.
    double failure_fraction = 0.5;
    // Quality weighing (DESIGN.md §9): a SampleQuality::kStale tuple is a
    // re-report of old data after the sensor chain was exhausted — by
    // default it strikes the path like a failed sample instead of clearing
    // strikes like the good sample it superficially resembles.
    bool stale_is_bad = true;

    // Trend-based breaker verdicts (DESIGN.md §13): judge throughput and
    // latency tuples by a tail quantile over a range query of the tiered
    // store instead of the last sample alone, so a single spike in an
    // otherwise healthy window cannot strike the path — and a sustained
    // shift strikes even when individual samples wobble around the
    // threshold. Reachability, invalid, and stale samples always keep
    // last-sample semantics (liveness must not be smoothed away).
    struct TrendConfig {
      // Query window ending at the tuple's timestamp; zero disables trend
      // evaluation entirely (classic last-sample strikes).
      sim::Duration window = sim::Duration::sec(0);
      // Valid raw samples the window must hold before the quantile is
      // trusted; fewer falls back to the last-sample verdict. 100 is the
      // floor at which p99 excludes exactly one outlier.
      int min_samples = 100;
      // Tail fraction: latency uses the upper q-quantile (p99 high is bad),
      // throughput the mirrored lower tail (p01 low is bad).
      double quantile = 0.99;
    };
    TrendConfig trend;

    // Senescence watchdog (DESIGN.md §14): with a positive bound, the
    // manager periodically sweeps the active server's client paths and
    // strikes any whose newest database sample — however it arrived,
    // locally sensed or federated from a zone monitor — is older than the
    // bound. A silent zone therefore degrades into failover pressure
    // instead of being trusted forever. Zero (the default) disables the
    // sweep entirely: no timer is scheduled, event order is unchanged.
    sim::Duration senescence_bound = sim::Duration::sec(0);
    sim::Duration senescence_check_period = sim::Duration::sec(1);
  };

  using ReconfigCallback = std::function<void(const ReconfigurationEvent&)>;
  // Observes every tuple *after* strike accounting and reconfiguration
  // evaluation — the control plane's sensor→trigger feed (DESIGN.md §12).
  using TupleObserver =
      std::function<void(const std::string& application,
                         const core::PathMetricTuple& tuple)>;

  ResourceManager(core::SensorDirector& director, Config config);
  ~ResourceManager();

  // Starts monitoring the full server×client path matrix and managing the
  // active server. `initial_server` must be in the pool. Throws
  // std::invalid_argument when every requirement is disabled (<= 0
  // sentinels and require_reachability false): such a matrix could never
  // strike, so "managing" it would silently monitor without ever acting.
  void manage(ManagedApplication app, net::IpAddr initial_server);
  void stop(const std::string& application);

  net::IpAddr active_server(const std::string& application) const;
  void set_reconfiguration_callback(ReconfigCallback cb) {
    on_reconfig_ = std::move(cb);
  }
  // Additional reconfiguration listeners (the user callback slot above stays
  // independent); listeners fire after it, in registration order. The
  // returned handle unregisters — anything shorter-lived than the manager
  // (e.g. a control plane) must remove itself before its captures die.
  using ListenerHandle = std::uint64_t;
  ListenerHandle add_reconfiguration_listener(ReconfigCallback cb) {
    const ListenerHandle handle = next_listener_++;
    reconfig_listeners_.emplace_back(handle, std::move(cb));
    return handle;
  }
  // Safe on unknown handles and from inside a listener dispatch (the
  // removed listener simply stops firing).
  void remove_reconfiguration_listener(ListenerHandle handle);
  void set_tuple_observer(TupleObserver observer) {
    tuple_observer_ = std::move(observer);
  }

  // Failing-path fraction for a server of an application (diagnostics).
  double failing_fraction(const std::string& application,
                          net::IpAddr server) const;
  // Current consecutive-bad-sample count for one (server, client) path of an
  // application; 0 when unknown.
  int path_strikes(const std::string& application, net::IpAddr server,
                   net::IpAddr client) const;
  // Total (server, client) strike entries held across all applications.
  // Bounded: pool_size × client_count per app while managed, 0 after stop.
  std::size_t strike_entries() const;
  const ManagedApplication* application(const std::string& name) const;
  std::vector<std::string> applications() const;
  // The live monitor request driving an application; 0 when unknown.
  core::SensorDirector::RequestId request_id(
      const std::string& application) const;
  core::SensorDirector& director() { return director_; }
  const Config& config() const { return config_; }

  std::uint64_t tuples_consumed() const { return tuples_consumed_; }
  std::uint64_t reconfigurations() const { return reconfigurations_; }
  // Tuples consumed whose quality was degraded (retried/fallback/stale).
  std::uint64_t degraded_tuples() const { return degraded_tuples_; }
  std::uint64_t stale_tuples() const { return stale_tuples_; }
  // Tuples whose trend verdict disagreed with (and overrode) the
  // last-sample verdict — both directions count.
  std::uint64_t trend_overrides() const { return trend_overrides_; }
  // Strikes issued by the senescence watchdog sweep.
  std::uint64_t senescence_strikes() const { return senescence_strikes_; }

  // Weighted tail quantile over a tiered range query: points are weighed by
  // their valid sample count and represented by their max (`upper` true, the
  // latency convention) or min (`upper` false, throughput — evaluated at the
  // mirrored lower rank). Returns nullopt when the window holds no valid
  // samples; `valid_samples` (optional) receives the window's valid count so
  // callers can apply a min-samples floor. Exposed for direct testing.
  static std::optional<double> windowed_quantile(
      const core::MeasurementDatabase& db, const core::Path& path,
      core::Metric metric, sim::TimePoint now, sim::Duration window, double q,
      bool upper, std::uint64_t* valid_samples = nullptr);

 private:
  // Consecutive bad samples of one (server, client) path. A cell is held
  // from the path's first sample (or strike) until its server is left by
  // a reconfiguration; strike_entries() counts held cells.
  struct StrikeCell {
    int strikes = 0;
    bool held = false;
  };
  struct AppState {
    ManagedApplication app;
    net::IpAddr active;
    std::size_t active_index = 0;
    core::SensorDirector::RequestId request = 0;
    // Strikes as a dense grid over the distinct pool members, in pool
    // order: cells[server * clients.size() + client]. Each server's count
    // of failing clients (weighted by how often the client appears in
    // client_pool) is kept current, so a verdict is O(1).
    std::vector<net::IpAddr> servers;
    std::vector<net::IpAddr> clients;
    std::vector<std::size_t> client_weight;
    std::unordered_map<net::IpAddr, std::size_t> server_index;
    std::unordered_map<net::IpAddr, std::size_t> client_index;
    std::vector<StrikeCell> cells;
    std::vector<std::size_t> failing;
    std::size_t held_cells = 0;
    // PathId -> cell index + 1, resolved on the path's first tuple
    // (0: unresolved).
    std::vector<std::size_t> cell_of_path;
  };

  void on_tuple(const std::string& app_name, AppState& state,
                const core::PathMetricTuple& tuple);
  // Grid cell of a tuple's (server, client); nullopt when either end is
  // outside the pools.
  std::optional<std::size_t> cell_of(AppState& state,
                                     const core::PathMetricTuple& tuple) const;
  void set_cell(AppState& state, std::size_t cell, int strikes,
                bool held) const;
  double failing_fraction(const AppState& state, std::size_t server) const;
  bool tuple_is_bad(const Requirements& req,
                    const core::PathMetricTuple& tuple) const;
  bool trend_verdict(const Requirements& req,
                     const core::PathMetricTuple& tuple, bool last_sample_bad);
  void maybe_reconfigure(AppState& state);
  void senescence_scan();
  std::optional<std::size_t> pick_replacement(const AppState& state) const;
  core::MonitorRequest build_request(const ManagedApplication& app) const;

  core::SensorDirector& director_;
  Config config_;
  ReconfigCallback on_reconfig_;
  std::vector<std::pair<ListenerHandle, ReconfigCallback>> reconfig_listeners_;
  ListenerHandle next_listener_ = 1;
  TupleObserver tuple_observer_;
  std::map<std::string, AppState> apps_;
  std::uint64_t tuples_consumed_ = 0;
  std::uint64_t reconfigurations_ = 0;
  std::uint64_t degraded_tuples_ = 0;
  std::uint64_t stale_tuples_ = 0;
  std::uint64_t trend_overrides_ = 0;
  std::uint64_t senescence_strikes_ = 0;
  sim::EventHandle senescence_timer_;
};

}  // namespace netmon::mgr
