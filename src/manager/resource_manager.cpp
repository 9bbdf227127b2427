#include "manager/resource_manager.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "util/logging.hpp"

namespace netmon::mgr {

ResourceManager::ResourceManager(core::SensorDirector& director, Config config)
    : director_(director), config_(std::move(config)) {
  if (config_.strikes < 1) {
    throw std::invalid_argument("ResourceManager: strikes must be >= 1");
  }
  if (config_.trend.window.nanos() > 0 &&
      (config_.trend.quantile <= 0.5 || config_.trend.quantile >= 1.0 ||
       config_.trend.min_samples < 1)) {
    throw std::invalid_argument(
        "ResourceManager: trend quantile must be in (0.5, 1) and "
        "min_samples >= 1");
  }
  if (config_.senescence_bound.nanos() > 0 &&
      config_.senescence_check_period.nanos() <= 0) {
    throw std::invalid_argument(
        "ResourceManager: senescence_check_period must be > 0 when the "
        "bound is enabled");
  }
}

ResourceManager::~ResourceManager() { senescence_timer_.cancel(); }

void ResourceManager::senescence_scan() {
  const sim::TimePoint now = director_.simulator().now();
  const core::MeasurementDatabase& db = director_.database();
  for (auto& [name, state] : apps_) {
    bool struck = false;
    for (net::IpAddr client : state.app.client_pool) {
      const core::Path path(
          core::ProcessEndpoint{state.app.name + "-server", state.active,
                                state.app.port},
          core::ProcessEndpoint{state.app.name + "-client", client,
                                state.app.port});
      for (core::Metric metric : config_.metrics) {
        const auto age = db.senescence(path, metric, now);
        if (age && *age > config_.senescence_bound) {
          const std::size_t cell =
              state.active_index * state.clients.size() +
              state.client_index.at(client);
          set_cell(state, cell, state.cells[cell].strikes + 1, true);
          ++senescence_strikes_;
          struck = true;
          break;  // one strike per path per sweep, oldest metric wins
        }
      }
    }
    if (struck) maybe_reconfigure(state);
  }
}

void ResourceManager::remove_reconfiguration_listener(ListenerHandle handle) {
  for (auto it = reconfig_listeners_.begin(); it != reconfig_listeners_.end();
       ++it) {
    if (it->first == handle) {
      reconfig_listeners_.erase(it);
      return;
    }
  }
}

core::MonitorRequest ResourceManager::build_request(
    const ManagedApplication& app) const {
  core::MonitorRequest request;
  for (net::IpAddr server : app.server_pool) {
    for (net::IpAddr client : app.client_pool) {
      core::PathRequest pr;
      pr.path = core::Path(
          core::ProcessEndpoint{app.name + "-server", server, app.port},
          core::ProcessEndpoint{app.name + "-client", client, app.port});
      pr.metrics = config_.metrics;
      request.paths.push_back(std::move(pr));
    }
  }
  request.mode = config_.mode;
  request.period = config_.period;
  request.reporting = core::MonitorRequest::Reporting::kAsynchronous;
  return request;
}

void ResourceManager::manage(ManagedApplication app,
                             net::IpAddr initial_server) {
  if (std::find(app.server_pool.begin(), app.server_pool.end(),
                initial_server) == app.server_pool.end()) {
    throw std::invalid_argument(
        "ResourceManager::manage: initial server not in pool");
  }
  // The <= 0 sentinels disable individual checks; all of them disabled at
  // once means no sample could ever strike — reject the misconfiguration
  // instead of monitoring a matrix that can never trigger anything.
  const Requirements& req = app.requirements;
  if (!req.require_reachability && req.min_throughput_bps <= 0.0 &&
      req.max_latency_s <= 0.0) {
    throw std::invalid_argument("ResourceManager::manage: every requirement "
                                "of " +
                                app.name + " is disabled");
  }
  const std::string name = app.name;
  AppState state;
  state.app = std::move(app);
  state.active = initial_server;
  for (net::IpAddr server : state.app.server_pool) {
    if (state.server_index.emplace(server, state.servers.size()).second) {
      state.servers.push_back(server);
    }
  }
  for (net::IpAddr client : state.app.client_pool) {
    auto [cit, fresh] =
        state.client_index.emplace(client, state.clients.size());
    if (fresh) {
      state.clients.push_back(client);
      state.client_weight.push_back(0);
    }
    ++state.client_weight[cit->second];
  }
  state.active_index = state.server_index.at(initial_server);
  state.cells.assign(state.servers.size() * state.clients.size(), {});
  state.failing.assign(state.servers.size(), 0);
  auto [it, inserted] = apps_.emplace(name, std::move(state));
  if (!inserted) {
    throw std::logic_error("ResourceManager: already managing " + name);
  }
  // Map nodes are stable, and stop() cancels the request before erasing
  // the state, so the callback may hold the state directly.
  AppState* managed = &it->second;
  managed->request = director_.submit(
      build_request(managed->app),
      [this, name, managed](const core::PathMetricTuple& tuple) {
        on_tuple(name, *managed, tuple);
      });
  if (config_.senescence_bound.nanos() > 0 && !senescence_timer_.pending()) {
    senescence_timer_ = director_.simulator().schedule_periodic(
        config_.senescence_check_period, [this] { senescence_scan(); });
  }
}

void ResourceManager::stop(const std::string& application) {
  auto it = apps_.find(application);
  if (it == apps_.end()) return;
  director_.cancel(it->second.request);
  apps_.erase(it);
}

net::IpAddr ResourceManager::active_server(
    const std::string& application) const {
  auto it = apps_.find(application);
  if (it == apps_.end()) {
    throw std::out_of_range("ResourceManager: unknown application " +
                            application);
  }
  return it->second.active;
}

bool ResourceManager::tuple_is_bad(const Requirements& req,
                                   const core::PathMetricTuple& tuple) const {
  if (!tuple.value.valid) return true;  // the measurement itself failed
  switch (tuple.metric) {
    case core::Metric::kReachability:
      return req.require_reachability && tuple.value.value < 0.5;
    case core::Metric::kThroughput:
      return req.min_throughput_bps > 0.0 &&
             tuple.value.value < req.min_throughput_bps;
    case core::Metric::kOneWayLatency:
      return req.max_latency_s > 0.0 && tuple.value.value > req.max_latency_s;
  }
  return false;
}

std::optional<double> ResourceManager::windowed_quantile(
    const core::MeasurementDatabase& db, const core::Path& path,
    core::Metric metric, sim::TimePoint now, sim::Duration window, double q,
    bool upper, std::uint64_t* valid_samples) {
  if (valid_samples != nullptr) *valid_samples = 0;
  const sim::TimePoint t0 =
      window.nanos() >= now.nanos() ? sim::TimePoint() : now - window;
  const core::TierQueryResult result =
      db.query(path, metric, t0, now, sim::Duration::ns(0));
  // Each point stands in for valid_count raw samples at its min or max —
  // the tail-conservative representative for the side being judged.
  struct Entry {
    double value;
    std::uint64_t weight;
  };
  std::vector<Entry> entries;
  entries.reserve(result.points.size());
  std::uint64_t total = 0;
  for (const core::QueryPoint& p : result.points) {
    if (p.valid_count == 0) continue;
    entries.push_back(Entry{upper ? p.max : p.min, p.valid_count});
    total += p.valid_count;
  }
  if (valid_samples != nullptr) *valid_samples = total;
  if (total == 0) return std::nullopt;
  std::sort(entries.begin(), entries.end(),
            [](const Entry& a, const Entry& b) { return a.value < b.value; });
  // Ascending rank ceil(q·N) for the upper tail; the mirrored N-ceil(q·N)+1
  // for the lower tail (both leave the same number of samples beyond them).
  const auto rank_up = static_cast<std::uint64_t>(
      std::ceil(q * static_cast<double>(total)));
  const std::uint64_t rank =
      upper ? std::max<std::uint64_t>(rank_up, 1)
            : std::max<std::uint64_t>(total - rank_up + 1, 1);
  std::uint64_t cumulative = 0;
  for (const Entry& e : entries) {
    cumulative += e.weight;
    if (cumulative >= rank) return e.value;
  }
  return entries.back().value;
}

bool ResourceManager::trend_verdict(const Requirements& req,
                                    const core::PathMetricTuple& tuple,
                                    bool last_sample_bad) {
  if (config_.trend.window.nanos() <= 0) return last_sample_bad;
  bool upper;
  double threshold;
  if (tuple.metric == core::Metric::kOneWayLatency && req.max_latency_s > 0.0) {
    upper = true;
    threshold = req.max_latency_s;
  } else if (tuple.metric == core::Metric::kThroughput &&
             req.min_throughput_bps > 0.0) {
    upper = false;
    threshold = req.min_throughput_bps;
  } else {
    return last_sample_bad;
  }
  std::uint64_t n = 0;
  const std::optional<double> tail = windowed_quantile(
      director_.database(), tuple.path, tuple.metric, tuple.value.measured_at,
      config_.trend.window, config_.trend.quantile, upper, &n);
  if (!tail || n < static_cast<std::uint64_t>(config_.trend.min_samples)) {
    return last_sample_bad;  // not enough history to trust the tail yet
  }
  const bool bad = upper ? *tail > threshold : *tail < threshold;
  if (bad != last_sample_bad) ++trend_overrides_;
  return bad;
}

void ResourceManager::on_tuple(const std::string& app_name, AppState& state,
                               const core::PathMetricTuple& tuple) {
  ++tuples_consumed_;

  const core::SampleQuality quality = tuple.value.quality;
  if (quality != core::SampleQuality::kFresh) ++degraded_tuples_;
  if (quality == core::SampleQuality::kStale) ++stale_tuples_;
  // A stale tuple is old data re-reported because the monitor could not
  // measure the path at all — weigh it as evidence of failure, never as a
  // passing sample.
  const bool stale_bad =
      config_.stale_is_bad && quality == core::SampleQuality::kStale;

  bool bad = stale_bad || tuple_is_bad(state.app.requirements, tuple);
  // A valid performance sample may be re-judged by the window's tail
  // quantile; liveness evidence (reachability, failed or stale samples)
  // is never smoothed.
  if (!stale_bad && tuple.value.valid) {
    bad = trend_verdict(state.app.requirements, tuple, bad);
  }
  if (const std::optional<std::size_t> cell = cell_of(state, tuple)) {
    int strikes = state.cells[*cell].strikes;
    if (bad) {
      ++strikes;
    } else if (tuple.metric == core::Metric::kReachability ||
               tuple.metric == core::Metric::kThroughput) {
      // Any passing liveness-bearing sample clears the path's strikes.
      strikes = 0;
    }
    set_cell(state, *cell, strikes, true);
  }
  maybe_reconfigure(state);
  if (tuple_observer_) tuple_observer_(app_name, tuple);
}

std::optional<std::size_t> ResourceManager::cell_of(
    AppState& state, const core::PathMetricTuple& tuple) const {
  const core::PathId id = tuple.path_id;
  if (id < state.cell_of_path.size() && state.cell_of_path[id] != 0) {
    return state.cell_of_path[id] - 1;
  }
  auto server = state.server_index.find(tuple.path.source().host);
  auto client = state.client_index.find(tuple.path.destination().host);
  if (server == state.server_index.end() ||
      client == state.client_index.end()) {
    return std::nullopt;
  }
  const std::size_t cell = server->second * state.clients.size() +
                           client->second;
  if (id != core::kInvalidPathId) {
    if (id >= state.cell_of_path.size()) state.cell_of_path.resize(id + 1, 0);
    state.cell_of_path[id] = cell + 1;
  }
  return cell;
}

void ResourceManager::set_cell(AppState& state, std::size_t cell, int strikes,
                               bool held) const {
  StrikeCell& c = state.cells[cell];
  const bool was_failing = c.held && c.strikes >= config_.strikes;
  const bool failing = held && strikes >= config_.strikes;
  if (held != c.held) {
    if (held) {
      ++state.held_cells;
    } else {
      --state.held_cells;
    }
  }
  c.strikes = strikes;
  c.held = held;
  if (failing != was_failing) {
    const std::size_t server = cell / state.clients.size();
    const std::size_t weight =
        state.client_weight[cell % state.clients.size()];
    if (failing) {
      state.failing[server] += weight;
    } else {
      state.failing[server] -= weight;
    }
  }
}

int ResourceManager::path_strikes(const std::string& application,
                                  net::IpAddr server,
                                  net::IpAddr client) const {
  auto it = apps_.find(application);
  if (it == apps_.end()) return 0;
  const AppState& state = it->second;
  auto s = state.server_index.find(server);
  auto c = state.client_index.find(client);
  if (s == state.server_index.end() || c == state.client_index.end()) return 0;
  return state.cells[s->second * state.clients.size() + c->second].strikes;
}

std::size_t ResourceManager::strike_entries() const {
  std::size_t total = 0;
  for (const auto& [name, state] : apps_) total += state.held_cells;
  return total;
}

const ManagedApplication* ResourceManager::application(
    const std::string& name) const {
  auto it = apps_.find(name);
  return it == apps_.end() ? nullptr : &it->second.app;
}

std::vector<std::string> ResourceManager::applications() const {
  std::vector<std::string> names;
  names.reserve(apps_.size());
  for (const auto& [name, state] : apps_) names.push_back(name);
  return names;
}

core::SensorDirector::RequestId ResourceManager::request_id(
    const std::string& application) const {
  auto it = apps_.find(application);
  return it == apps_.end() ? 0 : it->second.request;
}

double ResourceManager::failing_fraction(const std::string& application,
                                         net::IpAddr server) const {
  auto it = apps_.find(application);
  if (it == apps_.end()) return 0.0;
  const AppState& state = it->second;
  auto s = state.server_index.find(server);
  if (s == state.server_index.end()) return 0.0;
  return failing_fraction(state, s->second);
}

double ResourceManager::failing_fraction(const AppState& state,
                                         std::size_t server) const {
  if (state.app.client_pool.empty()) return 0.0;
  return static_cast<double>(state.failing[server]) /
         static_cast<double>(state.app.client_pool.size());
}

std::optional<std::size_t> ResourceManager::pick_replacement(
    const AppState& state) const {
  // Choose the pool member with the lowest failing fraction; ties go to
  // pool order. The active (failed) server is excluded.
  std::optional<std::size_t> best;
  double best_fraction = 2.0;
  for (net::IpAddr candidate : state.app.server_pool) {
    if (candidate == state.active) continue;
    const std::size_t index = state.server_index.at(candidate);
    const double fraction = failing_fraction(state, index);
    if (fraction < best_fraction) {
      best_fraction = fraction;
      best = index;
    }
  }
  return best;
}

void ResourceManager::maybe_reconfigure(AppState& state) {
  const double fraction = failing_fraction(state, state.active_index);
  if (fraction < config_.failure_fraction) return;

  auto replacement = pick_replacement(state);
  if (!replacement) {
    NETMON_WARN("mgr", state.app.name,
                ": active server degraded but no replacement available");
    return;
  }
  // A replacement that looks no healthier than the server we would leave is
  // not a reconfiguration, it is thrashing: under a monitor-wide outage
  // (every path striking) the pool members ping-pong forever. Hold position
  // until some member is observably better.
  if (failing_fraction(state, *replacement) >= fraction) {
    NETMON_WARN("mgr", state.app.name,
                ": active server degraded but no healthier replacement; "
                "holding position");
    return;
  }
  const net::IpAddr old_server = state.active;
  const std::size_t old_index = state.active_index;
  state.active = state.servers[*replacement];
  state.active_index = *replacement;
  ++reconfigurations_;
  // Release the server we are leaving: its standing restarts from zero if
  // it ever becomes a candidate again. The new server gets a clean slate
  // so a stale strike doesn't bounce us.
  const std::size_t clients = state.clients.size();
  for (std::size_t c = 0; c < clients; ++c) {
    set_cell(state, old_index * clients + c, 0, false);
    set_cell(state, state.active_index * clients + c, 0, true);
  }
  NETMON_INFO("mgr", state.app.name, ": reconfiguring ",
              old_server.to_string(), " -> ", state.active.to_string(),
              " (failing fraction ", fraction, ")");
  const ReconfigurationEvent event{state.app.name, old_server, state.active,
                                   director_.simulator().now(),
                                   "failing fraction " +
                                       std::to_string(fraction)};
  if (on_reconfig_) on_reconfig_(event);
  // Dispatch by handle snapshot: a listener may unregister itself (or any
  // other listener) during the callback without invalidating this loop.
  std::vector<ListenerHandle> snapshot;
  snapshot.reserve(reconfig_listeners_.size());
  for (const auto& [handle, listener] : reconfig_listeners_) {
    snapshot.push_back(handle);
  }
  for (const ListenerHandle handle : snapshot) {
    for (const auto& [h, listener] : reconfig_listeners_) {
      if (h == handle) {
        listener(event);
        break;
      }
    }
  }
}

}  // namespace netmon::mgr
