#include "core/sensor_director.hpp"

#include <algorithm>
#include <stdexcept>

#include "util/backoff.hpp"
#include "util/logging.hpp"

namespace netmon::core {

const char* to_string(BreakerState state) {
  switch (state) {
    case BreakerState::kClosed: return "closed";
    case BreakerState::kOpen: return "open";
    case BreakerState::kHalfOpen: return "half-open";
  }
  return "?";
}

SensorDirector::SensorDirector(sim::Simulator& sim, std::size_t max_concurrent)
    : SensorDirector(sim, max_concurrent, SupervisionConfig{}) {}

SensorDirector::SensorDirector(sim::Simulator& sim, std::size_t max_concurrent,
                               SupervisionConfig supervision,
                               std::size_t history_depth,
                               TieredStorageConfig storage)
    : sim_(sim),
      sequencer_(max_concurrent),
      database_(history_depth, std::move(storage)),
      supervision_(supervision) {
  // Simulation time drives the scheduler's senescence-weighted aging and
  // starvation accounting (inert under the default FIFO configuration).
  sequencer_.set_clock([this] { return sim_.now().nanos(); });
}

void SensorDirector::register_sensor(Metric metric, NetworkSensor* sensor) {
  if (sensor != nullptr && !sensor->supports(metric)) {
    throw std::invalid_argument("SensorDirector: sensor " + sensor->name() +
                                " does not support metric " +
                                std::string(to_string(metric)));
  }
  auto& chain = chains_[static_cast<std::size_t>(metric)];
  chain.clear();
  if (sensor != nullptr) chain.push_back(sensor);
}

void SensorDirector::register_fallback(Metric metric, NetworkSensor* sensor) {
  if (sensor == nullptr) {
    throw std::invalid_argument("SensorDirector: null fallback sensor");
  }
  if (!sensor->supports(metric)) {
    throw std::invalid_argument("SensorDirector: sensor " + sensor->name() +
                                " does not support metric " +
                                std::string(to_string(metric)));
  }
  chains_[static_cast<std::size_t>(metric)].push_back(sensor);
}

NetworkSensor* SensorDirector::sensor_for(Metric metric) const {
  const auto& chain = chains_[static_cast<std::size_t>(metric)];
  return chain.empty() ? nullptr : chain.front();
}

const SensorHealth* SensorDirector::health(const NetworkSensor* sensor,
                                           const Path& path) const {
  const PathId id = database_.find(path);
  if (id == kInvalidPathId) return nullptr;
  auto it = health_.find({sensor, id});
  return it == health_.end() ? nullptr : &it->second;
}

SensorDirector::RequestId SensorDirector::submit(MonitorRequest request,
                                                 TupleCallback on_tuple,
                                                 RoundCallback on_round) {
  if (request.paths.empty()) {
    throw std::invalid_argument("SensorDirector::submit: empty path list");
  }
  for (const PathRequest& pr : request.paths) {
    for (Metric metric : pr.metrics) {
      if (sensor_for(metric) == nullptr) {
        throw std::logic_error(
            "SensorDirector::submit: no sensor registered for metric " +
            std::string(to_string(metric)));
      }
    }
  }
  auto active = std::make_shared<ActiveRequest>();
  active->id = next_id_++;
  active->request = std::move(request);
  active->on_tuple = std::move(on_tuple);
  active->on_round = std::move(on_round);
  requests_[active->id] = active;
  ++stats_.requests_accepted;
  start_round(active);
  return active->id;
}

void SensorDirector::cancel(RequestId id) {
  auto it = requests_.find(id);
  if (it == requests_.end()) return;
  it->second->cancelled = true;  // in-flight jobs drain silently
  requests_.erase(it);
}

bool SensorDirector::retune_period(RequestId id, sim::Duration period) {
  auto it = requests_.find(id);
  if (it == requests_.end() || period.nanos() <= 0) return false;
  it->second->request.period = period;
  return true;
}

std::optional<sim::Duration> SensorDirector::period_of(RequestId id) const {
  auto it = requests_.find(id);
  if (it == requests_.end()) return std::nullopt;
  return it->second->request.period;
}

bool SensorDirector::set_path_priority(RequestId id, const Path& path,
                                       ProbeClass priority) {
  auto it = requests_.find(id);
  if (it == requests_.end()) return false;
  bool found = false;
  for (PathRequest& pr : it->second->request.paths) {
    if (pr.path == path) {
      pr.priority = priority;
      found = true;
    }
  }
  if (!found) return false;
  const PathId path_id = database_.find(path);
  if (path_id != kInvalidPathId) sequencer_.reprioritize(path_id, priority);
  return true;
}

std::optional<ProbeClass> SensorDirector::path_priority(
    RequestId id, const Path& path) const {
  auto it = requests_.find(id);
  if (it == requests_.end()) return std::nullopt;
  for (const PathRequest& pr : it->second->request.paths) {
    if (pr.path == path) return pr.priority;
  }
  return std::nullopt;
}

void SensorDirector::start_round(std::shared_ptr<ActiveRequest> request) {
  if (request->cancelled) return;
  request->round_started = sim_.now();
  request->round_count = 0;
  request->outstanding = 0;
  for (const PathRequest& pr : request->request.paths) {
    request->outstanding += pr.metrics.size();
  }
  if (request->outstanding == 0) {
    round_finished(request);
    return;
  }
  const std::vector<PathRequest>& paths = request->request.paths;
  if (request->path_ids.empty()) {
    // Intern once, on the first round that measures anything; the
    // per-measurement hot path below records by dense id and never
    // re-keys the database on the full Path.
    request->path_ids.reserve(paths.size());
    for (const PathRequest& pr : paths) {
      request->path_ids.push_back(database_.id_of(pr.path));
    }
    if (request->request.reporting ==
        MonitorRequest::Reporting::kAsynchronous) {
      request->tuples.resize(paths.size());
      for (std::size_t i = 0; i < paths.size(); ++i) {
        request->tuples[i].path = paths[i].path;
        request->tuples[i].path_id = request->path_ids[i];
      }
    }
  }
  for (std::size_t i = 0; i < paths.size(); ++i) {
    for (Metric metric : paths[i].metrics) {
      JobRef job = jobs_.acquire();
      job->request = request;
      job->path_id = request->path_ids[i];
      job->path_index = static_cast<std::uint32_t>(i);
      job->metric = metric;
      job->priority = paths[i].priority;
      enqueue_job(job);
    }
  }
}

void SensorDirector::enqueue_job(const JobRef& job) {
  ProbeProfile profile;
  if (profiler_) {
    profile = profiler_(database_.path_of(job->path_id), job->metric);
  }
  profile.priority = job->priority;
  profile.tag = job->path_id;
  sequencer_.enqueue(
      [this, job](TestSequencer::Done done) { launch(job, std::move(done)); },
      std::move(profile));
}

void SensorDirector::launch(const JobRef& job, TestSequencer::Done done) {
  if (job->request->cancelled) {
    // Account for the skipped job so the round can still close out.
    job_finished(*job, MetricValue::failed(sim_.now()));
    done();
    return;
  }
  const auto& chain = chains_[static_cast<std::size_t>(job->metric)];
  NetworkSensor* sensor = nullptr;
  while (job->sensor_index < chain.size()) {
    NetworkSensor* candidate = chain[job->sensor_index];
    if (breaker_admits(candidate, job->path_id)) {
      sensor = candidate;
      break;
    }
    ++stats_.breaker_skips;
    ++job->sensor_index;
    job->attempt = 0;
  }
  if (sensor == nullptr) {
    exhaust(job, std::move(done));
    return;
  }

  ++stats_.measurements_started;
  const std::uint64_t id = next_attempt_id_++;
  job->attempt_id = id;
  job->settled = false;
  if (!supervision_.deadline.is_zero()) {
    job->deadline = sim_.schedule_in(
        supervision_.deadline, [this, job, sensor, id, done] {
          if (job->settled || job->attempt_id != id) return;
          job->settled = true;
          ++stats_.timeouts;
          attempt_failed(job, sensor, done);
        });
  }
  sensor->measure(database_.path_of(job->path_id), job->metric,
                  [this, job, sensor, id, done](MetricValue value) {
                    on_measured(job, sensor, id, done, value);
                  });
}

void SensorDirector::on_measured(const JobRef& job, NetworkSensor* sensor,
                                 std::uint64_t attempt_id,
                                 const TestSequencer::Done& done,
                                 MetricValue value) {
  if (job->settled || job->attempt_id != attempt_id) {
    // Completion after the deadline killed the attempt (or after a
    // misbehaving sensor already reported): counted no-op.
    ++stats_.late_completions;
    return;
  }
  job->settled = true;
  job->deadline.cancel();
  if (!value.valid) {
    attempt_failed(job, sensor, done);
    return;
  }
  breaker_success(sensor, job->path_id);
  if (job->sensor_index > 0) {
    value.quality = SampleQuality::kFallback;
  } else if (job->attempt > 0) {
    value.quality = SampleQuality::kRetried;
  }
  job_finished(*job, value);
  done();
}

void SensorDirector::attempt_failed(const JobRef& job, NetworkSensor* sensor,
                                    TestSequencer::Done done) {
  breaker_failure(sensor, job->path_id);
  if (job->attempt < supervision_.max_retries) {
    ++job->attempt;
    ++stats_.retries;
    // Release the sequencer slot for the duration of the backoff; the retry
    // re-queues and competes for a slot like any other measurement.
    done();
    sim_.schedule_in(backoff_delay(*job), [this, job] { enqueue_job(job); });
    return;
  }
  const auto& chain = chains_[static_cast<std::size_t>(job->metric)];
  if (job->sensor_index + 1 < chain.size()) {
    ++job->sensor_index;
    job->attempt = 0;
    ++stats_.fallbacks;
    // Degrade immediately to the next sensor, reusing the held slot.
    launch(job, std::move(done));
    return;
  }
  exhaust(job, std::move(done));
}

void SensorDirector::exhaust(const JobRef& job, TestSequencer::Done done) {
  ++stats_.exhausted;
  const MetricValue failed = MetricValue::failed(sim_.now());
  if (supervision_.report_stale_on_exhaustion) {
    if (auto last = database_.last_known(job->path_id, job->metric)) {
      // Re-report the last known good value, flagged stale, while the
      // database records the failure (so senescence keeps advancing and
      // last_known is not refreshed with old data).
      MetricValue reported = last->value;
      reported.quality = SampleQuality::kStale;
      MetricValue recorded = failed;
      recorded.quality = SampleQuality::kStale;
      ++stats_.stale_reports;
      job_finished(*job, reported, &recorded);
      done();
      return;
    }
  }
  job_finished(*job, failed);
  done();
}

sim::Duration SensorDirector::backoff_delay(const Job& job) const {
  // Jitter keyed by the job identity so paths sharing a failure do not retry
  // in lockstep — and two runs of the same scenario stay bit-identical
  // (util/backoff.hpp; the formula moved there verbatim, so supervised
  // schedules are unchanged).
  const std::uint64_t key = (std::uint64_t(job.path_id) << 16) ^
                            (std::uint64_t(job.attempt) << 8) ^
                            std::uint64_t(job.metric);
  return util::jittered_backoff(supervision_.backoff_base,
                                supervision_.backoff_max, job.attempt, key);
}

void SensorDirector::attach_observability(obs::Registry& registry,
                                          std::string prefix) {
  obs_ = obs::Scope(registry, std::move(prefix));
  sequencer_.attach_observability(registry, obs_.prefix() + ".sequencer",
                                  [this] { return sim_.now().nanos(); });
  database_.attach_observability(registry, obs_.prefix() + ".db");

  struct Field {
    const char* name;
    std::uint64_t DirectorStats::* member;
  };
  static constexpr Field kFields[] = {
      {"requests_accepted", &DirectorStats::requests_accepted},
      {"measurements_started", &DirectorStats::measurements_started},
      {"measurements_completed", &DirectorStats::measurements_completed},
      {"measurements_failed", &DirectorStats::measurements_failed},
      {"tuples_reported", &DirectorStats::tuples_reported},
      {"rounds_completed", &DirectorStats::rounds_completed},
      {"timeouts", &DirectorStats::timeouts},
      {"late_completions", &DirectorStats::late_completions},
      {"retries", &DirectorStats::retries},
      {"fallbacks", &DirectorStats::fallbacks},
      {"breaker_skips", &DirectorStats::breaker_skips},
      {"exhausted", &DirectorStats::exhausted},
      {"stale_reports", &DirectorStats::stale_reports},
  };
  for (const Field& f : kFields) {
    obs_.gauge_of(f.name, stats_.*f.member);
  }
  static constexpr SampleQuality kQualities[] = {
      SampleQuality::kFresh, SampleQuality::kRetried, SampleQuality::kFallback,
      SampleQuality::kStale};
  for (SampleQuality q : kQualities) {
    obs_quality_[static_cast<std::size_t>(q)] =
        obs_.counter(std::string("quality.") + to_string(q));
  }
  // Health entries that predate the attach get their gauges now.
  for (const auto& [key, h] : health_) {
    publish_health(key.first, key.second, h);
  }
}

SensorHealth& SensorDirector::health_entry(NetworkSensor* sensor,
                                           PathId path) {
  auto [it, inserted] = health_.try_emplace({sensor, path});
  if (inserted && obs_.attached()) publish_health(sensor, path, it->second);
  return it->second;
}

void SensorDirector::publish_health(const NetworkSensor* sensor, PathId path,
                                    const SensorHealth& h) {
  // Map nodes are stable, so binding gauge callbacks to the entry is safe
  // for the director's lifetime; the director's Scope removes them.
  const std::string base = "health." + sensor->name() + "." +
                           database_.path_of(path).to_string();
  obs_.gauge_of(base + ".successes", h.successes);
  obs_.gauge_of(base + ".failures", h.failures);
  obs_.gauge_of(base + ".trips", h.trips);
  obs_.gauge_of(base + ".breaker_state", h.state);
}

bool SensorDirector::breaker_admits(NetworkSensor* sensor, PathId path) {
  if (supervision_.breaker_threshold <= 0) return true;
  SensorHealth& h = health_entry(sensor, path);
  switch (h.state) {
    case BreakerState::kClosed:
      return true;
    case BreakerState::kOpen:
      if (sim_.now() < h.open_until) return false;
      h.state = BreakerState::kHalfOpen;
      h.probe_in_flight = false;
      [[fallthrough]];
    case BreakerState::kHalfOpen:
      if (h.probe_in_flight) return false;
      h.probe_in_flight = true;
      return true;
  }
  return true;
}

void SensorDirector::breaker_success(NetworkSensor* sensor, PathId path) {
  if (supervision_.breaker_threshold <= 0) return;
  SensorHealth& h = health_entry(sensor, path);
  ++h.successes;
  h.consecutive_failures = 0;
  if (h.state != BreakerState::kClosed) {
    NETMON_INFO("director", "breaker for ", sensor->name(), " on ",
                database_.path_of(path).to_string(), " closed");
    h.state = BreakerState::kClosed;
    if (obs_.attached()) {
      obs_.emit(sim_.now().nanos(), "breaker", sensor->name() + ".closed",
                static_cast<double>(path));
    }
  }
  h.probe_in_flight = false;
}

void SensorDirector::breaker_failure(NetworkSensor* sensor, PathId path) {
  if (supervision_.breaker_threshold <= 0) return;
  SensorHealth& h = health_entry(sensor, path);
  ++h.failures;
  ++h.consecutive_failures;
  const bool trip =
      h.state == BreakerState::kHalfOpen ||
      (h.state == BreakerState::kClosed &&
       h.consecutive_failures >= supervision_.breaker_threshold);
  if (trip) {
    h.state = BreakerState::kOpen;
    h.open_until = sim_.now() + supervision_.breaker_open_for;
    h.probe_in_flight = false;
    ++h.trips;
    NETMON_WARN("director", "breaker for ", sensor->name(), " on ",
                database_.path_of(path).to_string(), " opened (",
                h.consecutive_failures, " consecutive failures)");
    if (obs_.attached()) {
      obs_.emit(sim_.now().nanos(), "breaker", sensor->name() + ".opened",
                static_cast<double>(path));
    }
  }
}

void SensorDirector::job_finished(const Job& job, const MetricValue& reported,
                                  const MetricValue* recorded) {
  ++stats_.measurements_completed;
  const MetricValue& to_record = recorded != nullptr ? *recorded : reported;
  if (!to_record.valid) ++stats_.measurements_failed;
  if constexpr (obs::kCompiledIn) {
    // Quality mix of what the manager is told (the reported value carries
    // the fresh/retried/fallback/stale provenance flag).
    if (obs_quality_[0] != nullptr) {
      obs_quality_[static_cast<std::size_t>(reported.quality)]->inc();
    }
  }

  ActiveRequest& request = *job.request;
  if (!request.cancelled) {
    if (request.request.record_to_database) {
      database_.record(job.path_id, job.metric, to_record);
    }
    // Tuples are rewritten in place: a consumer that wants to keep one
    // keeps its own copy.
    if (request.request.reporting == MonitorRequest::Reporting::kSynchronous) {
      if (request.round_count == request.round_tuples.size()) {
        request.round_tuples.emplace_back();
      }
      PathMetricTuple& tuple = request.round_tuples[request.round_count++];
      tuple.path = request.request.paths[job.path_index].path;
      tuple.metric = job.metric;
      tuple.value = reported;
      tuple.path_id = job.path_id;
    } else if (request.on_tuple) {
      PathMetricTuple& tuple = request.tuples[job.path_index];
      tuple.metric = job.metric;
      tuple.value = reported;
      ++stats_.tuples_reported;
      request.on_tuple(tuple);
    }
  }

  if (request.outstanding == 0) return;  // defensive; should not happen
  if (--request.outstanding == 0) round_finished(job.request);
}

void SensorDirector::round_finished(
    const std::shared_ptr<ActiveRequest>& request) {
  ++stats_.rounds_completed;
  if (!request->cancelled &&
      request->request.reporting == MonitorRequest::Reporting::kSynchronous) {
    request->round_tuples.resize(request->round_count);
    stats_.tuples_reported += request->round_tuples.size();
    if (request->on_round) request->on_round(request->round_tuples);
    // Synchronous mode also supports a per-tuple callback for convenience.
    if (request->on_tuple) {
      for (const auto& tuple : request->round_tuples) {
        request->on_tuple(tuple);
      }
    }
  }

  if (request->cancelled) return;
  switch (request->request.mode) {
    case MonitorRequest::Mode::kOnce:
      requests_.erase(request->id);
      break;
    case MonitorRequest::Mode::kContinuous:
      // Immediately begin the next round (the sequencer still bounds
      // concurrency, so this is the paper's cycling sequencer).
      sim_.schedule_in(sim::Duration::ns(0),
                       [this, request] { start_round(request); });
      break;
    case MonitorRequest::Mode::kPeriodic: {
      const sim::TimePoint next =
          request->round_started + request->request.period;
      const sim::TimePoint at = next > sim_.now() ? next : sim_.now();
      sim_.schedule_at(at, [this, request] { start_round(request); });
      break;
    }
  }
}

}  // namespace netmon::core
