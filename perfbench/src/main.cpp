// netmon end-to-end benchmark binary.
//
//   netmon_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                    [--spans <file>]
//
// Runs repetitions of one workload (each: fresh set-up, then the timed
// phase, in its own forked process) until --seconds of host time are used, checks every repetition's
// correctness gates and that all repetitions of the seed produced the same
// simulated-result digest, prints every metric by name with its unit, and
// ends with one JSON line. --trace 0 reports the end-to-end metrics from
// untraced repetitions; --trace 1 alternates untraced and traced
// repetitions and reports the per-layer metrics plus the tracing overhead
// (traced minus untraced wall time of the timed phase). See
// perfbench/README.md.

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <sstream>
#include <memory>
#include <string>
#include <vector>

#include "harness.hpp"

using namespace perfbench;

namespace {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string spans_path;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "error: %s\nusage: netmon_perfbench --workload "
               "<rtds9x3|fabric10k|admit_contended|zones_chaos> --seed <n> "
               "--seconds <s> --trace <0|1> [--spans <file>]\n",
               why);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
    const char* value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      o.workload = value;
      have_workload = true;
    } else if (arg == "--seed") {
      o.seed = std::strtoull(value, &end, 10);
      if (*end != '\0') usage("--seed must be a whole number");
    } else if (arg == "--seconds") {
      o.seconds = std::strtod(value, &end);
      if (*end != '\0' || !(o.seconds > 0.0) || o.seconds > 600.0) {
        usage("--seconds must be in (0, 600]");
      }
    } else if (arg == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        usage("--trace must be 0 or 1");
      }
      o.trace = value[0] == '1';
    } else if (arg == "--spans") {
      o.spans_path = value;
    } else {
      usage(("unknown argument " + arg).c_str());
    }
  }
  if (!have_workload) usage("--workload is required");
  return o;
}

std::function<std::unique_ptr<Workload>()> factory(const std::string& name) {
  if (name == "rtds9x3") return make_rtds9x3;
  if (name == "fabric10k") return make_fabric10k;
  if (name == "admit_contended") return make_admit_contended;
  if (name == "zones_chaos") return make_zones_chaos;
  return nullptr;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

template <typename F>
double mean_of(const std::vector<const Rep*>& reps, F f) {
  double sum = 0.0;
  for (const Rep* r : reps) sum += f(*r);
  return reps.empty() ? 0.0 : sum / static_cast<double>(reps.size());
}

template <typename F>
double sum_of(const std::vector<const Rep*>& reps, F f) {
  double sum = 0.0;
  for (const Rep* r : reps) sum += static_cast<double>(f(*r));
  return sum;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

Rep run_rep(const std::function<std::unique_ptr<Workload>()>& make,
            std::uint64_t seed, bool traced) {
  Rep rep;
  rep.traced = traced;
  Tracer& tr = tracer();
  // An untraced repetition leaves the tracer alone, so the span file always
  // holds the last traced repetition.
  if (traced) tr.reset();
  tr.set_enabled(traced);
  std::unique_ptr<Workload> w = make();
  const std::int64_t t0 = host_ns();
  w->setup(seed, traced);
  const std::int64_t t1 = host_ns();
  const std::uint64_t a0 = alloc_count();
  {
    Span root(kSpanTimed);
    w->run(rep);
  }
  const std::int64_t t2 = host_ns();
  rep.allocs = alloc_count() - a0;
  tr.set_enabled(false);
  rep.setup_s = static_cast<double>(t1 - t0) * 1e-9;
  rep.wall_s = static_cast<double>(t2 - t1) * 1e-9;
  for (int s = 0; traced && s < kSpanCount; ++s) {
    rep.spans[s] = tr.totals(static_cast<SpanId>(s));
  }
  w->finish(rep);
  return rep;
}

// Set-up alone, for extra set-up time samples.
double run_setup_only(const std::function<std::unique_ptr<Workload>()>& make,
                      std::uint64_t seed) {
  tracer().set_enabled(false);
  std::unique_ptr<Workload> w = make();
  const std::int64_t t0 = host_ns();
  w->setup(seed, false);
  return static_cast<double>(host_ns() - t0) * 1e-9;
}

void write_spans(const std::string& path, const Options& o) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "warning: cannot write span file %s\n", path.c_str());
    return;
  }
  const Tracer& tr = tracer();
  out << "# netmon perfbench spans: workload=" << o.workload
      << " seed=" << o.seed << " (last traced repetition)\n";
  out << "# totals: name count total_ns self_ns\n";
  for (int s = 0; s < kSpanCount; ++s) {
    const SpanTotals& t = tr.totals(static_cast<SpanId>(s));
    out << "total\t" << span_name(static_cast<SpanId>(s)) << '\t' << t.count
        << '\t' << t.total_ns << '\t' << t.self_ns << '\n';
  }
  out << "# raw spans (first " << tr.raw().size() << ", "
      << tr.raw_dropped() << " more not kept): index name start_ns end_ns "
      << "parent\n";
  const std::int64_t base = tr.raw().empty() ? 0 : tr.raw().front().start_ns;
  for (std::size_t i = 0; i < tr.raw().size(); ++i) {
    const Tracer::Raw& r = tr.raw()[i];
    out << i << '\t' << span_name(r.id) << '\t' << (r.start_ns - base) << '\t'
        << (r.end_ns - base) << '\t'
        << (r.parent == ~0u ? -1 : static_cast<long long>(r.parent)) << '\n';
  }
}

// Each repetition runs in its own forked process. On a shared virtual
// machine a process keeps one speed for its lifetime (whichever vCPU it
// lands on), and that speed differs by up to ~40% between processes, in two
// clusters, while repetitions inside one process agree within a few
// percent. A mean over per-repetition processes averages the clusters by
// how often each occurs; one process sees only one of them, and a median
// jumps between them.

// Cheap set-ups are sampled again inside the repetition's process, for up
// to this long, and the process reports their median.
constexpr double kSetupSamplingPerRep = 0.05;
constexpr std::size_t kMaxSetupSamplesPerRep = 200;

std::string serialize(const Rep& r) {
  std::ostringstream out;
  out.precision(17);
  out << "setup_s " << r.setup_s << "\nwall_s " << r.wall_s << "\nsim_s "
      << r.sim_s << "\nsamples " << r.samples << "\nadmissions "
      << r.admissions << "\nattempted " << r.attempted << "\nfailed "
      << r.failed << "\nallocs " << r.allocs << "\nfirst_round_s "
      << r.first_round_s << "\npeak_rss_mb " << r.peak_rss_mb << "\nchecks "
      << r.checks << "\ndigest " << r.digest << "\ntraced " << r.traced
      << '\n';
  for (const auto& [name, value] : r.sim_metrics) {
    out << "sim " << name << ' ' << value << '\n';
  }
  for (const auto& [name, value] : r.layer) {
    out << "layer " << name << ' ' << value << '\n';
  }
  for (int s = 0; s < kSpanCount; ++s) {
    out << "span " << s << ' ' << r.spans[s].count << ' '
        << r.spans[s].total_ns << ' ' << r.spans[s].self_ns << '\n';
  }
  for (const std::string& f : r.failures) out << "fail " << f << '\n';
  out << "end\n";
  return out.str();
}

bool deserialize(const std::string& text, Rep& r) {
  std::istringstream in(text);
  std::string key;
  bool complete = false;
  while (in >> key) {
    if (key == "setup_s") in >> r.setup_s;
    else if (key == "wall_s") in >> r.wall_s;
    else if (key == "sim_s") in >> r.sim_s;
    else if (key == "samples") in >> r.samples;
    else if (key == "admissions") in >> r.admissions;
    else if (key == "attempted") in >> r.attempted;
    else if (key == "failed") in >> r.failed;
    else if (key == "allocs") in >> r.allocs;
    else if (key == "first_round_s") in >> r.first_round_s;
    else if (key == "peak_rss_mb") in >> r.peak_rss_mb;
    else if (key == "checks") in >> r.checks;
    else if (key == "digest") in >> r.digest;
    else if (key == "traced") in >> r.traced;
    else if (key == "sim" || key == "layer") {
      std::string name;
      double value = 0.0;
      in >> name >> value;
      (key == "sim" ? r.sim_metrics : r.layer)[name] = value;
    } else if (key == "span") {
      int s = -1;
      in >> s;
      if (s < 0 || s >= kSpanCount) return false;
      in >> r.spans[s].count >> r.spans[s].total_ns >> r.spans[s].self_ns;
    } else if (key == "fail") {
      std::string message;
      std::getline(in >> std::ws, message);
      r.failures.push_back(message);
    } else if (key == "end") {
      complete = true;
      break;
    } else {
      return false;
    }
    if (!in) return false;
  }
  return complete;
}

// Child side: one repetition plus extra set-up samples; the result goes to
// `fd` as text.
void child_rep(const std::function<std::unique_ptr<Workload>()>& make,
               const Options& o, bool traced, int fd) {
  Rep rep = run_rep(make, o.seed, traced);
  std::vector<double> setups = {rep.setup_s};
  const std::int64_t t0 = host_ns();
  while (setups.size() < kMaxSetupSamplesPerRep &&
         static_cast<double>(host_ns() - t0) * 1e-9 + setups.back() <
             kSetupSamplingPerRep) {
    setups.push_back(run_setup_only(make, o.seed));
  }
  rep.setup_s = median(setups);
  rep.peak_rss_mb = peak_rss_mb();
  if (traced && !o.spans_path.empty()) write_spans(o.spans_path, o);
  const std::string text = serialize(rep);
  std::size_t done = 0;
  while (done < text.size()) {
    const ssize_t n = write(fd, text.data() + done, text.size() - done);
    if (n <= 0) _exit(4);
    done += static_cast<std::size_t>(n);
  }
}

Rep fork_rep(const std::function<std::unique_ptr<Workload>()>& make,
             const Options& o, bool traced) {
  Rep rep;
  rep.traced = traced;
  int fds[2];
  if (pipe(fds) != 0) {
    check(rep, false, "cannot create a pipe for the repetition process");
    return rep;
  }
  std::fflush(stdout);
  std::fflush(stderr);
  const pid_t pid = fork();
  if (pid == 0) {
    close(fds[0]);
    int code = 0;
    try {
      child_rep(make, o, traced, fds[1]);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "repetition failed: %s\n", e.what());
      code = 3;
    }
    close(fds[1]);
    _exit(code);
  }
  close(fds[1]);
  std::string text;
  if (pid > 0) {
    char buf[65536];
    ssize_t n = 0;
    while ((n = read(fds[0], buf, sizeof buf)) > 0) {
      text.append(buf, static_cast<std::size_t>(n));
    }
  }
  close(fds[0]);
  int status = 0;
  const bool exited = pid > 0 && waitpid(pid, &status, 0) == pid &&
                      WIFEXITED(status) && WEXITSTATUS(status) == 0;
  if (!exited || !deserialize(text, rep)) {
    rep = Rep{};
    rep.traced = traced;
    check(rep, false, "repetition process failed");
  }
  return rep;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void print_metric(const Metric& m, const char* tag) {
  std::printf("%-28s %18.9g %-8s %s\n", m.name.c_str(), m.value,
              m.unit.c_str(), tag);
}

}  // namespace

int main(int argc, char** argv) {
  const Options o = parse(argc, argv);
  const auto make = factory(o.workload);
  if (!make) usage(("unknown workload " + o.workload).c_str());

  // Repetitions: untraced only (--trace 0), or untraced/traced alternating
  // (--trace 1). At least three of each kind run, so every run has a mean
  // and a same-seed digest comparison; more run while they fit in --seconds.
  constexpr int kMinReps = 3;
  const std::int64_t start = host_ns();
  auto elapsed = [start] { return static_cast<double>(host_ns() - start) * 1e-9; };
  std::vector<Rep> reps;
  int untraced = 0;
  int traced = 0;
  double longest_rep = 0.0;
  while (true) {
    const bool do_trace = o.trace && traced < untraced;
    const double before = elapsed();
    reps.push_back(fork_rep(make, o, do_trace));
    longest_rep = std::max(longest_rep, elapsed() - before);
    (do_trace ? traced : untraced) += 1;
    const bool enough = untraced >= kMinReps && (!o.trace || traced >= kMinReps);
    if (enough && elapsed() + longest_rep > o.seconds) break;
    if (reps.size() >= 200) break;
  }
  // Correctness: every repetition's gates, and one digest for the seed.
  std::uint64_t checks = 0;
  std::uint64_t checks_failed = 0;
  for (const Rep& r : reps) {
    checks += r.checks;
    checks_failed += r.failures.size();
    for (const std::string& f : r.failures) {
      std::fprintf(stderr, "CHECK FAILED (%s seed %llu%s): %s\n",
                   o.workload.c_str(),
                   static_cast<unsigned long long>(o.seed),
                   r.traced ? ", traced" : "", f.c_str());
    }
  }
  bool digests_match = true;
  bool sim_metrics_match = true;
  for (const Rep& r : reps) {
    digests_match = digests_match && r.digest == reps.front().digest;
    sim_metrics_match =
        sim_metrics_match && r.sim_metrics == reps.front().sim_metrics;
  }
  if (!digests_match || !sim_metrics_match) {
    ++checks_failed;
    std::fprintf(stderr,
                 "CHECK FAILED (%s seed %llu): repetitions of one seed gave "
                 "different simulated results\n",
                 o.workload.c_str(), static_cast<unsigned long long>(o.seed));
  }
  ++checks;

  std::vector<const Rep*> plain;
  std::vector<const Rep*> with_trace;
  for (const Rep& r : reps) (r.traced ? with_trace : plain).push_back(&r);
  const Rep& first = *plain.front();

  std::printf("workload %s seed %llu: %zu untraced + %zu traced repetitions, "
              "digest %016llx\n",
              o.workload.c_str(), static_cast<unsigned long long>(o.seed),
              plain.size(), with_trace.size(),
              static_cast<unsigned long long>(first.digest));

  for (std::size_t i = 0; i < reps.size(); ++i) {
    std::printf("  rep %zu%s: setup %.6f s, timed %.6f s, %llu samples, "
                "%llu allocs\n",
                i, reps[i].traced ? " (traced)" : "", reps[i].setup_s,
                reps[i].wall_s,
                static_cast<unsigned long long>(reps[i].samples),
                static_cast<unsigned long long>(reps[i].allocs));
  }

  // End-to-end metrics over the untraced repetitions: host times are means
  // over their processes, rates are total work over total host time.
  auto wall = [](const Rep& r) { return r.wall_s; };
  const double total_wall = sum_of(plain, wall);
  std::vector<Metric> e2e = {
      {"setup_s",
       mean_of(plain, [](const Rep& r) { return r.setup_s; }), "s"},
      {"wall_s", mean_of(plain, wall), "s"},
      {"sim_per_host",
       ratio(sum_of(plain, [](const Rep& r) { return r.sim_s; }), total_wall),
       "s/s"},
      {"samples_per_s",
       ratio(sum_of(plain, [](const Rep& r) { return r.samples; }), total_wall),
       "1/s"},
      {"admissions_per_s",
       ratio(sum_of(plain, [](const Rep& r) { return r.admissions; }),
             total_wall),
       "1/s"},
      {"allocs_per_sample",
       ratio(sum_of(plain, [](const Rep& r) { return r.allocs; }),
             sum_of(plain, [](const Rep& r) { return r.samples; })),
       "count"},
      {"peak_rss_mb",
       mean_of(plain, [](const Rep& r) { return r.peak_rss_mb; }), "MB"},
      {"senescence_p50_s", first.sim_metrics.at("senescence_p50_s"), "s"},
      {"senescence_p99_s", first.sim_metrics.at("senescence_p99_s"), "s"},
  };
  std::printf("\nend-to-end metrics (gated):\n");
  for (const Metric& m : e2e) print_metric(m, "");

  // Workload-specific end-to-end metrics: reported, not in the JSON line
  // because they do not apply to every workload.
  std::printf("\nworkload-specific end-to-end metrics (reported only):\n");
  print_metric({"failed_share", ratio(first.failed, first.attempted), "share"},
               "(sim)");
  if (first.first_round_s >= 0.0) {
    print_metric({"first_round_s",
                  mean_of(plain, [](const Rep& r) { return r.first_round_s; }),
                  "s"},
                 "");
  }
  for (const auto& [name, value] : first.sim_metrics) {
    if (name.rfind("senescence_", 0) == 0) continue;
    const std::string unit =
        name.size() > 4 && name.compare(name.size() - 4, 4, "_bps") == 0 ? "bps"
                                                                           : "s";
    print_metric({name, value, unit}, "(sim)");
  }

  std::vector<Metric> layer;
  if (o.trace) {
    // Host times: means over traced repetitions. Counts repeat exactly.
    auto span_total_s = [&](SpanId id) {
      return mean_of(with_trace, [id](const Rep& r) {
        return static_cast<double>(r.spans[id].total_ns) * 1e-9;
      });
    };
    auto span_self_s = [&](SpanId id) {
      return mean_of(with_trace, [id](const Rep& r) {
        return static_cast<double>(r.spans[id].self_ns) * 1e-9;
      });
    };
    auto span_mean_ns = [&](SpanId id) {
      return mean_of(with_trace, [id](const Rep& r) {
        return ratio(static_cast<double>(r.spans[id].total_ns),
                     static_cast<double>(r.spans[id].count));
      });
    };
    const Rep& t = *with_trace.back();
    auto count = [&t](const char* name) {
      auto it = t.layer.find(name);
      return it == t.layer.end() ? 0.0 : it->second;
    };
    const double traced_wall =
        mean_of(with_trace, [](const Rep& r) { return r.wall_s; });
    const double untraced_wall = mean_of(plain, wall);
    const double frames = count("net.frames");
    const double samples = static_cast<double>(t.samples);
    const double events = count("sim.events");
    const double run_total = span_total_s(kSpanSimRun);
    layer = {
        {"net.setup_topology_s", span_total_s(kSpanSetupTopology), "s"},
        {"net.route_profile_calls", count("net.route_profile_calls"), "count"},
        {"net.route_profile_s", span_total_s(kSpanRouteProfile), "s"},
        {"net.frames", frames, "count"},
        {"net.frames_per_sample", ratio(frames, samples), "count"},
        {"net.drops", count("net.drops"), "count"},
        {"net.octets_monitoring", count("net.octets_monitoring"), "count"},
        {"sim.events", events, "count"},
        {"sim.events_per_frame", ratio(events, frames), "count"},
        {"sim.ns_per_event", ratio(run_total * 1e9, events), "ns"},
        {"sim.run_self_s", span_self_s(kSpanSimRun), "s"},
        {"nttcp.launches", count("nttcp.launches"), "count"},
        {"nttcp.timeouts", count("nttcp.timeouts"), "count"},
        {"nttcp.launch_ns", span_mean_ns(kSpanNttcpLaunch), "ns"},
        {"nttcp.launch.self_s", span_self_s(kSpanNttcpLaunch), "s"},
        {"snmp.launch_ns", span_mean_ns(kSpanSnmpLaunch), "ns"},
        {"snmp.launch.self_s", span_self_s(kSpanSnmpLaunch), "s"},
        {"director.submit_s", span_total_s(kSpanDirectorSubmit), "s"},
        {"director.submit.self_s", span_self_s(kSpanDirectorSubmit), "s"},
        {"director.complete_ns", span_mean_ns(kSpanDirectorComplete), "ns"},
        {"director.complete.self_s", span_self_s(kSpanDirectorComplete), "s"},
        {"director.retries", count("director.retries"), "count"},
        {"director.deadline_expired", count("director.deadline_expired"),
         "count"},
        {"director.breaker_opens", count("director.breaker_opens"), "count"},
        {"sched.enqueue_ns", span_mean_ns(kSpanSchedEnqueue), "ns"},
        {"sched.enqueue.self_s", span_self_s(kSpanSchedEnqueue), "s"},
        {"sched.release_ns", span_mean_ns(kSpanSchedRelease), "ns"},
        {"sched.release.self_s", span_self_s(kSpanSchedRelease), "s"},
        // The core layer group (director + lane scheduler) is called on
        // every workload, though through different entry points.
        {"core.self_s",
         span_self_s(kSpanDirectorSubmit) + span_self_s(kSpanDirectorComplete) +
             span_self_s(kSpanSchedEnqueue) + span_self_s(kSpanSchedRelease),
         "s"},
        {"sched.admitted", count("sched.admitted"), "count"},
        {"sched.wake_tests", count("sched.wake_tests"), "count"},
        {"sched.futile_wakeups", count("sched.futile_wakeups"), "count"},
        {"sched.futile_ratio",
         ratio(count("sched.futile_wakeups"), count("sched.wake_tests")),
         "share"},
        {"sched.deferred_disjoint", count("sched.deferred_disjoint"), "count"},
        {"sched.deferred_budget", count("sched.deferred_budget"), "count"},
        {"sched.lane_occupancy", count("sched.lane_occupancy"), "share"},
        {"db.records", count("db.records"), "count"},
        {"db.record_ns", span_mean_ns(kSpanDbRecord), "ns"},
        {"db.record.self_s", span_self_s(kSpanDbRecord), "s"},
        {"db.query_ns", span_mean_ns(kSpanDbQuery), "ns"},
        {"db.query.self_s", span_self_s(kSpanDbQuery), "s"},
        {"db.pages_in_use", count("db.pages_in_use"), "count"},
        {"db.rollovers", count("db.rollovers"), "count"},
        {"db.evictions", count("db.evictions"), "count"},
        {"db.overcommits", count("db.overcommits"), "count"},
        {"snmp.requests", count("snmp.requests"), "count"},
        {"snmp.retries", count("snmp.retries"), "count"},
        {"snmp.timeouts", count("snmp.timeouts"), "count"},
        {"snmp.useful_ratio",
         ratio(count("snmp.responses"), count("snmp.requests")), "share"},
        {"manager.tuples", count("manager.tuples"), "count"},
        {"manager.stale_tuples", count("manager.stale_tuples"), "count"},
        {"manager.reconfigurations", count("manager.reconfigurations"),
         "count"},
        {"ctrl.actuations", count("ctrl.actuations"), "count"},
        {"ctrl.rollbacks", count("ctrl.rollbacks"), "count"},
        {"ctrl.blocked", count("ctrl.blocked"), "count"},
        {"fed.pages_sent", count("fed.pages_sent"), "count"},
        {"fed.points_merged", count("fed.points_merged"), "count"},
        {"fed.points_lost", count("fed.points_lost"), "count"},
        {"fed.resends", count("fed.resends"), "count"},
        {"fed.useful_ratio",
         ratio(count("fed.pages_merged"), count("fed.pages_sent")), "share"},
        {"fed.spool_peak", count("fed.spool_peak"), "count"},
        {"fault.injected", count("fault.injected"), "count"},
        {"trace.wall_s", traced_wall, "s"},
        {"trace.untraced_wall_s", untraced_wall, "s"},
        {"trace.overhead_s", traced_wall - untraced_wall, "s"},
        {"trace.overhead_share", ratio(traced_wall - untraced_wall,
                                       untraced_wall),
         "share"},
        {"trace.unattributed_s", span_self_s(kSpanTimed), "s"},
    };
    std::printf("\nper-layer metrics (traced repetitions):\n");
    for (const Metric& m : layer) print_metric(m, "");
  }

  const bool correct = checks_failed == 0;
  std::printf("\n{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(checks),
              static_cast<unsigned long long>(checks_failed));
  const std::vector<Metric>& out = o.trace ? layer : e2e;
  for (std::size_t i = 0; i < out.size(); ++i) {
    const double v = std::isfinite(out[i].value) ? out[i].value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", out[i].name.c_str(), v,
                out[i].unit.c_str());
  }
  std::printf("}}\n");
  return correct ? 0 : 1;
}
