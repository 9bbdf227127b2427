#include "fault/fault_injector.hpp"

#include <stdexcept>
#include <utility>
#include <variant>

namespace netmon::fault {

void FaultInjector::register_link(std::string name, net::Link& link) {
  media_[name] = &link;
  links_[std::move(name)] = &link;
}

void FaultInjector::register_segment(std::string name,
                                     net::SharedSegment& segment) {
  media_[std::move(name)] = &segment;
}

void FaultInjector::register_host(std::string name, net::Host& host) {
  hosts_[std::move(name)] = &host;
}

void FaultInjector::register_sensor(std::string name, ChaosSensor& sensor) {
  sensors_[std::move(name)] = &sensor;
}

net::Link& FaultInjector::link_target(const std::string& name) const {
  auto it = links_.find(name);
  if (it == links_.end()) {
    throw std::invalid_argument("FaultInjector: unknown link " + name);
  }
  return *it->second;
}

net::Medium& FaultInjector::medium_target(const std::string& name) const {
  auto it = media_.find(name);
  if (it == media_.end()) {
    throw std::invalid_argument("FaultInjector: unknown medium " + name);
  }
  return *it->second;
}

net::Host& FaultInjector::host_target(const std::string& name) const {
  auto it = hosts_.find(name);
  if (it == hosts_.end()) {
    throw std::invalid_argument("FaultInjector: unknown host " + name);
  }
  return *it->second;
}

ChaosSensor& FaultInjector::sensor_target(const std::string& name) const {
  auto it = sensors_.find(name);
  if (it == sensors_.end()) {
    throw std::invalid_argument("FaultInjector: unknown sensor " + name);
  }
  return *it->second;
}

void FaultInjector::record(const std::string& description) {
  // The log is ordered by application time by construction: the simulator
  // clock never runs backwards. A violation means memory corruption or a
  // clock bug, not a scheduling race — fail loudly.
  if (!log_.empty() && sim_.now() < log_.back().at) {
    throw std::logic_error(
        "FaultInjector: fault log timestamp went backwards at \"" +
        description + "\"");
  }
  log_.append(FaultRecord{sim_.now(), description});
}

void FaultInjector::validate(const FaultAction& action) const {
  if (const auto* f = std::get_if<LinkDown>(&action)) {
    link_target(f->link);
  } else if (const auto* f = std::get_if<LinkUp>(&action)) {
    link_target(f->link);
  } else if (const auto* f = std::get_if<LinkFlap>(&action)) {
    link_target(f->link);
    if (f->cycles < 1) {
      throw std::invalid_argument("FaultInjector: flap cycles < 1");
    }
    if (f->down_for.nanos() <= 0) {
      throw std::invalid_argument("FaultInjector: flap down_for <= 0");
    }
    if (f->up_for.nanos() < 0) {
      throw std::invalid_argument("FaultInjector: flap up_for < 0");
    }
  } else if (const auto* f = std::get_if<HostCrash>(&action)) {
    host_target(f->host);
  } else if (const auto* f = std::get_if<HostRestart>(&action)) {
    host_target(f->host);
  } else if (const auto* f = std::get_if<HostPartition>(&action)) {
    host_target(f->host);
    if (f->duration.nanos() <= 0) {
      throw std::invalid_argument("FaultInjector: partition duration <= 0");
    }
  } else if (const auto* f = std::get_if<PacketChaos>(&action)) {
    medium_target(f->medium);
    if (f->duration.nanos() <= 0) {
      throw std::invalid_argument("FaultInjector: chaos duration <= 0");
    }
    if (f->drop_probability < 0.0 || f->drop_probability > 1.0 ||
        f->corrupt_probability < 0.0 || f->corrupt_probability > 1.0) {
      throw std::invalid_argument("FaultInjector: probability out of [0,1]");
    }
    if (f->extra_delay.nanos() < 0) {
      throw std::invalid_argument("FaultInjector: chaos extra_delay < 0");
    }
  } else if (const auto* f = std::get_if<ClockStep>(&action)) {
    host_target(f->host);
  } else if (const auto* f = std::get_if<SensorMode>(&action)) {
    sensor_target(f->sensor);
  }
}

void FaultInjector::arm(const FaultPlan& plan) {
  // Fail fast on typos: every target must resolve before anything is
  // scheduled.
  for (const TimedFault& fault : plan.faults) {
    if (fault.at.nanos() < 0) {
      throw std::invalid_argument("FaultInjector: fault scheduled in the past");
    }
    validate(fault.action);
  }

  // One master stream per arm; chaos windows fork children in plan order so
  // their randomness does not depend on when (or whether) windows overlap.
  util::Rng master(plan.seed);
  const sim::TimePoint base = sim_.now();

  for (const TimedFault& fault : plan.faults) {
    const sim::TimePoint when = base + fault.at;

    if (const auto* f = std::get_if<LinkDown>(&fault.action)) {
      net::Link* link = &link_target(f->link);
      sim_.schedule_at(when, [this, link, d = describe(fault.action)] {
        link->set_up(false);
        ++stats_.faults_applied;
        ++stats_.link_transitions;
        record(d);
      });

    } else if (const auto* f = std::get_if<LinkUp>(&fault.action)) {
      net::Link* link = &link_target(f->link);
      sim_.schedule_at(when, [this, link, d = describe(fault.action)] {
        link->set_up(true);
        ++stats_.faults_applied;
        ++stats_.link_transitions;
        record(d);
      });

    } else if (const auto* f = std::get_if<LinkFlap>(&fault.action)) {
      net::Link* link = &link_target(f->link);
      sim_.schedule_at(when, [this, d = describe(fault.action)] {
        ++stats_.faults_applied;
        record(d);
      });
      const sim::Duration cycle = f->down_for + f->up_for;
      for (int i = 0; i < f->cycles; ++i) {
        const sim::TimePoint down_at = when + cycle * i;
        const sim::TimePoint up_at = down_at + f->down_for;
        sim_.schedule_at(down_at, [this, link, name = f->link] {
          link->set_up(false);
          ++stats_.link_transitions;
          record("link " + name + " down (flap)");
        });
        sim_.schedule_at(up_at, [this, link, name = f->link] {
          link->set_up(true);
          ++stats_.link_transitions;
          record("link " + name + " up (flap)");
        });
      }

    } else if (const auto* f = std::get_if<HostCrash>(&fault.action)) {
      net::Host* host = &host_target(f->host);
      sim_.schedule_at(when, [this, host, d = describe(fault.action)] {
        host->set_up(false);
        ++stats_.faults_applied;
        ++stats_.host_transitions;
        record(d);
      });

    } else if (const auto* f = std::get_if<HostRestart>(&fault.action)) {
      net::Host* host = &host_target(f->host);
      sim_.schedule_at(when, [this, host, d = describe(fault.action)] {
        host->set_up(true);
        ++stats_.faults_applied;
        ++stats_.host_transitions;
        record(d);
      });

    } else if (const auto* f = std::get_if<HostPartition>(&fault.action)) {
      net::Host* host = &host_target(f->host);
      sim_.schedule_at(when, [this, host, d = describe(fault.action)] {
        for (const auto& nic : host->nics()) nic->set_up(false);
        ++stats_.faults_applied;
        ++stats_.partitions;
        record(d);
      });
      sim_.schedule_at(when + f->duration, [this, host, name = f->host] {
        // The host may have crashed during the window; healing the partition
        // must not resurrect its interfaces. Host restart re-raises them.
        if (!host->up()) {
          record("partition on " + name + " healed (host down)");
          return;
        }
        for (const auto& nic : host->nics()) nic->set_up(true);
        record("partition on " + name + " healed");
      });

    } else if (const auto* f = std::get_if<PacketChaos>(&fault.action)) {
      net::Medium* medium = &medium_target(f->medium);
      auto window = std::make_shared<ChaosWindow>(master.fork());
      window->drop_probability = f->drop_probability;
      window->corrupt_probability = f->corrupt_probability;
      window->extra_delay = f->extra_delay;

      sim_.schedule_at(when, [this, medium, window,
                              d = describe(fault.action)] {
        medium->set_fault_hook([window](const net::Frame&) {
          net::FaultVerdict verdict;
          if (window->rng.bernoulli(window->drop_probability)) {
            verdict.drop = true;
          } else if (window->rng.bernoulli(window->corrupt_probability)) {
            verdict.corrupt = true;
          } else {
            verdict.extra_delay = window->extra_delay;
          }
          return verdict;
        });
        active_windows_[medium] = window;
        ++stats_.faults_applied;
        ++stats_.chaos_windows;
        record(d);
      });
      sim_.schedule_at(when + f->duration,
                       [this, medium, window, name = f->medium] {
        // A later window may have replaced this one; only the window that is
        // still installed gets to uninstall the hook.
        auto it = active_windows_.find(medium);
        if (it == active_windows_.end() || it->second != window) return;
        medium->set_fault_hook(nullptr);
        active_windows_.erase(it);
        record("packet chaos on " + name + " ended");
      });

    } else if (const auto* f = std::get_if<ClockStep>(&fault.action)) {
      net::Host* host = &host_target(f->host);
      const sim::Duration delta = f->delta;
      sim_.schedule_at(when, [this, host, delta,
                              d = describe(fault.action)] {
        host->clock().adjust(delta);
        ++stats_.faults_applied;
        ++stats_.clock_steps;
        record(d);
      });

    } else if (const auto* f = std::get_if<SensorMode>(&fault.action)) {
      ChaosSensor* sensor = &sensor_target(f->sensor);
      const ChaosSensor::Mode mode = f->mode;
      sim_.schedule_at(when, [this, sensor, mode,
                              d = describe(fault.action)] {
        sensor->set_mode(mode);
        ++stats_.faults_applied;
        ++stats_.sensor_mode_changes;
        record(d);
      });
    }
  }
}

net::MediumFaultStats FaultInjector::frame_stats() const {
  net::MediumFaultStats total;
  for (const auto& [name, medium] : media_) {
    const net::MediumFaultStats& s = medium->fault_stats();
    total.frames_dropped += s.frames_dropped;
    total.frames_corrupted += s.frames_corrupted;
    total.frames_delayed += s.frames_delayed;
  }
  return total;
}

}  // namespace netmon::fault
