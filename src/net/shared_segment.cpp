#include "net/shared_segment.hpp"

#include <algorithm>
#include <stdexcept>

#include "util/logging.hpp"

namespace netmon::net {

SharedSegment::SharedSegment(sim::Simulator& sim, util::Rng rng,
                             std::string name, double bandwidth_bps,
                             sim::Duration propagation_delay)
    : sim_(sim),
      rng_(rng),
      name_(std::move(name)),
      bandwidth_bps_(bandwidth_bps),
      propagation_(propagation_delay) {
  if (bandwidth_bps_ <= 0) {
    throw std::invalid_argument("SharedSegment: bandwidth <= 0");
  }
}

void SharedSegment::attach(Nic* nic) {
  if (nic == nullptr) throw std::invalid_argument("SharedSegment: null nic");
  nics_.push_back(nic);
  nic->attach(this);
}

sim::Duration SharedSegment::slot_time() const {
  // Classic Ethernet slot: 512 bit times.
  return sim::Duration::seconds(512.0 / bandwidth_bps_);
}

bool SharedSegment::medium_busy() const { return sim_.now() < busy_until_; }

void SharedSegment::on_frame_queued(Nic& nic) {
  // Carrier sense: an idle medium with no pending contention round lets the
  // station transmit immediately; otherwise resolve at the next check.
  auto it = backoff_until_.find(&nic);
  const bool backing_off = it != backoff_until_.end() && sim_.now() < it->second;
  if (!medium_busy() && !check_scheduled_ && !backing_off) {
    start_transmission(nic);
    return;
  }
  if (medium_busy()) {
    nic.note_deferral();
    schedule_contention_check(busy_until_);
  } else if (backing_off) {
    schedule_contention_check(it->second);
  }
  // If a check is already scheduled the queued frame is picked up there.
}

void SharedSegment::schedule_contention_check(sim::TimePoint at) {
  if (check_scheduled_ && check_at_ <= at) return;
  check_scheduled_ = true;
  check_at_ = at;
  sim_.schedule_at(at, [this] {
    check_scheduled_ = false;
    contention_check();
  });
}

void SharedSegment::contention_check() {
  if (medium_busy()) {
    schedule_contention_check(busy_until_);
    return;
  }
  // Stations whose backoff expired and that have a frame ready.
  std::vector<Nic*> ready;
  sim::TimePoint next_wakeup{};
  bool have_wakeup = false;
  for (Nic* nic : nics_) {
    if (!nic->up() || !nic->has_queued()) continue;
    auto it = backoff_until_.find(nic);
    if (it != backoff_until_.end() && sim_.now() < it->second) {
      if (!have_wakeup || it->second < next_wakeup) {
        next_wakeup = it->second;
        have_wakeup = true;
      }
      continue;
    }
    ready.push_back(nic);
  }

  if (ready.empty()) {
    if (have_wakeup) schedule_contention_check(next_wakeup);
    return;
  }
  if (ready.size() == 1) {
    start_transmission(*ready.front());
    return;
  }

  // Collision: every ready station backs off; the medium is jammed for one
  // slot. Excessive collisions discard the head frame (counted as a drop).
  ++stats_.collisions;
  const auto slot = slot_time();
  busy_until_ = sim_.now() + slot;
  stats_.busy_nanos += slot.nanos();
  for (Nic* nic : ready) {
    nic->note_collision();
    int& attempt = attempts_[nic];
    ++attempt;
    if (attempt > kMaxAttempts) {
      nic->drop_head();
      ++stats_.excessive_collision_drops;
      attempt = 0;
      backoff_until_.erase(nic);
      continue;
    }
    const int exponent = std::min(attempt, kMaxBackoffExponent);
    const std::int64_t slots =
        rng_.uniform_int(0, (std::int64_t(1) << exponent) - 1);
    backoff_until_[nic] = busy_until_ + slot * slots;
  }
  schedule_contention_check(busy_until_);
}

void SharedSegment::start_transmission(Nic& nic) {
  auto frame = nic.dequeue();
  if (!frame) return;
  attempts_[&nic] = 0;
  backoff_until_.erase(&nic);

  const double bits = static_cast<double>(frame->size_bytes()) * 8.0;
  const auto serialization = sim::Duration::seconds(bits / bandwidth_bps_);
  busy_until_ = sim_.now() + serialization;
  stats_.busy_nanos += serialization.nanos();
  ++stats_.frames_carried;
  stats_.octets_carried += frame->size_bytes();
  stats_.octets_by_class[static_cast<std::size_t>(
      frame->packet.traffic_class)] += frame->size_bytes();
  if (frame->dst.is_broadcast()) ++stats_.broadcast_frames;

  nic.note_transmitted(frame->size_bytes(), frame->packet.traffic_class);

  // Fault injection: a dropped or corrupted frame jammed the medium for its
  // serialization time but no station receives it.
  const FaultVerdict verdict = apply_fault_hook(*frame);
  if (!verdict.drop && !verdict.corrupt) {
    const auto delivery = serialization + propagation_ + verdict.extra_delay;
    Nic* sender = &nic;
    const std::uint32_t slot = in_flight_.park(std::move(*frame));
    sim_.schedule_in(delivery, [this, sender, slot] {
      const Frame f = in_flight_.take(slot);
      for (Nic* peer : nics_) {
        if (peer != sender) peer->deliver(f);
      }
    });
  }
  schedule_contention_check(busy_until_);
}

double SharedSegment::utilization(sim::TimePoint now) const {
  if (now.nanos() <= 0) return 0.0;
  return static_cast<double>(stats_.busy_nanos) /
         static_cast<double>(now.nanos());
}

void SharedSegment::attach_observability(obs::Registry& registry,
                                         const std::string& prefix) {
  obs_ = obs::Scope(registry, prefix);
  obs_.gauge_of("frames_carried", stats_.frames_carried);
  obs_.gauge_of("octets_carried", stats_.octets_carried);
  obs_.gauge_of("collisions", stats_.collisions);
  obs_.gauge_of("excessive_collision_drops", stats_.excessive_collision_drops);
  obs_.gauge_fn("utilization", [this] { return utilization(sim_.now()); });
  for (std::size_t c = 0; c < kTrafficClassCount; ++c) {
    const std::string name =
        std::string("octets.") + to_string(static_cast<TrafficClass>(c));
    obs_.gauge_of(name, stats_.octets_by_class[c]);
  }
}

}  // namespace netmon::net
