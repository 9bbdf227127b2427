#include "net/link.hpp"

#include <stdexcept>

namespace netmon::net {

Link::Link(sim::Simulator& sim, std::string name, double bandwidth_bps,
           sim::Duration propagation_delay)
    : sim_(sim),
      name_(std::move(name)),
      bandwidth_bps_(bandwidth_bps),
      propagation_(propagation_delay) {
  if (bandwidth_bps_ <= 0) throw std::invalid_argument("Link: bandwidth <= 0");
}

void Link::attach(Nic* nic) {
  if (nic == nullptr) throw std::invalid_argument("Link::attach: null nic");
  if (ends_[0] == nullptr) {
    ends_[0] = nic;
  } else if (ends_[1] == nullptr) {
    ends_[1] = nic;
  } else {
    throw std::logic_error("Link::attach: already has two endpoints");
  }
  nic->attach(this);
}

int Link::direction_of(const Nic& nic) const {
  if (&nic == ends_[0]) return 0;
  if (&nic == ends_[1]) return 1;
  throw std::logic_error("Link: nic not attached");
}

void Link::on_frame_queued(Nic& nic) { try_transmit(direction_of(nic)); }

std::vector<Nic*> Link::attached_nics() const {
  std::vector<Nic*> out;
  for (Nic* nic : ends_) {
    if (nic != nullptr) out.push_back(nic);
  }
  return out;
}

void Link::set_up(bool up) {
  if (up_ == up) return;
  up_ = up;
  if (!up_) {
    ++generation_;  // invalidate frames in flight
    busy_ = {false, false};
  } else {
    for (int dir = 0; dir < 2; ++dir) try_transmit(dir);
  }
}

void Link::try_transmit(int dir) {
  if (!up_ || busy_[dir]) return;
  Nic* src = ends_[dir];
  Nic* dst = ends_[1 - dir];
  if (src == nullptr || dst == nullptr) return;
  auto frame = src->dequeue();
  if (!frame) return;

  busy_[dir] = true;
  const std::uint32_t bytes = frame->size_bytes();
  const TrafficClass cls = frame->packet.traffic_class;
  const double bits = static_cast<double>(bytes) * 8.0;
  const auto serialization = sim::Duration::seconds(bits / bandwidth_bps_);
  const std::uint64_t gen = generation_;

  sim_.schedule_in(serialization, [this, dir, gen, bytes, cls] {
    if (gen != generation_) return;  // link went down mid-transmission
    busy_[dir] = false;
    ends_[dir]->note_transmitted(bytes, cls);
    octets_carried_ += bytes;
    octets_by_class_[static_cast<std::size_t>(cls)] += bytes;
    try_transmit(dir);
  });
  // Fault injection (scripted loss/corruption/delay windows): the frame
  // still occupied the link for its serialization time; it is lost, damaged,
  // or late in transit.
  const FaultVerdict verdict = apply_fault_hook(*frame);
  if (verdict.drop || verdict.corrupt) return;
  const std::uint32_t slot = in_flight_.park(std::move(*frame));
  sim_.schedule_in(serialization + propagation_ + verdict.extra_delay,
                   [this, dir, gen, slot] {
    const Frame f = in_flight_.take(slot);
    if (gen != generation_) {
      ++frames_dropped_down_;
      return;
    }
    ends_[1 - dir]->deliver(f);
  });
}

void Link::attach_observability(obs::Registry& registry,
                                const std::string& prefix) {
  obs_ = obs::Scope(registry, prefix);
  obs_.gauge_of("octets_carried", octets_carried_);
  obs_.gauge_of("frames_dropped_down", frames_dropped_down_);
  obs_.gauge_of("up", up_);
  for (std::size_t c = 0; c < kTrafficClassCount; ++c) {
    const std::string name =
        std::string("octets.") + to_string(static_cast<TrafficClass>(c));
    obs_.gauge_of(name, octets_by_class_[c]);
  }
}

}  // namespace netmon::net
