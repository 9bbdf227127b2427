#include "fed/parent.hpp"

#include <algorithm>

namespace netmon::fed {

FedParent::FedParent(net::Host& host, core::MeasurementDatabase& db,
                     FedParentConfig config)
    : sim_(host.simulator()), host_(host), db_(db), config_(config) {}

FedParent::~FedParent() { stop(); }

void FedParent::start() {
  if (listening_) return;
  listening_ = true;
  host_.tcp().listen(config_.port,
                     [this](std::shared_ptr<net::TcpConnection> conn) {
                       on_accept(std::move(conn));
                     });
  log_.append(sim_.now(), "parent listening port=" +
                              std::to_string(config_.port));
}

void FedParent::stop() {
  if (!listening_) return;
  listening_ = false;
  host_.tcp().stop_listening(config_.port);
  for (auto& s : sessions_) {
    if (s->conn) {
      s->conn->set_close_handler(nullptr);
      s->conn->set_receive_handler(nullptr);
      s->conn->abort();
    }
  }
  sessions_.clear();
  for (auto& [name, zone] : zones_) zone.session = nullptr;
}

void FedParent::on_accept(std::shared_ptr<net::TcpConnection> conn) {
  auto session = std::make_unique<Session>();
  Session* s = session.get();
  s->conn = std::move(conn);
  sessions_.push_back(std::move(session));
  s->conn->set_receive_handler(
      [this, s](std::span<const std::byte> data) { on_receive(s, data); });
  s->conn->set_close_handler([this, s] { mark_dead(s); });
}

void FedParent::mark_dead(Session* s) {
  if (s->dead) return;
  s->dead = true;
  auto zit = zones_.find(s->zone);
  if (zit != zones_.end() && zit->second.session == s) {
    zit->second.session = nullptr;
  }
  if (!s->zone.empty()) {
    log_.append(sim_.now(), "session closed zone=" + s->zone);
  }
  // Defer destruction: this may run inside the connection's own callback.
  if (!sweep_scheduled_) {
    sweep_scheduled_ = true;
    sim_.schedule_in(sim::Duration::ns(0), [this] { sweep_dead(); });
  }
}

void FedParent::sweep_dead() {
  sweep_scheduled_ = false;
  std::erase_if(sessions_, [](const std::unique_ptr<Session>& s) {
    return s->dead;
  });
}

void FedParent::on_receive(Session* s, std::span<const std::byte> data) {
  if (s->dead) return;
  s->parser.feed(data);
  try {
    while (auto m = s->parser.next()) {
      on_message(s, *m);
      if (s->dead) return;  // a handler may have killed the session
    }
  } catch (const WireError& e) {
    protocol_error(s, e.what());
  }
}

void FedParent::on_message(Session* s, const Message& m) {
  if (const auto* hello = std::get_if<HelloMsg>(&m)) {
    handle_hello(s, *hello);
    return;
  }
  // Every other message requires a bound zone.
  ZoneState* zone = session_zone(s);
  if (zone == nullptr) {
    protocol_error(s, "message before Hello");
    return;
  }
  zone->last_heard = sim_.now();
  if (const auto* decl = std::get_if<SeriesDeclMsg>(&m)) {
    handle_decl(s, *decl);
  } else if (const auto* page = std::get_if<PageMsg>(&m)) {
    handle_page(s, *page);
  } else if (const auto* delta = std::get_if<DeltaMsg>(&m)) {
    handle_delta(s, *delta);
  } else if (const auto* gap = std::get_if<GapMsg>(&m)) {
    handle_gap(s, *gap);
  } else if (std::get_if<HeartbeatMsg>(&m) != nullptr) {
    ++stats_.heartbeats;
  } else {
    protocol_error(s, "unexpected message from child");
  }
}

void FedParent::handle_hello(Session* s, const HelloMsg& m) {
  if (m.zone.empty()) {
    protocol_error(s, "empty zone in Hello");
    return;
  }
  auto [zit, inserted] = zones_.try_emplace(m.zone);
  ZoneState& zone = zit->second;
  if (!inserted) ++stats_.resumes;
  if (zone.session != nullptr && zone.session != s) {
    // A reconnecting child supersedes its old (half-dead) session.
    Session* old = zone.session;
    zone.session = nullptr;
    old->conn->set_close_handler(nullptr);
    old->conn->abort();
    mark_dead(old);
  }
  zone.session = s;
  zone.incarnation = m.incarnation;
  zone.last_heard = sim_.now();
  s->zone = m.zone;
  ++stats_.sessions;

  HelloAckMsg ack;
  ack.incarnation = m.incarnation;
  ack.watermarks.reserve(zone.watermarks.size());
  for (const auto& [series, w] : zone.watermarks) {
    ack.watermarks.push_back(SeriesWatermark{series, w});
  }
  log_.append(sim_.now(), "hello zone=" + m.zone + " incarnation=" +
                              std::to_string(m.incarnation) + " watermarks=" +
                              std::to_string(ack.watermarks.size()));
  send_to(s, ack);
}

void FedParent::handle_decl(Session* s, const SeriesDeclMsg& m) {
  ZoneState& zone = zones_[s->zone];
  if (m.endpoints.size() < 2 || m.metric >= core::kMetricCount) {
    protocol_error(s, "malformed series declaration");
    return;
  }
  std::vector<core::ProcessEndpoint> endpoints;
  endpoints.reserve(m.endpoints.size());
  for (const WireEndpoint& e : m.endpoints) {
    endpoints.push_back(
        core::ProcessEndpoint{e.process, net::IpAddr(e.ip), e.port});
  }
  SeriesBinding binding;
  binding.id = db_.id_of(core::Path(std::move(endpoints)));
  binding.metric = static_cast<core::Metric>(m.metric);
  const bool fresh = zone.series.emplace(m.series, binding).second;
  if (fresh) ++stats_.series_declared;
}

void FedParent::handle_page(Session* s, const PageMsg& m) {
  ZoneState& zone = zones_[s->zone];
  auto bit = zone.series.find(m.series);
  if (bit == zone.series.end()) {
    protocol_error(s, "page for undeclared series");
    return;
  }
  if (page_hook_) page_hook_(s->zone, m);
  std::uint64_t& w = zone.watermarks[m.series];
  if (m.page_seq <= w) {
    ++stats_.duplicates_skipped;
    log_.append(sim_.now(), "dup zone=" + s->zone + " series=" +
                                std::to_string(m.series) + " seq=" +
                                std::to_string(m.page_seq));
  } else {
    if (m.page_seq > w + 1) {
      // Pages vanished without a GapMsg (a gap report lost with a dying
      // session). Count the hole; the child's conservation stats surface
      // the mismatch in tests.
      stats_.implicit_gap_pages += m.page_seq - 1 - w;
      log_.append(sim_.now(), "implicit gap zone=" + s->zone + " series=" +
                                  std::to_string(m.series) + " seqs=[" +
                                  std::to_string(w + 1) + "," +
                                  std::to_string(m.page_seq - 1) + "]");
    }
    db_.merge_points(bit->second.id, bit->second.metric, m.points.data(),
                     m.points.size());
    w = m.page_seq;
    ++stats_.pages_merged;
    stats_.points_merged += m.points.size();
    log_.append(sim_.now(), "merge zone=" + s->zone + " series=" +
                                std::to_string(m.series) + " seq=" +
                                std::to_string(m.page_seq) + " points=" +
                                std::to_string(m.points.size()));
  }
  send_to(s, AckMsg{m.series, w});
}

void FedParent::handle_delta(Session* s, const DeltaMsg& m) {
  ZoneState& zone = zones_[s->zone];
  auto bit = zone.series.find(m.series);
  if (bit == zone.series.end()) {
    protocol_error(s, "delta for undeclared series");
    return;
  }
  core::MetricValue value;
  value.value = m.value;
  value.valid = m.valid;
  value.measured_at = sim::TimePoint::from_nanos(m.at_ns);
  db_.record_current(bit->second.id, bit->second.metric, value);
  ++stats_.deltas_applied;
}

void FedParent::handle_gap(Session* s, const GapMsg& m) {
  ZoneState& zone = zones_[s->zone];
  ++stats_.gap_reports;
  std::uint64_t& w = zone.watermarks[m.series];
  if (m.to_seq <= w) {
    // Already covered: either a re-reported gap or a shed page that was in
    // flight and got merged anyway. Skipping keeps every point counted
    // exactly once (as merged, there).
    log_.append(sim_.now(), "gap skipped zone=" + s->zone + " series=" +
                                std::to_string(m.series) + " seqs=[" +
                                std::to_string(m.from_seq) + "," +
                                std::to_string(m.to_seq) + "]");
  } else {
    if (m.from_seq > w + 1) stats_.implicit_gap_pages += m.from_seq - 1 - w;
    ++stats_.gaps_applied;
    stats_.points_lost += m.points;
    zone.points_lost += m.points;
    w = m.to_seq;
    log_.append(sim_.now(), "gap zone=" + s->zone + " series=" +
                                std::to_string(m.series) + " seqs=[" +
                                std::to_string(m.from_seq) + "," +
                                std::to_string(m.to_seq) + "] points=" +
                                std::to_string(m.points));
  }
  send_to(s, AckMsg{m.series, w});
}

FedParent::ZoneState* FedParent::session_zone(Session* s) {
  if (s->zone.empty()) return nullptr;
  auto it = zones_.find(s->zone);
  return it == zones_.end() ? nullptr : &it->second;
}

void FedParent::protocol_error(Session* s, const std::string& why) {
  ++stats_.protocol_errors;
  log_.append(sim_.now(), "protocol error" +
                              (s->zone.empty() ? std::string()
                                               : " zone=" + s->zone) +
                              ": " + why);
  s->conn->set_close_handler(nullptr);
  s->conn->abort();
  mark_dead(s);
}

void FedParent::send_to(Session* s, const Message& m) {
  const std::vector<std::byte> frame = encode(m);
  s->conn->send(std::span<const std::byte>(frame.data(), frame.size()));
  if (std::get_if<AckMsg>(&m) != nullptr) ++stats_.acks_sent;
}

bool FedParent::zone_known(const std::string& zone) const {
  return zones_.count(zone) != 0;
}

std::optional<sim::Duration> FedParent::zone_silence(const std::string& zone,
                                                     sim::TimePoint now) const {
  auto it = zones_.find(zone);
  if (it == zones_.end()) return std::nullopt;
  return now - it->second.last_heard;
}

bool FedParent::zone_stale(const std::string& zone, sim::TimePoint now) const {
  auto it = zones_.find(zone);
  if (it == zones_.end()) return true;  // never heard of it: maximally stale
  if (it->second.session == nullptr) return true;
  return now - it->second.last_heard > config_.stale_after;
}

std::optional<sim::Duration> FedParent::zone_senescence(
    const std::string& zone, core::PathId id, core::Metric metric,
    sim::TimePoint now) const {
  const auto local = db_.senescence(id, metric, now);
  const auto silence = zone_silence(zone, now);
  if (!zone_stale(zone, now)) return local;
  if (!local) return silence;
  if (!silence) return local;
  return std::max(*local, *silence);
}

std::optional<core::Measurement> FedParent::zone_current(
    const std::string& zone, core::PathId id, core::Metric metric,
    sim::TimePoint now, sim::Duration max_age) const {
  if (zone_stale(zone, now)) return std::nullopt;
  return db_.current(id, metric, now, max_age);
}

std::vector<std::string> FedParent::zones() const {
  std::vector<std::string> names;
  names.reserve(zones_.size());
  for (const auto& [name, zone] : zones_) names.push_back(name);
  return names;
}

std::uint64_t FedParent::zone_points_lost(const std::string& zone) const {
  auto it = zones_.find(zone);
  return it == zones_.end() ? 0 : it->second.points_lost;
}

void FedParent::attach_observability(obs::Registry& registry,
                                     const std::string& prefix) {
  obs_ = obs::Scope(registry, prefix);
  obs_.gauge_of("sessions", stats_.sessions);
  obs_.gauge_of("resumes", stats_.resumes);
  obs_.gauge_of("series_declared", stats_.series_declared);
  obs_.gauge_of("pages_merged", stats_.pages_merged);
  obs_.gauge_of("points_merged", stats_.points_merged);
  obs_.gauge_of("duplicates_skipped", stats_.duplicates_skipped);
  obs_.gauge_of("deltas_applied", stats_.deltas_applied);
  obs_.gauge_of("points_lost", stats_.points_lost);
  obs_.gauge_of("protocol_errors", stats_.protocol_errors);
  obs_.gauge_fn("live_sessions",
                [this] { return static_cast<double>(sessions_.size()); });
}

}  // namespace netmon::fed
