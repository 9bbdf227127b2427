#include "fed/child.hpp"

#include <algorithm>
#include <limits>
#include <sstream>

#include "util/backoff.hpp"

namespace netmon::fed {

namespace {

// FNV-1a over the zone name: the stable identity half of the backoff jitter
// key (the attempt number is the varying half).
std::uint64_t zone_key(const std::string& zone) {
  obs::Fnv1a h;
  h.bytes(zone.data(), zone.size());
  return h.value();
}

}  // namespace

FedChild::FedChild(net::Host& host, core::MeasurementDatabase& db,
                   FedChildConfig config)
    : sim_(host.simulator()), host_(host), db_(db), config_(std::move(config)) {}

FedChild::~FedChild() { stop(); }

void FedChild::start() {
  if (started_) return;
  started_ = true;
  running_ = true;
  db_.tiered().set_seal_hook(
      [this](std::uint32_t series, std::size_t tier,
             const core::TierPoint* points, std::size_t n) {
        on_seal(series, tier, points, n);
      });
  db_.set_record_hook([this](core::PathId id, core::Metric metric,
                             const core::MetricValue& value) {
    on_record(id, metric, value);
  });
  log_.append(sim_.now(), "child " + config_.zone + " start");
  connect();
}

void FedChild::stop() {
  if (!started_) return;
  started_ = false;
  running_ = false;
  session_up_ = false;
  db_.tiered().set_seal_hook(nullptr);
  db_.set_record_hook(nullptr);
  retry_timer_.cancel();
  heartbeat_timer_.cancel();
  if (conn_) {
    conn_->set_close_handler(nullptr);
    conn_->set_receive_handler(nullptr);
    conn_->abort();
    conn_.reset();
  }
}

void FedChild::crash() {
  ++stats_.crashes;
  running_ = false;
  session_up_ = false;
  retry_timer_.cancel();
  heartbeat_timer_.cancel();
  if (conn_) {
    // A crashed process sends nothing; just drop our end. The RST of
    // abort() dies on the (also crashed) host's down interfaces.
    conn_->set_close_handler(nullptr);
    conn_->set_receive_handler(nullptr);
    conn_->abort();
    conn_.reset();
  }
  parser_.reset();
  declared_.clear();
  last_delta_ns_.clear();
  in_flight_ = 0;
  for (SpooledPage& p : spool_) p.sent = false;
  for (auto& [series, gaps] : pending_gaps_) {
    for (PendingGap& g : gaps) g.sent = false;
  }
  attempt_ = 0;
  log_.append(sim_.now(), "child " + config_.zone + " crash");
}

void FedChild::restart() {
  if (running_ || !started_) return;
  ++incarnation_;
  ++stats_.restarts;
  running_ = true;
  log_.append(sim_.now(), "child " + config_.zone + " restart incarnation=" +
                              std::to_string(incarnation_));
  connect();
}

void FedChild::on_seal(std::uint32_t series, std::size_t tier,
                       const core::TierPoint* points, std::size_t n) {
  if (tier != 0 || n == 0) return;  // only raw pages travel; rollups are local
  const std::uint64_t seq = ++next_seq_[series];
  ++stats_.pages_spooled;
  stats_.points_spooled += n;
  while (spool_.size() >= config_.spool_max_pages) {
    // Shed the oldest page not currently in flight (preserves per-series
    // seq ordering of what the parent will observe); only a spool smaller
    // than the send window can force an in-flight page out.
    auto victim = std::find_if(spool_.begin(), spool_.end(),
                               [](const SpooledPage& p) { return !p.sent; });
    if (victim == spool_.end()) victim = spool_.begin();
    if (victim->sent && in_flight_ > 0) --in_flight_;
    ++stats_.pages_shed;
    stats_.points_shed += victim->points.size();
    // Pending gaps stay sorted by seq, which pump()'s merge walk relies on.
    // A victim can sort below a gap already pending: a later unsent page
    // is shed while this one is in flight, then the session drops and
    // this one becomes the oldest unsent page.
    std::vector<PendingGap>& gaps = pending_gaps_[victim->series];
    const auto at = std::upper_bound(
        gaps.begin(), gaps.end(), victim->page_seq,
        [](std::uint64_t seq, const PendingGap& g) { return seq < g.from_seq; });
    gaps.insert(at, PendingGap{victim->page_seq, victim->page_seq,
                               victim->points.size(), false});
    log_.append(sim_.now(), "shed series=" + std::to_string(victim->series) +
                                " seq=" + std::to_string(victim->page_seq) +
                                " points=" +
                                std::to_string(victim->points.size()));
    spool_.erase(victim);
  }
  spool_.push_back(SpooledPage{
      series, seq, false, false,
      std::vector<core::TierPoint>(points, points + n)});
  log_.append(sim_.now(), "spool series=" + std::to_string(series) + " seq=" +
                              std::to_string(seq) + " points=" +
                              std::to_string(n));
  if (session_up_) pump();
}

void FedChild::on_record(core::PathId id, core::Metric metric,
                         const core::MetricValue& value) {
  if (!session_up_) {
    ++stats_.deltas_suppressed;
    return;
  }
  const std::uint32_t series =
      static_cast<std::uint32_t>(db_.series_slot(id, metric));
  const std::int64_t at_ns = value.measured_at.nanos();
  if (config_.delta_min_gap.nanos() > 0) {
    auto it = last_delta_ns_.find(series);
    if (it != last_delta_ns_.end() &&
        at_ns - it->second < config_.delta_min_gap.nanos()) {
      ++stats_.deltas_suppressed;
      return;
    }
  }
  declare_series(series);
  send_message(DeltaMsg{series, at_ns, value.value, value.valid});
  last_delta_ns_[series] = at_ns;
  ++stats_.deltas_sent;
}

void FedChild::connect() {
  if (!running_ || conn_) return;
  ++stats_.connects;
  log_.append(sim_.now(), "connect attempt=" + std::to_string(attempt_ + 1));
  conn_ = host_.tcp().connect(config_.parent_ip, config_.parent_port);
  conn_->set_traffic_class(net::TrafficClass::kMonitoring);
  conn_->set_established_handler([this] {
    parser_.reset();
    send_message(HelloMsg{config_.zone, incarnation_, 1});
  });
  conn_->set_receive_handler(
      [this](std::span<const std::byte> data) { on_receive(data); });
  conn_->set_close_handler([this] { session_lost("connection closed"); });
}

void FedChild::schedule_reconnect() {
  ++attempt_;
  const sim::Duration delay = util::jittered_backoff(
      config_.retry_base, config_.retry_max, attempt_,
      zone_key(config_.zone) ^ static_cast<std::uint64_t>(attempt_));
  log_.append(sim_.now(), "backoff attempt=" + std::to_string(attempt_) +
                              " delay=" + delay.to_string());
  retry_timer_ = sim_.schedule_in(delay, [this] {
    conn_.reset();  // safe here: not inside a connection callback
    connect();
  });
}

void FedChild::session_lost(const char* why) {
  if (!running_) return;
  if (!session_up_) {
    ++stats_.connect_failures;
  }
  session_up_ = false;
  heartbeat_timer_.cancel();
  parser_.reset();
  declared_.clear();
  in_flight_ = 0;
  for (SpooledPage& p : spool_) p.sent = false;
  for (auto& [series, gaps] : pending_gaps_) {
    for (PendingGap& g : gaps) g.sent = false;
  }
  log_.append(sim_.now(), std::string("session lost: ") + why);
  schedule_reconnect();
}

void FedChild::on_session_up(const HelloAckMsg& ack) {
  if (ack.incarnation != incarnation_) return;  // stale ack of a former life
  attempt_ = 0;
  session_up_ = true;
  ++stats_.sessions;
  last_ack_progress_ = sim_.now();
  for (const SeriesWatermark& w : ack.watermarks) {
    std::uint64_t& a = acked_[w.series];
    a = std::max(a, w.page_seq);
  }
  // Prune to the parent's watermarks: everything at or below is durably
  // merged (acked in a previous session, possibly after we crashed).
  std::size_t pruned = 0;
  std::erase_if(spool_, [&](const SpooledPage& p) {
    auto it = acked_.find(p.series);
    const bool acked = it != acked_.end() && p.page_seq <= it->second;
    if (acked) {
      ++pruned;
      ++stats_.pages_acked;
    }
    return acked;
  });
  for (auto& [series, gaps] : pending_gaps_) {
    auto it = acked_.find(series);
    if (it == acked_.end()) continue;
    std::erase_if(gaps, [&](const PendingGap& g) {
      return g.to_seq <= it->second;
    });
  }
  log_.append(sim_.now(),
              "session up incarnation=" + std::to_string(incarnation_) +
                  " pruned=" + std::to_string(pruned) +
                  " spool=" + std::to_string(spool_.size()));
  heartbeat_timer_ = sim_.schedule_periodic(config_.heartbeat_period,
                                            [this] { heartbeat_tick(); });
  pump();
}

void FedChild::on_receive(std::span<const std::byte> data) {
  parser_.feed(data);
  try {
    while (auto m = parser_.next()) {
      if (const auto* ack = std::get_if<HelloAckMsg>(&*m)) {
        on_session_up(*ack);
      } else if (const auto* ack = std::get_if<AckMsg>(&*m)) {
        on_ack(*ack);
      }
      // Anything else from the parent is ignored (forward compatibility).
    }
  } catch (const WireError& e) {
    log_.append(sim_.now(), std::string("wire error: ") + e.what());
    parser_.reset();
    if (conn_) conn_->abort();  // close handler drives the reconnect
  }
}

void FedChild::on_ack(const AckMsg& ack) {
  std::uint64_t& a = acked_[ack.series];
  a = std::max(a, ack.page_seq);
  last_ack_progress_ = sim_.now();
  std::erase_if(spool_, [&](const SpooledPage& p) {
    if (p.series != ack.series || p.page_seq > a) return false;
    if (p.sent && in_flight_ > 0) --in_flight_;
    ++stats_.pages_acked;
    return true;
  });
  auto git = pending_gaps_.find(ack.series);
  if (git != pending_gaps_.end()) {
    std::erase_if(git->second,
                  [&](const PendingGap& g) { return g.to_seq <= a; });
  }
  pump();
}

void FedChild::declare_series(std::uint32_t series) {
  if (declared_.count(series) != 0) return;
  const core::PathId id = db_.slot_path(series);
  const core::Path& path = db_.path_of(id);
  SeriesDeclMsg decl;
  decl.series = series;
  decl.metric = static_cast<std::uint8_t>(db_.slot_metric(series));
  decl.endpoints.reserve(path.endpoints().size());
  for (const core::ProcessEndpoint& e : path.endpoints()) {
    decl.endpoints.push_back(WireEndpoint{e.process, e.host.raw(), e.port});
  }
  send_message(decl);
  declared_.insert(series);
}

void FedChild::pump() {
  if (!session_up_) return;
  // Per-series walk in seq order over spooled pages and pending gaps, so
  // the parent always observes each series' sequence contiguously: a gap
  // report never overtakes the pages sealed before it.
  std::map<std::uint32_t, std::vector<SpooledPage*>> by_series;
  for (SpooledPage& p : spool_) by_series[p.series].push_back(&p);
  for (auto& [series, gaps] : pending_gaps_) {
    if (!gaps.empty()) by_series.try_emplace(series);
  }
  constexpr std::uint64_t kNone = std::numeric_limits<std::uint64_t>::max();
  for (auto& [series, pages] : by_series) {
    std::vector<PendingGap>* gaps = nullptr;
    if (auto git = pending_gaps_.find(series); git != pending_gaps_.end()) {
      gaps = &git->second;
    }
    std::size_t gi = 0;
    std::size_t pi = 0;
    for (;;) {
      const std::uint64_t gseq =
          (gaps != nullptr && gi < gaps->size()) ? (*gaps)[gi].from_seq : kNone;
      const std::uint64_t pseq = pi < pages.size() ? pages[pi]->page_seq : kNone;
      if (gseq == kNone && pseq == kNone) break;
      if (gseq < pseq) {
        PendingGap& g = (*gaps)[gi++];
        if (g.sent) continue;
        declare_series(series);
        send_message(GapMsg{series, g.from_seq, g.to_seq, g.points});
        g.sent = true;
        ++stats_.gap_reports;
        log_.append(sim_.now(), "gap series=" + std::to_string(series) +
                                    " seqs=[" + std::to_string(g.from_seq) +
                                    "," + std::to_string(g.to_seq) +
                                    "] points=" + std::to_string(g.points));
      } else {
        SpooledPage* p = pages[pi++];
        if (p->sent) continue;
        if (in_flight_ >= config_.window_pages) return;  // window full
        declare_series(series);
        send_message(PageMsg{series, p->page_seq, 0, p->points});
        p->sent = true;
        if (p->ever_sent) ++stats_.pages_resent;
        p->ever_sent = true;
        ++stats_.pages_sent;
        ++in_flight_;
      }
    }
  }
}

void FedChild::heartbeat_tick() {
  if (!session_up_) return;
  if (in_flight_ > 0 &&
      sim_.now() - last_ack_progress_ > config_.ack_timeout) {
    log_.append(sim_.now(), "ack timeout, aborting session");
    if (conn_) conn_->abort();  // close handler drives the reconnect
    return;
  }
  send_message(HeartbeatMsg{sim_.now().nanos()});
}

void FedChild::send_message(const Message& m) {
  const std::vector<std::byte> frame = encode(m);
  conn_->send(std::span<const std::byte>(frame.data(), frame.size()));
}

std::uint64_t FedChild::watermark_lag_pages() const {
  // Pages sealed but not yet known-merged by the parent (shed ones
  // included until their gap is acknowledged past).
  std::uint64_t lag = 0;
  for (const auto& [series, next] : next_seq_) {
    auto it = acked_.find(series);
    const std::uint64_t acked = it == acked_.end() ? 0 : it->second;
    lag += next - std::min(next, acked);
  }
  return lag;
}

void FedChild::attach_observability(obs::Registry& registry,
                                    const std::string& prefix) {
  obs_ = obs::Scope(registry, prefix);
  obs_.gauge_fn("spool.pages",
                [this] { return static_cast<double>(spool_.size()); });
  obs_.gauge_fn("spool.points", [this] {
    std::uint64_t points = 0;
    for (const SpooledPage& p : spool_) points += p.points.size();
    return static_cast<double>(points);
  });
  obs_.gauge_fn("watermark_lag_pages",
                [this] { return static_cast<double>(watermark_lag_pages()); });
  obs_.gauge_of("session_up", session_up_);
  obs_.gauge_of("incarnation", incarnation_);
  obs_.gauge_of("pages_spooled", stats_.pages_spooled);
  obs_.gauge_of("pages_shed", stats_.pages_shed);
  obs_.gauge_of("pages_sent", stats_.pages_sent);
  obs_.gauge_of("pages_acked", stats_.pages_acked);
  obs_.gauge_of("deltas_sent", stats_.deltas_sent);
  obs_.gauge_of("gap_reports", stats_.gap_reports);
  obs_.gauge_of("sessions", stats_.sessions);
}

}  // namespace netmon::fed
