#pragma once

// Federation child (DESIGN.md §14): the zone monitor's replication agent.
// It taps its MeasurementDatabase twice — a record hook streams current-value
// deltas for parent-side freshness, and the tiered store's seal hook copies
// every sealed tier-0 page into a bounded outbound spool — and drives one TCP
// session to the parent manager.
//
// Robustness model. The spool, the per-series page sequence counters, and
// the pending gap reports are the child's durable state: crash() wipes only
// the session (connection, parser, in-flight window) and restart() comes
// back under a new incarnation, re-negotiates via Hello/HelloAck watermarks,
// and replays exactly the spooled pages the parent has not acknowledged —
// acked data is never re-sent, unacked data is never lost while spooled.
// When the spool fills (parent slow, partitioned, or gone) the oldest sealed
// page is shed and recorded as a pending GapMsg: a truthful "pages [a,b]
// with N points are gone" the parent accounts instead of waiting for.
// Pending gaps are retained until an ack covers them, so a gap lost with a
// dying session is re-reported on resume. Reconnects use the shared
// deterministic jittered backoff (util/backoff.hpp).

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "core/measurement_db.hpp"
#include "fed/replication_log.hpp"
#include "fed/wire.hpp"
#include "net/host.hpp"
#include "net/tcp.hpp"
#include "obs/metrics.hpp"
#include "sim/simulator.hpp"

namespace netmon::fed {

struct FedChildConfig {
  std::string zone = "zone";
  net::IpAddr parent_ip{};
  std::uint16_t parent_port = 7171;
  // Spool bound, in sealed pages across all series. Full => shed oldest.
  std::size_t spool_max_pages = 512;
  // Max sent-but-unacked pages per session (application-level window; TCP's
  // own buffering is unbounded, this is the backpressure that matters).
  std::size_t window_pages = 32;
  // Reconnect backoff bounds (deterministically jittered per attempt).
  sim::Duration retry_base = sim::Duration::ms(200);
  sim::Duration retry_max = sim::Duration::sec(10);
  // Liveness beacon period while a session is up.
  sim::Duration heartbeat_period = sim::Duration::ms(500);
  // In-flight pages unacked for longer than this mean the parent is
  // unreachable mid-session (established TCP retransmits forever and never
  // reports failure): abort and re-enter backoff.
  sim::Duration ack_timeout = sim::Duration::sec(3);
  // Minimum spacing between streamed deltas per series; 0 streams every
  // recorded sample.
  sim::Duration delta_min_gap{};
};

class FedChild {
 public:
  FedChild(net::Host& host, core::MeasurementDatabase& db,
           FedChildConfig config);
  ~FedChild();
  FedChild(const FedChild&) = delete;
  FedChild& operator=(const FedChild&) = delete;

  // Installs the database hooks and starts connecting. Idempotent.
  void start();
  // Uninstalls hooks and tears the session down (test teardown).
  void stop();

  // Process-crash simulation: volatile session state is lost, durable state
  // (spool, sequence counters, pending gaps, incarnation) survives. The
  // caller pairs this with a fault-plan host crash; no reconnecting happens
  // until restart().
  void crash();
  // Come back from a crash under a new incarnation and re-negotiate.
  void restart();

  bool session_established() const { return session_up_; }
  std::size_t spool_pages() const { return spool_.size(); }

  struct Stats {
    std::uint64_t pages_spooled = 0;
    std::uint64_t points_spooled = 0;
    std::uint64_t pages_shed = 0;
    std::uint64_t points_shed = 0;
    std::uint64_t pages_sent = 0;    // PageMsg frames, replays included
    std::uint64_t pages_resent = 0;  // sent again in a later session
    std::uint64_t pages_acked = 0;
    std::uint64_t deltas_sent = 0;
    std::uint64_t deltas_suppressed = 0;  // no session or rate-limited
    std::uint64_t gap_reports = 0;        // GapMsg frames sent
    std::uint64_t connects = 0;           // connection attempts
    std::uint64_t connect_failures = 0;
    std::uint64_t sessions = 0;  // HelloAck received
    std::uint64_t crashes = 0;
    std::uint64_t restarts = 0;
  };
  const Stats& stats() const { return stats_; }
  const ReplicationLog& log() const { return log_; }
  std::uint64_t incarnation() const { return incarnation_; }

  // "<prefix>.{spool.pages,spool.points,watermark_lag_pages,...}" gauges
  // plus counters mirroring Stats into the registry (and thus the SelfMib).
  void attach_observability(obs::Registry& registry,
                            const std::string& prefix = "fed.child");

 private:
  struct SpooledPage {
    std::uint32_t series = 0;
    std::uint64_t page_seq = 0;
    bool sent = false;       // in flight this session
    bool ever_sent = false;  // sent in any session (resend accounting)
    std::vector<core::TierPoint> points;
  };
  struct PendingGap {
    std::uint64_t from_seq = 0;
    std::uint64_t to_seq = 0;
    std::uint64_t points = 0;
    bool sent = false;  // reported this session (kept until acked past)
  };

  void on_seal(std::uint32_t series, std::size_t tier,
               const core::TierPoint* points, std::size_t n);
  void on_record(core::PathId id, core::Metric metric,
                 const core::MetricValue& value);
  void connect();
  void schedule_reconnect();
  void on_session_up(const HelloAckMsg& ack);
  void on_receive(std::span<const std::byte> data);
  void on_ack(const AckMsg& ack);
  void session_lost(const char* why);
  void declare_series(std::uint32_t series);
  void pump();  // send gaps + unsent pages up to the window
  void heartbeat_tick();
  void send_message(const Message& m);
  std::uint64_t watermark_lag_pages() const;

  sim::Simulator& sim_;
  net::Host& host_;
  core::MeasurementDatabase& db_;
  FedChildConfig config_;

  // --- durable (survives crash()) ---
  std::deque<SpooledPage> spool_;  // global seal order (= shed order)
  std::map<std::uint32_t, std::uint64_t> next_seq_;  // per-series seal count
  std::map<std::uint32_t, std::uint64_t> acked_;     // parent watermarks
  std::map<std::uint32_t, std::vector<PendingGap>> pending_gaps_;
  std::uint64_t incarnation_ = 1;
  Stats stats_;
  ReplicationLog log_;

  // --- volatile (lost on crash()) ---
  bool started_ = false;
  bool running_ = false;   // false between crash() and restart()
  bool session_up_ = false;
  std::shared_ptr<net::TcpConnection> conn_;
  FrameParser parser_;
  std::set<std::uint32_t> declared_;
  std::size_t in_flight_ = 0;
  sim::TimePoint last_ack_progress_{};
  std::map<std::uint32_t, std::int64_t> last_delta_ns_;
  int attempt_ = 0;
  sim::EventHandle retry_timer_;
  sim::EventHandle heartbeat_timer_;

  obs::Scope obs_;
};

}  // namespace netmon::fed
