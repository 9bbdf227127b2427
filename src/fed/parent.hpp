#pragma once

// Federation parent (DESIGN.md §14): the manager-side replication endpoint.
// It listens for zone monitors, merges their streamed pages into its own
// MeasurementDatabase's tiered store (idempotently: per-(zone, series)
// watermarks make replayed pages no-ops), applies current-value deltas to
// the database's current/last-known fields, accounts child-reported gaps as
// honest point loss, and keeps a liveness view that marks a silent zone
// stale instead of serving its last values as fresh.
//
// Watermark semantics. For each declared series the parent tracks W = the
// highest contiguously applied page sequence. A page with seq <= W is a
// duplicate from a replay — skipped and re-acked. seq == W+1 merges and
// advances W. A GapMsg covering [from, to] with to > W accounts its points
// as lost and advances W past the hole; one with to <= W duplicates a gap
// (or covers a page that slipped through before shedding) and is skipped,
// keeping merged-vs-lost accounting conservative: every spooled point is
// counted exactly once, as merged or as lost.

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
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

struct FedParentConfig {
  std::uint16_t port = 7171;
  // A zone with no traffic (pages, deltas, or heartbeats) for longer than
  // this reads as stale: zone_current() stops answering and
  // zone_senescence() is floored by the silence.
  sim::Duration stale_after = sim::Duration::sec(3);
};

class FedParent {
 public:
  FedParent(net::Host& host, core::MeasurementDatabase& db,
            FedParentConfig config);
  ~FedParent();
  FedParent(const FedParent&) = delete;
  FedParent& operator=(const FedParent&) = delete;

  // Start/stop listening. Idempotent.
  void start();
  void stop();

  // --- liveness / zone-aware reads ---
  bool zone_known(const std::string& zone) const;
  // Time since the zone was last heard from; nullopt for unknown zones.
  std::optional<sim::Duration> zone_silence(const std::string& zone,
                                            sim::TimePoint now) const;
  bool zone_stale(const std::string& zone, sim::TimePoint now) const;
  // Senescence of a replicated series as the parent must report it: the
  // local database age, floored by the zone's silence once the zone is
  // stale — a dead child cannot make its data look fresh.
  std::optional<sim::Duration> zone_senescence(const std::string& zone,
                                               core::PathId id,
                                               core::Metric metric,
                                               sim::TimePoint now) const;
  // Current value, refusing to answer from a stale zone.
  std::optional<core::MetricValue> zone_current(const std::string& zone,
                                                core::PathId id,
                                                core::Metric metric,
                                                sim::TimePoint now,
                                                sim::Duration max_age) const;

  std::vector<std::string> zones() const;
  std::uint64_t zone_points_lost(const std::string& zone) const;

  struct Stats {
    std::uint64_t sessions = 0;  // Hellos accepted
    std::uint64_t resumes = 0;   // Hello for an already-known zone
    std::uint64_t series_declared = 0;
    std::uint64_t pages_merged = 0;
    std::uint64_t points_merged = 0;
    std::uint64_t duplicates_skipped = 0;  // replayed pages (zero re-merge)
    std::uint64_t deltas_applied = 0;
    std::uint64_t gap_reports = 0;  // GapMsg frames received
    std::uint64_t gaps_applied = 0;
    std::uint64_t points_lost = 0;  // from applied gaps — honest loss
    std::uint64_t implicit_gap_pages = 0;  // seq jumps with no GapMsg
    std::uint64_t heartbeats = 0;
    std::uint64_t acks_sent = 0;
    std::uint64_t protocol_errors = 0;
  };
  const Stats& stats() const { return stats_; }
  const ReplicationLog& log() const { return log_; }

  // Test instrumentation: observe each page just before it is merged (or
  // skipped); lets crash tests fire at exact protocol moments.
  using PageHook = std::function<void(const std::string& zone, const PageMsg&)>;
  void set_page_hook(PageHook hook) { page_hook_ = std::move(hook); }

  // "<prefix>.*" gauges mirroring Stats plus per-zone staleness.
  void attach_observability(obs::Registry& registry,
                            const std::string& prefix = "fed.parent");

 private:
  struct Session {
    std::shared_ptr<net::TcpConnection> conn;
    FrameParser parser;
    std::string zone;  // empty until Hello
    bool dead = false;
  };
  struct SeriesBinding {
    core::PathId id = core::kInvalidPathId;
    core::Metric metric = core::Metric::kThroughput;
  };
  struct ZoneState {
    std::uint64_t incarnation = 0;
    sim::TimePoint last_heard{};
    Session* session = nullptr;
    std::map<std::uint32_t, SeriesBinding> series;
    std::map<std::uint32_t, std::uint64_t> watermarks;
    std::uint64_t points_lost = 0;
  };

  void on_accept(std::shared_ptr<net::TcpConnection> conn);
  void on_receive(Session* s, std::span<const std::byte> data);
  void on_message(Session* s, const Message& m);
  void handle_hello(Session* s, const HelloMsg& m);
  void handle_decl(Session* s, const SeriesDeclMsg& m);
  void handle_page(Session* s, const PageMsg& m);
  void handle_delta(Session* s, const DeltaMsg& m);
  void handle_gap(Session* s, const GapMsg& m);
  ZoneState* session_zone(Session* s);
  void protocol_error(Session* s, const std::string& why);
  void mark_dead(Session* s);
  void sweep_dead();
  void send_to(Session* s, const Message& m);

  sim::Simulator& sim_;
  net::Host& host_;
  core::MeasurementDatabase& db_;
  FedParentConfig config_;
  bool listening_ = false;

  std::vector<std::unique_ptr<Session>> sessions_;
  bool sweep_scheduled_ = false;
  std::map<std::string, ZoneState> zones_;
  Stats stats_;
  ReplicationLog log_;
  PageHook page_hook_;

  obs::Scope obs_;
};

}  // namespace netmon::fed
