#pragma once

// Reliable byte-stream transport ("TCP-lite"): three-way handshake,
// cumulative ACKs, Jacobson RTT estimation with exponential backoff,
// fast retransmit on triple duplicate ACKs, and AIMD congestion control
// (slow start + congestion avoidance). Enough machinery that throughput
// probes over it respond to congestion and loss the way the paper's
// NTTCP-over-TCP runs did.

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "net/packet.hpp"
#include "sim/simulator.hpp"

namespace netmon::net {

class Host;
class TcpStack;

// TCP segments carry their payload and 64-bit stream offsets as a typed
// payload object; the 32-bit header fields mirror the low bits for
// wire-format verisimilitude.
struct TcpMeta : Payload {
  std::uint64_t seq = 0;
  std::uint64_t ack = 0;
  bool syn = false;
  bool fin = false;
  bool ack_flag = false;
  bool rst = false;
  std::uint32_t window = 0;
  std::vector<std::byte> data;
};

struct TcpCounters {
  std::uint64_t bytes_sent = 0;      // app bytes handed to send()
  std::uint64_t bytes_acked = 0;
  std::uint64_t bytes_received = 0;  // app bytes delivered in order
  std::uint64_t segments_sent = 0;
  std::uint64_t segments_received = 0;
  std::uint64_t retransmissions = 0;
  std::uint64_t fast_retransmissions = 0;
  std::uint64_t timeouts = 0;
};

class TcpConnection : public std::enable_shared_from_this<TcpConnection> {
 public:
  enum class State {
    kClosed,
    kSynSent,
    kSynReceived,
    kEstablished,
    kFinWait,    // our FIN sent, awaiting its ACK
    kCloseWait,  // peer FIN seen, we may still send
  };

  using ReceiveHandler = std::function<void(std::span<const std::byte>)>;
  using EstablishedHandler = std::function<void()>;
  using CloseHandler = std::function<void()>;

  static constexpr std::uint32_t kMss = 1460;
  static constexpr std::uint64_t kDefaultWindow = 256 * 1024;

  ~TcpConnection();

  State state() const { return state_; }
  IpAddr remote_ip() const { return remote_ip_; }
  std::uint16_t remote_port() const { return remote_port_; }
  std::uint16_t local_port() const { return local_port_; }

  void set_receive_handler(ReceiveHandler h) { on_receive_ = std::move(h); }
  void set_established_handler(EstablishedHandler h) {
    on_established_ = std::move(h);
  }
  void set_close_handler(CloseHandler h) { on_close_ = std::move(h); }
  void set_traffic_class(TrafficClass c) { traffic_class_ = c; }

  // Queues application data for reliable in-order delivery.
  void send(std::span<const std::byte> data);
  // Convenience: queues `count` zero bytes (bulk-transfer probes).
  void send_bytes(std::size_t count);

  // Graceful close: FIN goes out once all queued data is acknowledged.
  void close();
  // Abortive close: RST, no further delivery.
  void abort();

  const TcpCounters& counters() const { return counters_; }
  double smoothed_rtt_seconds() const { return srtt_; }
  double congestion_window() const { return cwnd_; }
  std::uint64_t bytes_unacked() const { return snd_nxt_ - snd_una_; }

 private:
  friend class TcpStack;
  TcpConnection(TcpStack& stack, IpAddr remote_ip, std::uint16_t remote_port,
                std::uint16_t local_port);

  void start_connect();
  void on_segment(const Packet& packet, const TcpMeta& meta);
  void enter_established();
  void handle_ack(std::uint64_t ack);
  void handle_data(const TcpMeta& meta);
  void maybe_send_data();
  void send_segment(TcpMeta meta, std::uint32_t payload_bytes);
  void send_control(bool syn, bool ack, bool fin);
  void send_ack();
  void retransmit_head(bool from_timeout);
  void arm_rto();
  void cancel_rto();
  void on_rto();
  void update_rtt(double sample_seconds);
  void maybe_finish_close();
  void notify_closed();

  TcpStack* stack_;
  IpAddr remote_ip_;
  std::uint16_t remote_port_;
  std::uint16_t local_port_;
  State state_ = State::kClosed;
  TrafficClass traffic_class_ = TrafficClass::kApplication;

  // --- sender ---
  std::deque<std::byte> outbound_;  // [snd_una_, snd_una_+size): unacked+unsent
  std::uint64_t snd_una_ = 0;
  std::uint64_t snd_nxt_ = 0;
  double cwnd_ = 2.0 * kMss;
  double ssthresh_ = 64.0 * kMss;
  std::uint64_t peer_window_ = kDefaultWindow;
  // Karn-style RTT timing: one segment timed at a time, never a
  // retransmitted one (cumulative ACKs of data the peer had buffered
  // out-of-order would otherwise inflate the estimate unboundedly).
  bool timing_active_ = false;
  std::uint64_t timing_end_ = 0;
  sim::TimePoint timing_start_{};
  // NewReno-style recovery: partial ACKs below this mark retransmit the
  // next hole immediately instead of waiting out an RTO per hole.
  std::uint64_t recovery_until_ = 0;
  int dup_acks_ = 0;
  bool fin_queued_ = false;
  bool fin_sent_ = false;
  std::uint64_t fin_seq_ = 0;

  // --- RTO state ---
  double srtt_ = 0.0;
  double rttvar_ = 0.0;
  double rto_ = 0.2;  // seconds; initial
  int rto_backoff_ = 0;
  sim::EventHandle rto_timer_;

  // --- receiver ---
  std::uint64_t rcv_nxt_ = 0;
  std::map<std::uint64_t, std::vector<std::byte>> out_of_order_;
  bool peer_fin_seen_ = false;
  std::uint64_t peer_fin_seq_ = 0;

  ReceiveHandler on_receive_;
  EstablishedHandler on_established_;
  CloseHandler on_close_;
  bool close_notified_ = false;

  TcpCounters counters_;
};

class TcpStack {
 public:
  using AcceptHandler = std::function<void(std::shared_ptr<TcpConnection>)>;

  explicit TcpStack(Host& host);
  ~TcpStack();

  // Passive open.
  void listen(std::uint16_t port, AcceptHandler handler);
  void stop_listening(std::uint16_t port);

  // Ephemeral range for active opens.
  static constexpr std::uint16_t kEphemeralFirst = 32768;
  static constexpr std::uint16_t kEphemeralLast = 65535;

  // Active open; the returned connection reports via its handlers. The
  // local port is the next ephemeral port, wrapping inside the range, whose
  // (remote, local) pair is free; throws when none is.
  std::shared_ptr<TcpConnection> connect(IpAddr dst, std::uint16_t dst_port);

  Host& host() { return host_; }
  std::size_t active_connections() const { return connections_.size(); }

 private:
  friend class TcpConnection;
  struct ConnKey {
    std::uint32_t remote_ip;
    std::uint16_t remote_port;
    std::uint16_t local_port;
    bool operator==(const ConnKey&) const = default;
  };
  struct ConnKeyHash {
    std::size_t operator()(const ConnKey& k) const {
      return std::hash<std::uint64_t>{}(
          (std::uint64_t(k.remote_ip) << 32) |
          (std::uint64_t(k.remote_port) << 16) | k.local_port);
    }
  };

  void deliver(const Packet& packet);
  void send_packet(Packet packet) const;
  void remove(TcpConnection& conn);
  std::uint16_t allocate_port(IpAddr dst, std::uint16_t dst_port);

  Host& host_;
  std::uint16_t next_ephemeral_ = kEphemeralFirst;
  std::unordered_map<std::uint16_t, AcceptHandler> listeners_;
  std::unordered_map<ConnKey, std::shared_ptr<TcpConnection>, ConnKeyHash>
      connections_;
};

}  // namespace netmon::net
