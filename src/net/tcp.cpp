#include "net/tcp.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

#include "net/host.hpp"
#include "util/logging.hpp"

namespace netmon::net {

namespace {
constexpr double kMinRto = 0.02;   // 20 ms floor
constexpr double kMaxRto = 60.0;
}  // namespace

// ---------------------------------------------------------------- TcpStack

TcpStack::TcpStack(Host& host) : host_(host) {
  host_.set_protocol_handler(IpProto::kTcp,
                             [this](const Packet& p) { deliver(p); });
}

TcpStack::~TcpStack() {
  // Application handlers routinely capture the connection's own shared_ptr
  // (e.g. an accept callback keeping the accepted connection alive), which
  // forms a reference cycle through the handler. Connections still open at
  // stack teardown can never fire again, so drop their handlers to break
  // those cycles.
  for (auto& [key, conn] : connections_) {
    conn->on_receive_ = nullptr;
    conn->on_established_ = nullptr;
    conn->on_close_ = nullptr;
  }
}

void TcpStack::listen(std::uint16_t port, AcceptHandler handler) {
  if (!listeners_.emplace(port, std::move(handler)).second) {
    throw std::logic_error(host_.name() + ": TCP port " +
                           std::to_string(port) + " already listening");
  }
}

void TcpStack::stop_listening(std::uint16_t port) { listeners_.erase(port); }

std::uint16_t TcpStack::allocate_port(IpAddr dst, std::uint16_t dst_port) {
  // A rolling counter over the ephemeral range that skips any port whose
  // (remote, local) key is taken or that is listening here, so a new
  // connection can never replace a live one in connections_.
  constexpr std::uint32_t kRange = kEphemeralLast - kEphemeralFirst + 1;
  for (std::uint32_t tried = 0; tried < kRange; ++tried) {
    const std::uint16_t port = next_ephemeral_;
    next_ephemeral_ = port == kEphemeralLast
                          ? kEphemeralFirst
                          : static_cast<std::uint16_t>(port + 1);
    if (connections_.count(ConnKey{dst.raw(), dst_port, port}) == 0 &&
        listeners_.count(port) == 0) {
      return port;
    }
  }
  throw std::runtime_error(host_.name() + ": TCP ephemeral ports to " +
                           dst.to_string() + ":" + std::to_string(dst_port) +
                           " exhausted");
}

std::shared_ptr<TcpConnection> TcpStack::connect(IpAddr dst,
                                                 std::uint16_t dst_port) {
  const std::uint16_t local = allocate_port(dst, dst_port);
  auto conn = std::shared_ptr<TcpConnection>(
      new TcpConnection(*this, dst, dst_port, local));
  connections_[ConnKey{dst.raw(), dst_port, local}] = conn;
  conn->start_connect();
  return conn;
}

void TcpStack::deliver(const Packet& packet) {
  auto meta = payload_as<TcpMeta>(packet);
  if (!meta) return;

  const ConnKey key{packet.src.raw(), packet.src_port, packet.dst_port};
  auto it = connections_.find(key);
  if (it != connections_.end()) {
    it->second->on_segment(packet, *meta);
    return;
  }

  // No connection: a SYN to a listening port performs a passive open.
  if (meta->syn && !meta->ack_flag) {
    auto lit = listeners_.find(packet.dst_port);
    if (lit == listeners_.end()) return;
    auto conn = std::shared_ptr<TcpConnection>(new TcpConnection(
        *this, packet.src, packet.src_port, packet.dst_port));
    conn->state_ = TcpConnection::State::kSynReceived;
    conn->peer_window_ = meta->window;
    connections_[key] = conn;
    // Defer the app notification until the handshake completes.
    auto handler = lit->second;
    conn->set_established_handler([handler, weak = std::weak_ptr(conn)] {
      if (auto c = weak.lock()) handler(c);
    });
    conn->send_control(/*syn=*/true, /*ack=*/true, /*fin=*/false);
    conn->arm_rto();
  }
}

void TcpStack::send_packet(Packet packet) const { host_.send_packet(std::move(packet)); }

void TcpStack::remove(TcpConnection& conn) {
  connections_.erase(
      ConnKey{conn.remote_ip().raw(), conn.remote_port(), conn.local_port()});
}

// ----------------------------------------------------------- TcpConnection

TcpConnection::TcpConnection(TcpStack& stack, IpAddr remote_ip,
                             std::uint16_t remote_port,
                             std::uint16_t local_port)
    : stack_(&stack),
      remote_ip_(remote_ip),
      remote_port_(remote_port),
      local_port_(local_port) {}

TcpConnection::~TcpConnection() { cancel_rto(); }

void TcpConnection::start_connect() {
  state_ = State::kSynSent;
  send_control(/*syn=*/true, /*ack=*/false, /*fin=*/false);
  arm_rto();
}

void TcpConnection::send(std::span<const std::byte> data) {
  if (fin_queued_) throw std::logic_error("TcpConnection::send after close()");
  counters_.bytes_sent += data.size();
  outbound_.insert(outbound_.end(), data.begin(), data.end());
  if (state_ == State::kEstablished || state_ == State::kCloseWait) {
    maybe_send_data();
  }
}

void TcpConnection::send_bytes(std::size_t count) {
  if (fin_queued_) throw std::logic_error("TcpConnection::send after close()");
  counters_.bytes_sent += count;
  outbound_.insert(outbound_.end(), count, std::byte{0});
  if (state_ == State::kEstablished || state_ == State::kCloseWait) {
    maybe_send_data();
  }
}

void TcpConnection::close() {
  if (fin_queued_ || state_ == State::kClosed) return;
  fin_queued_ = true;
  maybe_send_data();
}

void TcpConnection::abort() {
  if (state_ == State::kClosed) return;
  TcpMeta meta;
  meta.rst = true;
  meta.seq = snd_nxt_;
  send_segment(std::move(meta), 0);
  state_ = State::kClosed;
  cancel_rto();
  notify_closed();
  stack_->remove(*this);
}

void TcpConnection::send_control(bool syn, bool ack, bool fin) {
  TcpMeta meta;
  meta.syn = syn;
  meta.fin = fin;
  meta.ack_flag = ack;
  meta.seq = snd_nxt_;
  meta.ack = rcv_nxt_;
  meta.window = kDefaultWindow;
  send_segment(std::move(meta), 0);
}

void TcpConnection::send_ack() {
  send_control(/*syn=*/false, /*ack=*/true, /*fin=*/false);
}

void TcpConnection::send_segment(TcpMeta meta, std::uint32_t payload_bytes) {
  Packet p;
  p.dst = remote_ip_;
  p.protocol = IpProto::kTcp;
  p.src_port = local_port_;
  p.dst_port = remote_port_;
  p.payload_bytes = payload_bytes;
  p.traffic_class = traffic_class_;
  p.tcp.seq = static_cast<std::uint32_t>(meta.seq);
  p.tcp.ack = static_cast<std::uint32_t>(meta.ack);
  p.tcp.syn = meta.syn;
  p.tcp.fin = meta.fin;
  p.tcp.ack_flag = meta.ack_flag;
  p.tcp.rst = meta.rst;
  p.tcp.window = meta.window;
  p.payload = std::make_shared<const TcpMeta>(std::move(meta));
  ++counters_.segments_sent;
  stack_->send_packet(std::move(p));
}

void TcpConnection::enter_established() {
  state_ = State::kEstablished;
  rto_backoff_ = 0;
  if (on_established_) on_established_();
  maybe_send_data();
}

void TcpConnection::on_segment(const Packet& packet, const TcpMeta& meta) {
  (void)packet;
  ++counters_.segments_received;

  if (meta.rst) {
    state_ = State::kClosed;
    cancel_rto();
    notify_closed();
    stack_->remove(*this);
    return;
  }

  peer_window_ = std::max<std::uint64_t>(meta.window, kMss);

  switch (state_) {
    case State::kSynSent:
      if (meta.syn && meta.ack_flag) {
        cancel_rto();
        send_ack();
        enter_established();
      }
      return;
    case State::kSynReceived:
      if (meta.ack_flag && !meta.syn) {
        cancel_rto();
        enter_established();
        // Fall through to process any piggybacked data below.
        break;
      }
      return;
    case State::kClosed:
      return;
    default:
      break;
  }

  if (meta.ack_flag) handle_ack(meta.ack);
  if (!meta.data.empty() || meta.fin) handle_data(meta);
  maybe_send_data();
  maybe_finish_close();
}

void TcpConnection::handle_ack(std::uint64_t ack) {
  if (ack > snd_nxt_) return;  // nonsense ack
  if (ack > snd_una_) {
    const std::uint64_t newly = ack - snd_una_;
    dup_acks_ = 0;
    rto_backoff_ = 0;

    if (timing_active_ && ack >= timing_end_) {
      const auto rtt = stack_->host().simulator().now() - timing_start_;
      update_rtt(rtt.to_seconds());
      timing_active_ = false;
    }

    // Drop acknowledged bytes from the outbound buffer. FIN occupies one
    // sequence number past the data.
    std::uint64_t data_acked = newly;
    if (fin_sent_ && ack > fin_seq_) data_acked -= 1;  // FIN is not data
    data_acked = std::min<std::uint64_t>(data_acked, outbound_.size());
    counters_.bytes_acked += data_acked;
    outbound_.erase(outbound_.begin(),
                    outbound_.begin() + static_cast<std::ptrdiff_t>(data_acked));
    snd_una_ = ack;

    // Congestion control: slow start below ssthresh, else additive increase.
    if (cwnd_ < ssthresh_) {
      cwnd_ += static_cast<double>(std::min<std::uint64_t>(newly, kMss));
    } else {
      cwnd_ += static_cast<double>(kMss) * static_cast<double>(kMss) / cwnd_;
    }

    // NewReno partial-ACK retransmission: while recovering from a loss
    // burst, each advance that stops short of the recovery mark exposes
    // the next hole — fill it now rather than one RTO from now.
    if (ack < recovery_until_) {
      retransmit_head(/*from_timeout=*/false);
    }

    if (snd_una_ == snd_nxt_) {
      cancel_rto();
    } else {
      arm_rto();
    }
  } else if (ack == snd_una_ && snd_nxt_ > snd_una_) {
    ++dup_acks_;
    if (dup_acks_ == 3) {
      ++counters_.fast_retransmissions;
      ssthresh_ = std::max(cwnd_ / 2.0, 2.0 * kMss);
      cwnd_ = ssthresh_ + 3.0 * kMss;
      recovery_until_ = snd_nxt_;
      retransmit_head(/*from_timeout=*/false);
    }
  }
}

void TcpConnection::handle_data(const TcpMeta& meta) {
  if (meta.fin) {
    peer_fin_seen_ = true;
    peer_fin_seq_ = meta.seq + meta.data.size();
  }
  if (!meta.data.empty()) {
    const std::uint64_t seg_end = meta.seq + meta.data.size();
    if (seg_end > rcv_nxt_) {
      if (meta.seq <= rcv_nxt_) {
        // In-order (possibly partially duplicate) data.
        const std::uint64_t skip = rcv_nxt_ - meta.seq;
        std::vector<std::byte> fresh(meta.data.begin() +
                                         static_cast<std::ptrdiff_t>(skip),
                                     meta.data.end());
        rcv_nxt_ = seg_end;
        counters_.bytes_received += fresh.size();
        if (on_receive_) on_receive_(fresh);
        // Drain any queued out-of-order segments that are now contiguous.
        for (auto it = out_of_order_.begin(); it != out_of_order_.end();) {
          if (it->first > rcv_nxt_) break;
          const std::uint64_t end = it->first + it->second.size();
          if (end > rcv_nxt_) {
            const std::uint64_t s = rcv_nxt_ - it->first;
            std::vector<std::byte> chunk(
                it->second.begin() + static_cast<std::ptrdiff_t>(s),
                it->second.end());
            rcv_nxt_ = end;
            counters_.bytes_received += chunk.size();
            if (on_receive_) on_receive_(chunk);
          }
          it = out_of_order_.erase(it);
        }
      } else {
        out_of_order_.emplace(meta.seq, meta.data);
      }
    }
  }
  if (peer_fin_seen_ && rcv_nxt_ == peer_fin_seq_) {
    rcv_nxt_ = peer_fin_seq_ + 1;  // FIN consumes one sequence number
    peer_fin_seen_ = false;
    if (state_ == State::kEstablished) state_ = State::kCloseWait;
    notify_closed();
  }
  send_ack();
}

void TcpConnection::maybe_send_data() {
  if (state_ != State::kEstablished && state_ != State::kCloseWait) return;

  const std::uint64_t window =
      std::min<std::uint64_t>(static_cast<std::uint64_t>(cwnd_), peer_window_);
  while (true) {
    const std::uint64_t inflight = snd_nxt_ - snd_una_;
    if (inflight >= window) break;
    const std::uint64_t unsent_offset = snd_nxt_ - snd_una_;
    const std::uint64_t unsent =
        outbound_.size() > unsent_offset ? outbound_.size() - unsent_offset : 0;
    if (unsent == 0) break;
    const std::uint32_t len = static_cast<std::uint32_t>(std::min<std::uint64_t>(
        {unsent, kMss, window - inflight}));
    if (len == 0) break;

    TcpMeta meta;
    meta.seq = snd_nxt_;
    meta.ack = rcv_nxt_;
    meta.ack_flag = true;
    meta.window = kDefaultWindow;
    meta.data.assign(
        outbound_.begin() + static_cast<std::ptrdiff_t>(unsent_offset),
        outbound_.begin() + static_cast<std::ptrdiff_t>(unsent_offset + len));
    if (!timing_active_) {
      timing_active_ = true;
      timing_end_ = snd_nxt_ + len;
      timing_start_ = stack_->host().simulator().now();
    }
    snd_nxt_ += len;
    send_segment(std::move(meta), len);
    arm_rto();
  }

  // FIN once everything queued has been transmitted.
  if (fin_queued_ && !fin_sent_) {
    const std::uint64_t unsent_offset = snd_nxt_ - snd_una_;
    if (unsent_offset >= outbound_.size()) {
      fin_sent_ = true;
      fin_seq_ = snd_nxt_;
      TcpMeta meta;
      meta.seq = snd_nxt_;
      meta.ack = rcv_nxt_;
      meta.ack_flag = true;
      meta.fin = true;
      meta.window = kDefaultWindow;
      snd_nxt_ += 1;
      if (state_ == State::kEstablished) state_ = State::kFinWait;
      send_segment(std::move(meta), 0);
      arm_rto();
    }
  }
}

void TcpConnection::retransmit_head(bool from_timeout) {
  if (snd_una_ == snd_nxt_) return;
  ++counters_.retransmissions;
  timing_active_ = false;  // Karn: never time across a retransmission

  const bool head_is_fin = fin_sent_ && snd_una_ == fin_seq_;
  TcpMeta meta;
  meta.seq = snd_una_;
  meta.ack = rcv_nxt_;
  meta.ack_flag = true;
  meta.window = kDefaultWindow;
  std::uint32_t len = 0;
  if (head_is_fin) {
    meta.fin = true;
  } else {
    len = static_cast<std::uint32_t>(std::min<std::uint64_t>(
        {outbound_.size(), kMss,
         fin_sent_ ? fin_seq_ - snd_una_ : std::uint64_t(kMss)}));
    meta.data.assign(outbound_.begin(),
                     outbound_.begin() + static_cast<std::ptrdiff_t>(len));
  }
  send_segment(std::move(meta), len);
  if (from_timeout) arm_rto();
}

void TcpConnection::arm_rto() {
  cancel_rto();
  const double rto = std::min(kMaxRto, rto_ * static_cast<double>(1 << std::min(rto_backoff_, 10)));
  rto_timer_ = stack_->host().simulator().schedule_in(
      sim::Duration::seconds(rto), [self = shared_from_this()] { self->on_rto(); });
}

void TcpConnection::cancel_rto() { rto_timer_.cancel(); }

void TcpConnection::on_rto() {
  ++counters_.timeouts;
  ++rto_backoff_;
  switch (state_) {
    case State::kSynSent:
      if (rto_backoff_ > 6) {  // give up connecting
        state_ = State::kClosed;
        notify_closed();
        stack_->remove(*this);
        return;
      }
      send_control(/*syn=*/true, /*ack=*/false, /*fin=*/false);
      arm_rto();
      return;
    case State::kSynReceived:
      send_control(/*syn=*/true, /*ack=*/true, /*fin=*/false);
      arm_rto();
      return;
    case State::kClosed:
      return;
    default:
      break;
  }
  // Data/FIN loss: multiplicative decrease and go back to slow start.
  ssthresh_ = std::max(cwnd_ / 2.0, 2.0 * kMss);
  cwnd_ = kMss;
  dup_acks_ = 0;
  recovery_until_ = snd_nxt_;
  retransmit_head(/*from_timeout=*/true);
}

void TcpConnection::update_rtt(double sample) {
  if (srtt_ == 0.0) {
    srtt_ = sample;
    rttvar_ = sample / 2.0;
  } else {
    constexpr double alpha = 1.0 / 8.0;
    constexpr double beta = 1.0 / 4.0;
    rttvar_ = (1 - beta) * rttvar_ + beta * std::abs(srtt_ - sample);
    srtt_ = (1 - alpha) * srtt_ + alpha * sample;
  }
  rto_ = std::max(kMinRto, srtt_ + 4.0 * rttvar_);
}

void TcpConnection::maybe_finish_close() {
  if (state_ == State::kFinWait && fin_sent_ && snd_una_ > fin_seq_) {
    state_ = State::kClosed;
    cancel_rto();
    notify_closed();
    stack_->remove(*this);
  } else if (state_ == State::kCloseWait && fin_sent_ && snd_una_ > fin_seq_) {
    state_ = State::kClosed;
    cancel_rto();
    stack_->remove(*this);
  }
}

void TcpConnection::notify_closed() {
  if (close_notified_) return;
  close_notified_ = true;
  if (on_close_) on_close_();
}

}  // namespace netmon::net
