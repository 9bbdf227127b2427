#pragma once

// Connectionless datagram service. SNMP, NTP, NTTCP-UDP, and RTDS all run
// over this; datagram loss emerges from queue drops and collisions in the
// lower layers, never from scripted randomness.

#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "net/packet.hpp"

namespace netmon::net {

class Host;
class UdpStack;

struct UdpCounters {
  std::uint64_t in_datagrams = 0;
  std::uint64_t out_datagrams = 0;
  std::uint64_t no_ports = 0;  // datagrams for which no socket was bound
};

class UdpSocket {
 public:
  using Handler = std::function<void(const Packet&)>;

  ~UdpSocket();
  UdpSocket(const UdpSocket&) = delete;
  UdpSocket& operator=(const UdpSocket&) = delete;

  std::uint16_t port() const { return port_; }

  void set_handler(Handler handler) { handler_ = std::move(handler); }

  // Sends a datagram. payload_bytes is the wire size of the payload;
  // `payload` is the typed content (may be null for pure filler traffic).
  bool send_to(IpAddr dst, std::uint16_t dst_port, std::uint32_t payload_bytes,
               std::shared_ptr<const Payload> payload,
               TrafficClass traffic_class);

  void close();

 private:
  friend class UdpStack;
  UdpSocket(UdpStack& stack, std::uint16_t port) : stack_(&stack), port_(port) {}

  UdpStack* stack_;
  std::uint16_t port_;
  Handler handler_;
};

class UdpStack {
 public:
  explicit UdpStack(Host& host);

  // Ephemeral range (RFC 6335 dynamic ports).
  static constexpr std::uint16_t kEphemeralFirst = 49152;
  static constexpr std::uint16_t kEphemeralLast = 65535;

  // Binds a socket; port 0 picks the next free ephemeral port, wrapping
  // inside the range. Throws if the port is already bound or every
  // ephemeral port is.
  UdpSocket& bind(std::uint16_t port, UdpSocket::Handler handler);

  const UdpCounters& counters() const { return counters_; }
  Host& host() { return host_; }

 private:
  friend class UdpSocket;
  using SocketTable =
      std::unordered_map<std::uint16_t, std::unique_ptr<UdpSocket>>;

  void deliver(const Packet& packet);
  void unbind(std::uint16_t port);
  std::uint16_t allocate_ephemeral();

  Host& host_;
  std::uint16_t next_ephemeral_ = kEphemeralFirst;
  SocketTable sockets_;
  // Closed sockets, still in their extracted table nodes: bind() re-keys
  // and re-inserts one, so a probe's bind/close pair allocates nothing.
  std::vector<SocketTable::node_type> spare_;
  UdpCounters counters_;
};

}  // namespace netmon::net
