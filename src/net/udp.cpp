#include "net/udp.hpp"

#include <stdexcept>

#include "net/host.hpp"

namespace netmon::net {

UdpStack::UdpStack(Host& host) : host_(host) {
  host_.set_protocol_handler(IpProto::kUdp,
                             [this](const Packet& p) { deliver(p); });
}

UdpSocket& UdpStack::bind(std::uint16_t port, UdpSocket::Handler handler) {
  if (port == 0) {
    port = allocate_ephemeral();
  } else if (sockets_.count(port) != 0) {
    throw std::logic_error(host_.name() + ": UDP port " +
                           std::to_string(port) + " already bound");
  }
  if (spare_.empty()) {
    auto socket = std::unique_ptr<UdpSocket>(new UdpSocket(*this, port));
    socket->set_handler(std::move(handler));
    return *sockets_.emplace(port, std::move(socket)).first->second;
  }
  SocketTable::node_type node = std::move(spare_.back());
  spare_.pop_back();
  node.key() = port;
  node.mapped()->port_ = port;
  node.mapped()->set_handler(std::move(handler));
  return *sockets_.insert(std::move(node)).position->second;
}

std::uint16_t UdpStack::allocate_ephemeral() {
  constexpr std::uint32_t kRange = kEphemeralLast - kEphemeralFirst + 1;
  for (std::uint32_t tried = 0; tried < kRange; ++tried) {
    const std::uint16_t port = next_ephemeral_;
    next_ephemeral_ = port == kEphemeralLast
                          ? kEphemeralFirst
                          : static_cast<std::uint16_t>(port + 1);
    if (sockets_.count(port) == 0) return port;
  }
  throw std::runtime_error(host_.name() + ": UDP ephemeral ports exhausted");
}

void UdpStack::deliver(const Packet& packet) {
  auto it = sockets_.find(packet.dst_port);
  if (it == sockets_.end()) {
    ++counters_.no_ports;
    return;
  }
  ++counters_.in_datagrams;
  // Copy the handler so a socket closing itself from inside its own
  // callback does not destroy the callable mid-execution.
  if (it->second->handler_) {
    auto handler = it->second->handler_;
    handler(packet);
  }
}

void UdpStack::unbind(std::uint16_t port) {
  SocketTable::node_type node = sockets_.extract(port);
  if (node.empty()) return;
  // Drop the handler's captures now, not when the socket is reused; a
  // running handler is safe, deliver() invokes a copy.
  node.mapped()->handler_ = nullptr;
  spare_.push_back(std::move(node));
}

UdpSocket::~UdpSocket() = default;

bool UdpSocket::send_to(IpAddr dst, std::uint16_t dst_port,
                        std::uint32_t payload_bytes,
                        std::shared_ptr<const Payload> payload,
                        TrafficClass traffic_class) {
  Packet p;
  p.dst = dst;
  p.protocol = IpProto::kUdp;
  p.src_port = port_;
  p.dst_port = dst_port;
  p.payload_bytes = payload_bytes;
  p.traffic_class = traffic_class;
  p.payload = std::move(payload);
  ++stack_->counters_.out_datagrams;
  return stack_->host().send_packet(std::move(p));
}

void UdpSocket::close() {
  // unbind() recycles this socket for a later bind(); nothing may touch
  // members afterwards.
  stack_->unbind(port_);
}

}  // namespace netmon::net
