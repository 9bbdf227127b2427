#pragma once

// Application-layer reachability probing (the accurate instrumentation
// point, paper §4.3): a UDP echo exchange with timeout and retries. The
// unsound media-layer alternative — sniffing for frames from the source
// host — is available through rmon::Probe::frames_seen_from and compared
// against this probe in EXP-H.

#include <cstdint>

#include "net/host.hpp"
#include "net/udp.hpp"
#include "sim/simulator.hpp"
#include "util/function.hpp"

namespace netmon::nttcp {

constexpr std::uint16_t kEchoPort = 5038;

struct EchoPayload : net::Payload {
  std::uint32_t seq = 0;
  bool reply = false;
};

struct ReachabilityResult {
  bool reachable = false;
  int attempts_used = 0;
  sim::Duration round_trip{};  // of the successful attempt
};

class EchoResponder {
 public:
  EchoResponder(net::Host& host, std::uint16_t port = kEchoPort);
  std::uint64_t echoes() const { return echoes_; }

 private:
  net::Host& host_;
  net::UdpSocket& socket_;
  std::uint64_t echoes_ = 0;
};

class ReachabilityProbe {
 public:
  struct Config {
    std::uint16_t port = kEchoPort;
    std::uint32_t payload_bytes = 32;
    sim::Duration timeout = sim::Duration::ms(500);
    int attempts = 3;
    net::TrafficClass traffic_class = net::TrafficClass::kMonitoring;
  };

  using Callback = util::SmallFunction<void(const ReachabilityResult&)>;

  ReachabilityProbe(net::Host& host, net::IpAddr target, Config config,
                    Callback done);
  ReachabilityProbe(net::Host& host, net::IpAddr target, Callback done);
  ~ReachabilityProbe();
  ReachabilityProbe(const ReachabilityProbe&) = delete;
  ReachabilityProbe& operator=(const ReachabilityProbe&) = delete;

  void start();

 private:
  void attempt();
  void on_reply(const net::Packet& packet);
  void finish(bool reachable, sim::Duration rtt);

  net::Host& host_;
  net::IpAddr target_;
  Config config_;
  Callback done_;
  net::UdpSocket* socket_ = nullptr;
  int attempts_made_ = 0;
  std::uint32_t seq_ = 0;
  sim::TimePoint sent_at_{};
  sim::EventHandle timeout_;
  bool finished_ = false;
};

}  // namespace netmon::nttcp
