#pragma once

// Deterministic replication event log (DESIGN.md §14). Child and parent
// append one line per protocol event — session open/resume, page sent /
// merged / shed, gap reported / applied, duplicate skipped — each stamped
// with the simulation clock. Because the simulator is deterministic, two
// same-seed runs must produce byte-identical export_text() and the same
// digest(); the federation tests diff exactly that. The log is an
// obs::EventLog, so a long soak keeps only the newest kCapacity lines while
// the digest still covers every line ever appended.

#include <cstddef>
#include <sstream>
#include <string>

#include "obs/event_log.hpp"
#include "sim/time.hpp"

namespace netmon::fed {

struct ReplicationEntry {
  sim::TimePoint at;
  std::string line;

  friend void digest_into(obs::Fnv1a& h, const ReplicationEntry& e) {
    h.u64(static_cast<std::uint64_t>(e.at.nanos()));
    h.str(e.line);
  }
};

class ReplicationLog : public obs::EventLog<ReplicationEntry> {
 public:
  static constexpr std::size_t kCapacity = 16384;

  ReplicationLog() : EventLog(kCapacity) {}

  void append(sim::TimePoint at, std::string line) {
    EventLog::append(ReplicationEntry{at, std::move(line)});
  }

  std::string export_text() const {
    std::ostringstream os;
    for (const ReplicationEntry& e : records()) {
      os << "t=" << e.at.nanos() << " " << e.line << "\n";
    }
    return os.str();
  }
};

}  // namespace netmon::fed
