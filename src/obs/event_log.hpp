#pragma once

// The one bounded event-journal type (DESIGN.md §10). Every log the system
// keeps about itself — registry trace events, control-plane actuations,
// federation replication lines, applied faults — is an EventLog<T>: a
// fixed-capacity ring of the newest records plus exact totals, so a
// runaway soak cannot grow memory without bound while tests still see
// every count.
//
// The ring alone would let a same-seed determinism test check only the
// retained tail. So the log also folds *every* appended record, dropped
// ones included, into a running FNV-1a digest: two runs with equal
// digests appended the same records in the same order. A record type
// opts in with a hidden friend `void digest_into(obs::Fnv1a&, const T&)`
// that feeds every field.

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

namespace netmon::obs {

// 64-bit FNV-1a over explicitly fed fields.
class Fnv1a {
 public:
  void bytes(const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      h_ ^= p[i];
      h_ *= 1099511628211ull;
    }
  }
  void u64(std::uint64_t v) { bytes(&v, sizeof v); }
  void f64(double v) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    u64(bits);
  }
  // Length-prefixed, so ("ab", "c") and ("a", "bc") digest differently.
  void str(const std::string& s) {
    u64(s.size());
    bytes(s.data(), s.size());
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 1469598103934665603ull;  // FNV-1a offset basis
};

template <typename T>
class EventLog {
 public:
  explicit EventLog(std::size_t capacity)
      : capacity_(capacity == 0 ? 1 : capacity) {}

  // Appends one record, overwriting the oldest once `capacity` are held.
  // Slots are allocated as the log fills, not up front.
  void append(T record) {
    digest_into(digest_, record);
    if (ring_.size() < capacity_) {
      ring_.push_back(std::move(record));
    } else {
      ring_[emitted_ % capacity_] = std::move(record);
    }
    ++emitted_;
  }

  // Records currently retained, oldest first (at most `capacity`).
  std::vector<T> records() const {
    std::vector<T> out;
    out.reserve(ring_.size());
    for (std::uint64_t i = emitted_ - ring_.size(); i < emitted_; ++i) {
      out.push_back(ring_[i % capacity_]);
    }
    return out;
  }
  // Newest record; the log must not be empty.
  const T& back() const { return ring_[(emitted_ - 1) % capacity_]; }
  bool empty() const { return emitted_ == 0; }

  std::uint64_t emitted() const { return emitted_; }
  std::uint64_t dropped() const { return emitted_ - ring_.size(); }
  std::size_t capacity() const { return capacity_; }
  // FNV-1a over every record ever appended, dropped ones included.
  std::uint64_t digest() const { return digest_.value(); }

 private:
  std::size_t capacity_;
  std::vector<T> ring_;
  std::uint64_t emitted_ = 0;
  Fnv1a digest_;
};

}  // namespace netmon::obs
