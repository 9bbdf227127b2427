#pragma once

// Fixed-capacity ring buffer; oldest entries are overwritten when full.
// Used by the RMON history group and packet capture.

#include <cstddef>
#include <stdexcept>
#include <vector>

namespace netmon::util {

template <typename T>
class RingBuffer {
 public:
  explicit RingBuffer(std::size_t capacity) : capacity_(capacity) {
    if (capacity_ == 0) throw std::invalid_argument("RingBuffer capacity 0");
    storage_.reserve(capacity_);
  }

  void push(T value) {
    if (storage_.size() < capacity_) {
      storage_.push_back(std::move(value));
    } else {
      storage_[head_] = std::move(value);
      if (++head_ == capacity_) head_ = 0;  // no div on the hot push path
    }
  }

  std::size_t size() const { return storage_.size(); }
  std::size_t capacity() const { return capacity_; }
  bool empty() const { return storage_.empty(); }
  bool full() const { return storage_.size() == capacity_; }

  // i = 0 is the oldest retained entry; i = size()-1 the newest.
  const T& operator[](std::size_t i) const {
    if (i >= storage_.size()) throw std::out_of_range("RingBuffer index");
    return storage_[(head_ + i) % storage_.size()];
  }

  const T& newest() const {
    if (empty()) throw std::out_of_range("RingBuffer empty");
    return (*this)[size() - 1];
  }
  const T& oldest() const {
    if (empty()) throw std::out_of_range("RingBuffer empty");
    return (*this)[0];
  }

  void clear() {
    storage_.clear();
    head_ = 0;
  }

 private:
  std::size_t capacity_;
  std::size_t head_ = 0;  // index of oldest element once full
  std::vector<T> storage_;
};

}  // namespace netmon::util
