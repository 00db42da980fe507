// Fixed-capacity ring buffer used to model NIC descriptor rings and the CEIO
// software ring.
//
// This mirrors the semantics of hardware RX rings: a bounded circular queue
// with head (consumer) and tail (producer) indices that grow monotonically;
// the physical slot is index % capacity. Exposing the raw head/tail counters
// matters for CEIO because credit replenishment is keyed to head-pointer
// advancement (lazy release, paper §4.1/§4.2).
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <vector>

namespace ceio {

template <typename T>
class RingBuffer {
 public:
  /// A zero-capacity ring has no valid slot for `index % capacity` to name
  /// (and would silently drop every push), so the capacity is checked here
  /// instead of at first use.
  explicit RingBuffer(std::size_t capacity) : slots_(capacity) {
    if (capacity == 0) {
      throw std::invalid_argument("RingBuffer capacity must be at least 1");
    }
  }

  std::size_t capacity() const { return slots_.size(); }
  std::size_t size() const { return static_cast<std::size_t>(tail_ - head_); }
  bool empty() const { return head_ == tail_; }
  bool full() const { return size() == capacity(); }

  /// Monotonic producer index (number of items ever pushed).
  std::uint64_t tail() const { return tail_; }
  /// Monotonic consumer index (number of items ever popped).
  std::uint64_t head() const { return head_; }

  /// Pushes an entry; returns false (and drops) when the ring is full, which
  /// models the packet-drop behaviour of a full HW RX ring.
  bool push(T value) {
    if (full()) return false;
    slots_[static_cast<std::size_t>(tail_ % capacity())] = std::move(value);
    ++tail_;
    return true;
  }

  /// Pops the oldest entry, or nullopt when empty.
  std::optional<T> pop() {
    if (empty()) return std::nullopt;
    T v = std::move(slots_[static_cast<std::size_t>(head_ % capacity())]);
    ++head_;
    return v;
  }

  /// Peeks at the i-th oldest entry without consuming (i < size()).
  const T& peek(std::size_t i = 0) const {
    return slots_[static_cast<std::size_t>((head_ + i) % capacity())];
  }

  void clear() { head_ = tail_; }

 private:
  std::vector<T> slots_;
  std::uint64_t head_ = 0;
  std::uint64_t tail_ = 0;
};

}  // namespace ceio
