// Single-producer / single-consumer mailbox for cross-domain messages.
//
// Sharded simulation (see shard_coordinator.h) exchanges timestamped
// messages between event domains. Each ordered domain pair owns one mailbox
// per logical channel; the producing domain pushes during its run phase and
// the consuming domain drains at the next epoch barrier. The epoch barriers
// establish the happens-before edge, but the fast path is still written as
// a classic SPSC ring on atomic cursors so the structure is race-free by
// construction (and visibly so under ThreadSanitizer).
//
// Capacity is fixed at construction; a full ring never blocks and never
// drops. Overflow spills into a producer-side vector that the consumer
// swallows after the ring, preserving exact push order — the "mailbox
// wraparound" contract tests rely on. The spill is only touched by the
// producer between barriers and by the consumer after one, so it needs no
// atomics of its own.
#pragma once

#include <atomic>
#include <cassert>
#include <cstdint>
#include <vector>

#include "common/domain_annotations.h"

namespace ceio {

template <typename Msg>
class SpscMailbox {
  // Mailbox payloads cross a domain boundary by value: the type must opt in
  // via CEIO_DOMAIN_MESSAGE(Msg) (src/common/domain_annotations.h), which
  // asserts it is an owned, movable value and lets the cross-domain rule of
  // tools/lint/ceio_lint.py audit its fields for raw pointers/references
  // into the producing domain.
  static_assert(is_domain_message_v<Msg>,
                "SpscMailbox payloads must be declared with "
                "CEIO_DOMAIN_MESSAGE(Msg); see common/domain_annotations.h");

 public:
  /// `capacity` is rounded up to a power of two (minimum 2).
  explicit SpscMailbox(std::size_t capacity = 1024) {
    std::size_t cap = 2;
    while (cap < capacity) cap <<= 1;
    ring_.resize(cap);
  }

  SpscMailbox(const SpscMailbox&) = delete;
  SpscMailbox& operator=(const SpscMailbox&) = delete;

  // ---- producer side ----

  /// Enqueues a message. Never fails: when the ring is full the message
  /// spills to the overflow vector (drained after the ring, in order).
  void push(Msg msg) {
    const std::uint64_t head = head_.load(std::memory_order_acquire);
    const std::uint64_t tail = tail_.load(std::memory_order_relaxed);
    if (!spill_.empty() || tail - head == ring_.size()) {
      // Once one message spills, later ones must follow it to keep order.
      spill_.push_back(std::move(msg));
      return;
    }
    ring_[tail & (ring_.size() - 1)] = std::move(msg);
    tail_.store(tail + 1, std::memory_order_release);
  }

  // ---- consumer side ----

  /// Moves every queued message (ring first, then spill) into `out`,
  /// preserving push order. Called at an epoch barrier, after the
  /// coordinator has synchronized with the producer.
  void drain_into(std::vector<Msg>& out) {
    const std::uint64_t tail = tail_.load(std::memory_order_acquire);
    std::uint64_t head = head_.load(std::memory_order_relaxed);
    while (head != tail) {
      out.push_back(std::move(ring_[head & (ring_.size() - 1)]));
      ++head;
    }
    head_.store(head, std::memory_order_release);
    if (!spill_.empty()) {
      for (auto& msg : spill_) out.push_back(std::move(msg));
      spill_.clear();
      ++spills_;
    }
  }

  bool empty() const {
    return head_.load(std::memory_order_acquire) == tail_.load(std::memory_order_acquire) &&
           spill_.empty();
  }

  std::size_t ring_capacity() const { return ring_.size(); }
  /// Number of drains that had to swallow an overflow spill.
  std::uint64_t spill_events() const { return spills_; }

 private:
  std::vector<Msg> ring_;
  std::vector<Msg> spill_;  // producer-owned overflow, order-preserving
  std::atomic<std::uint64_t> head_{0};  // consumer cursor
  std::atomic<std::uint64_t> tail_{0};  // producer cursor
  std::uint64_t spills_ = 0;            // consumer-side counter
};

}  // namespace ceio
