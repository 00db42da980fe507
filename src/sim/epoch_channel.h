// Per-epoch channel for cross-domain messages.
//
// Sharded simulation (see shard_coordinator.h) exchanges timestamped
// messages between event domains. Every channel's delay equals the
// coordinator's lookahead, so a message sent during epoch k arrives during
// epoch k+1 (or exactly at its end). The channel therefore needs two slots:
// the producer appends to the slot of its current epoch, and the consumer,
// at the start of epoch k, takes the slot written during epoch k-1. Within
// one epoch the two sides touch different slots, so a consumer's drain may
// overlap its producer's run of the same epoch; the coordinator's
// end-of-epoch barrier is the only synchronisation the channel needs.
//
// Slots are plain vectors that keep their capacity, so a steady-state run
// allocates nothing here; nothing is ever dropped or reordered.
#pragma once

#include <array>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/domain_annotations.h"

namespace ceio {

template <typename Msg>
class EpochChannel {
  // Payloads cross a domain boundary by value: the type must opt in via
  // CEIO_DOMAIN_MESSAGE(Msg) (src/common/domain_annotations.h), which
  // asserts it is an owned, movable value and lets the cross-domain rule of
  // tools/lint/ceio_lint.py audit its fields for raw pointers/references
  // into the producing domain.
  static_assert(is_domain_message_v<Msg>,
                "EpochChannel payloads must be declared with "
                "CEIO_DOMAIN_MESSAGE(Msg); see common/domain_annotations.h");

 public:
  EpochChannel() = default;
  // The producing domain keeps this channel's address.
  EpochChannel(const EpochChannel&) = delete;
  EpochChannel& operator=(const EpochChannel&) = delete;

  /// Producer side: appends `msg` to the slot of epoch `epoch`.
  void push(std::uint64_t epoch, Msg msg) { slots_[epoch & 1].push_back(std::move(msg)); }

  /// Consumer side, at the start of epoch `epoch`: calls `fn(Msg&)` on every
  /// message pushed during epoch `epoch - 1`, in push order (`fn` may move
  /// from it), then empties that slot for epoch `epoch + 1`'s pushes.
  template <typename Fn>
  void drain(std::uint64_t epoch, Fn&& fn) {
    std::vector<Msg>& slot = slots_[(epoch + 1) & 1];
    for (Msg& msg : slot) fn(msg);
    slot.clear();
  }

 private:
  std::array<std::vector<Msg>, 2> slots_;
};

}  // namespace ceio
