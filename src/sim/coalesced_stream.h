// Fixed-delay packet hops as scheduler streams, with per-item timestamps.
//
// The simulator's hot pipeline hops (wire arrival, NIC firmware exit, DMA
// issue and landing, memory-controller completions, credit doorbells, ECN
// echoes, DCTCP window rollovers) each used to schedule one event per item.
// Each hop's deadlines are generated in non-decreasing order (serialisation
// on a link, a fixed pipeline cost, a constant latency added to a monotonic
// clock), so the hop is really a FIFO *stream* of timestamped items.
//
// CoalescedStream keeps that FIFO explicitly and registers its front with
// the scheduler (EventScheduler::Stream). The scheduler merges the heads of
// all its streams with its own event queue and dispatches one item at a
// time: it advances the clock to the item's exact deadline, pops it, and
// runs the handler — so a model reading sched.now() (token-bucket refills,
// link reservations, occupancy polls) observes precisely the times it would
// have seen with one event per item. An item costs a ring push and a pop,
// not a pooled event.
//
// Determinism is preserved bit-for-bit, not approximately: every push draws
// a seq from the scheduler (allocate_seq), so the (when, seq) key space and
// hence the dispatch order are identical to the one-event-per-item world.
// That rests on deadlines never decreasing, so push checks it in every
// build and throws std::logic_error on a deadline before now() or before
// the previous one.
#pragma once

#include <cstdint>
#include <utility>

#include "common/grow_ring.h"
#include "common/inline_function.h"
#include "common/units.h"
#include "sim/event_scheduler.h"

namespace ceio {

/// FIFO of (when, seq, Item) merged into the scheduler's dispatch order.
/// `Item` must be movable; the handler receives each item at sched.now() ==
/// its deadline.
template <typename Item>
class CoalescedStream final : public EventScheduler::Stream {
 public:
  using Handler = InlineFunction<void(Nanos, Item), 48>;

  CoalescedStream(EventScheduler& sched, Handler handler)
      : Stream(sched), handler_(std::move(handler)) {}

  ~CoalescedStream() { note_destroyed(queue_.size()); }

  /// Queues `item` for delivery at `when`. Deadlines must not precede now()
  /// nor the previous push's deadline — true for every converted hop (link
  /// serialisation, fixed pipeline costs, constant latencies on a monotonic
  /// clock); a push that breaks either throws std::logic_error.
  void push(Nanos when, Item item) {
    if (when < sched_.now()) refuse_deadline(when, sched_.now(), "now()");
    if (!queue_.empty() && when < queue_.back().when) {
      refuse_deadline(when, queue_.back().when, "the previous deadline");
    }
    const std::uint64_t seq = sched_.allocate_seq();
    queue_.push_back(Entry{when, seq, std::move(item)});
    note_push({when, seq}, queue_.size() == 1);
  }

  bool empty() const { return queue_.empty(); }
  std::size_t size() const { return queue_.size(); }

 private:
  struct Entry {
    Nanos when;
    std::uint64_t seq;
    Item item;
  };

  void dispatch_front() override {
    Entry entry = queue_.pop_front();
    if (queue_.empty()) {
      note_empty();
    } else {
      note_next({queue_.front().when, queue_.front().seq});
    }
    handler_(entry.when, std::move(entry.item));
  }

  Handler handler_;
  GrowRing<Entry> queue_;
};

}  // namespace ceio
