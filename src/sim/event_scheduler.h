// Discrete-event scheduler: the heartbeat of the whole simulator.
//
// Every hardware model (NIC firmware, PCIe DMA engine, memory controller,
// CPU polling loop, traffic generators) advances by scheduling callbacks at
// future nanosecond timestamps. Work at equal timestamps runs in scheduling
// order (FIFO via a monotonic sequence number), which makes runs
// bit-for-bit deterministic for a given seed.
//
// Pending work comes in two kinds, and both draw their seq from one counter:
//   * Events: one callback each, queued in the three tiers below.
//   * Stream items: the fixed-delay packet hops (wire arrival, NIC pipeline
//     exit, DMA issue and landing, LLC/DRAM write completion, credit
//     doorbell, ECN echo, DCTCP window rollover) generate their deadlines
//     in non-decreasing order, so each hop is a FIFO: a `Stream` (in
//     practice a CoalescedStream, sim/coalesced_stream.h) that holds its own
//     items. The scheduler keeps only the head key of every non-empty
//     stream, in a binary min-heap.
// Dispatch merges the two: run_until()/step() take the least (when, seq)
// among the queue's front and the top stream head. That is exactly the
// order one event per item would run in; a stream item touches no slot,
// callback, wheel bucket or bitmap.
//
// Queue implementation: three tiers, allocation-free on the steady-state
// path.
//   * Events live in a contiguous slot pool (`slots_`) recycled through a
//     free list; handles are {slot, generation} pairs so cancel() and
//     is_pending() are O(1) array probes — no hash set.
//   * Near tier: a timing wheel of kWheelSpan one-tick (1 ns) buckets. It
//     holds every event due before the end of the *next* coarse slot, so
//     the near window is [now, (now / kFarSlotSpan + 2) * kFarSlotSpan):
//     never longer than kWheelSpan ticks, so two live near events never
//     share a bucket. A hierarchical bitmap (one summary word over 64
//     bucket words) finds the next non-empty bucket in a handful of word
//     scans, and per-bucket FIFO lists are threaded intrusively through the
//     slot pool (reusing the free-list link), so the wheel owns no storage
//     and never allocates. Insert and cancel are O(1); pop is O(1)
//     amortised and independent of queue depth.
//   * Far tier: a coarse wheel of kFarSlots slots of kFarSlotSpan ticks
//     each, covering the kFarSlots coarse slots after the near window
//     (~2.1 ms). Credit epochs (100 µs), Poisson gaps and controller polls
//     land here with an O(1) append to the slot's intrusive FIFO;
//     `Slot::pos` keeps the event's offset inside its coarse slot. A
//     16-word bitmap with a summary word finds the next non-empty slot.
//   * Overflow tier: events beyond the far horizon (start times, multi-ms
//     timers) sit in an indexed 4-ary min-heap over (when, seq).
//   * Clock advance: whenever now() crosses a coarse-slot boundary, and
//     before any work at the new time runs, (1) every far slot that fell
//     below the near window cascades into the wheel, in slot order and each
//     slot in FIFO order, then (2) heap events whose coarse slot entered
//     the far window move down a tier in (when, seq) order. An event's tier
//     is a function of (when, now) alone, so events sharing a timestamp
//     always share a tier.
//   * FIFO determinism across tiers: bucket appends are seq-monotonic.
//     Direct inserts use fresh seqs, and cascades and migrations run
//     before any callback at the new time, in seq order per timestamp. So
//     the first live slot of the first non-empty bucket is the queue's
//     least key.
//   * Cached front: the queue's least key is kept until an insert, cancel
//     or fire changes it. A fire that leaves its bucket non-empty hands the
//     next slot's key straight on, so a same-instant train costs O(1) per
//     event; with the wheel empty, refreshing it scans the first non-empty
//     far slot for its minimum (when, seq).
//   * Cancellation: heap events are removed by sift in O(log n); wheel and
//     far events are tombstoned in place in O(1) — the callback and
//     captured state are destroyed and the handle invalidated at cancel
//     time; the slot returns to the free list when the bucket cursor or the
//     cascade passes it, or at once when its bucket or far slot has no live
//     event left.
//   * Callbacks are `InlineFunction<void(), 48>`: captures up to 48 bytes
//     (a `this` pointer plus a few ids — every callback in this repo) are
//     stored inline and never touch the allocator.
#pragma once

#include <bit>
#include <cstdint>
#include <vector>

#include "common/inline_function.h"
#include "common/units.h"

namespace ceio {

/// Handle used to cancel a pending event: a pool slot plus the generation
/// the slot had when the event was scheduled. Slots are recycled, so a stale
/// handle's generation no longer matches and cancel()/is_pending() reject it
/// in O(1) — a handle can never affect a later event that reused its slot.
class EventHandle {
 public:
  EventHandle() = default;

  bool valid() const { return slot_ != kInvalidSlot; }

 private:
  friend class EventScheduler;
  static constexpr std::uint32_t kInvalidSlot = 0xffffffffu;
  EventHandle(std::uint32_t slot, std::uint32_t generation)
      : slot_(slot), generation_(generation) {}
  std::uint32_t slot_ = kInvalidSlot;
  std::uint32_t generation_ = 0;
};

class EventScheduler {
 public:
  /// Inline budget of 48 bytes covers a `this` pointer plus five 8-byte
  /// captures; see common/inline_function.h for the fallback behaviour.
  using Callback = InlineFunction<void(), 48>;

  /// Sort key of pending work. Two keys never match: `seq` is unique, and
  /// (when, seq) lexicographic order is the execution order.
  struct EventKey {
    Nanos when;
    std::uint64_t seq;
  };

  /// A FIFO of timestamped items that the scheduler merges into its
  /// dispatch order; CoalescedStream is the one implementation. Each item's
  /// key is (deadline, seq from allocate_seq() at push), and deadlines never
  /// decrease, so the front item is the stream's least key. The stream
  /// reports its front through the note_* calls; the scheduler keeps it in
  /// its heap of heads and calls dispatch_front() when it is the least key
  /// pending.
  class Stream {
   public:
    Stream(const Stream&) = delete;
    Stream& operator=(const Stream&) = delete;

   protected:
    explicit Stream(EventScheduler& sched) : sched_(sched) {}
    ~Stream() = default;

    /// Counts an item just queued under `key`; the item becomes the head
    /// when it is the stream's only one.
    void note_push(EventKey key, bool only_item) {
      ++sched_.stream_items_;
      if (only_item) sched_.add_head(*this, key);
    }
    /// From dispatch_front(), after popping the head item: the new front's
    /// key, or note_empty() when none is left.
    void note_next(EventKey next) { sched_.rekey_top(next); }
    void note_empty() { sched_.remove_head(0); }
    /// From the destructor: forgets the stream's `items` queued items.
    void note_destroyed(std::size_t items) {
      sched_.stream_items_ -= items;
      if (head_ != kNoHead) sched_.remove_head(head_);
    }
    /// Refuses a push whose deadline precedes `floor` (now() or the
    /// previous deadline), naming both times.
    [[noreturn]] static void refuse_deadline(Nanos when, Nanos floor, const char* floor_name);

    EventScheduler& sched_;

   private:
    friend class EventScheduler;
    static constexpr std::uint32_t kNoHead = 0xffffffffu;
    /// Pops the front item, reports the new front (note_next/note_empty),
    /// then runs the item's handler. Called at now() == its deadline.
    virtual void dispatch_front() = 0;
    std::uint32_t head_ = kNoHead;  // index in the scheduler's heads_
  };

  EventScheduler();

  /// Current simulation time. Monotonically non-decreasing.
  Nanos now() const { return now_; }

  /// Schedules `cb` to run at absolute time `when` (clamped to now()).
  EventHandle schedule_at(Nanos when, Callback cb);

  /// Schedules `cb` to run `delay` ns from now.
  EventHandle schedule_after(Nanos delay, Callback cb) {
    return schedule_at(now_ + (delay > Nanos{0} ? delay : Nanos{0}), std::move(cb));
  }

  /// Draws the seq the next schedule_at would have used. A stream draws
  /// one per item at push time, so the key space is identical to the one a
  /// scheduled event per item would use — the determinism guarantee hangs
  /// on this.
  std::uint64_t allocate_seq() { return next_seq_++; }

  /// Cancels a pending event, destroying its callback (and any captured
  /// owning state) immediately. No-op for already-fired, stale or invalid
  /// handles. Returns true when a pending event was actually cancelled.
  bool cancel(EventHandle handle);

  /// True while the event is still queued and not cancelled.
  bool is_pending(EventHandle handle) const {
    return handle.slot_ < slots_.size() &&
           slots_[handle.slot_].generation == handle.generation_ &&
           slots_[handle.slot_].where != kWhereFree;
  }

  /// Key of the least pending event or stream item, or false when nothing
  /// is pending. Non-const because it may refresh the cached queue front.
  bool peek(EventKey& out);

  /// Runs pending work until nothing is left or the least key lies past
  /// `deadline`; time stops exactly at the deadline if work remains beyond
  /// it. Returns the number of events and stream items executed.
  std::uint64_t run_until(Nanos deadline);

  /// Runs until nothing is pending.
  std::uint64_t run_all();

  /// Executes exactly one event or stream item if any is pending. Returns
  /// false when nothing is.
  bool step();

  bool empty() const { return pending() == 0; }
  /// Queued events plus queued stream items.
  std::size_t pending() const { return queued_ + stream_items_; }
  /// Events and stream items executed so far.
  std::uint64_t executed() const { return executed_; }

  /// Longest near window covered by the timing wheel, in ticks (= ns).
  static constexpr std::uint32_t kWheelSpan = 4096;
  /// Width of one far-tier slot, in ticks. The near window runs to the end
  /// of the coarse slot after now's, so it spans 2049..4096 ticks and
  /// never wraps the wheel.
  static constexpr std::uint32_t kFarSlotSpan = 2048;
  static_assert(2 * kFarSlotSpan == kWheelSpan, "a far slot spans half the wheel");
  /// Far-tier slots; the far horizon is kFarSlots * kFarSlotSpan (~2.1 ms).
  static constexpr std::uint32_t kFarSlots = 1024;

 private:
  static constexpr std::uint32_t kNil = 0xffffffffu;
  static constexpr std::uint32_t kWheelMask = kWheelSpan - 1;
  static constexpr std::uint32_t kFarMask = kFarSlots - 1;
  static constexpr int kFarShift = std::countr_zero(kFarSlotSpan);
  // `where` values: a bucket index [0, kWheelSpan), kWhereFar plus a far
  // slot index, or one of the sentinels.
  static constexpr std::uint32_t kWhereFar = kWheelSpan;
  static constexpr std::uint32_t kWhereFree = 0xffffffffu;
  static constexpr std::uint32_t kWhereHeap = 0xfffffffeu;
  static constexpr std::uint32_t kWhereTomb = 0xfffffffdu;  // cancelled, in a bucket or far list
  static_assert(kWhereFar + kFarSlots < kWhereTomb);

  struct Slot {
    Callback cb;
    std::uint64_t seq = 0;  // sort key while queued
    std::uint32_t generation = 0;  // bumped every release; 0 never matches a live handle twice
    std::uint32_t where = kWhereFree;  // see the `where` values above
    // Index within heap_ while where == kWhereHeap; the offset of `when`
    // inside its coarse slot while in a far slot.
    std::uint32_t pos = 0;
    std::uint32_t next = kNil;  // free-list link when free, FIFO link when in a list
  };

  // Heap nodes carry the full sort key so sifts stay inside this array.
  struct HeapNode {
    Nanos when;
    std::uint64_t seq;   // monotonic: FIFO tiebreak at equal timestamps
    std::uint32_t slot;
  };

  // A FIFO of pool slots linked through Slot::next: one far slot, or the
  // base of one wheel tick. Cancelled slots stay linked as tombstones
  // (where == kWhereTomb) and return to the free list when a pop or a
  // cascade reaches them, or when the list has no live slot left.
  struct SlotList {
    std::uint32_t head = kNil;
    std::uint32_t tail = kNil;
    std::uint32_t live = 0;  // non-tombstone slots in the list
  };

  // A stream's head in heads_: its front item's key.
  struct Head {
    EventKey key;
    Stream* stream;
  };

  // One bit per entry of a circular array of N buckets, plus a summary word
  // whose bit w is set iff word w is non-zero.
  template <std::uint32_t N>
  struct RingBitmap {
    static_assert(N % 64 == 0 && N / 64 <= 64);
    static constexpr std::uint32_t kWords = N / 64;
    std::uint64_t words[kWords] = {};
    std::uint64_t summary = 0;

    void set(std::uint32_t i) {
      words[i >> 6] |= 1ull << (i & 63);
      summary |= 1ull << (i >> 6);
    }
    void clear(std::uint32_t i) {
      words[i >> 6] &= ~(1ull << (i & 63));
      if (words[i >> 6] == 0) summary &= ~(1ull << (i >> 6));
    }
    /// First set bit in circular order from `from`. Precondition: any bit set.
    std::uint32_t find_from(std::uint32_t from) const {
      const std::uint32_t w0 = from >> 6;
      const std::uint64_t first = words[w0] & (~0ull << (from & 63));
      if (first != 0) return (w0 << 6) | static_cast<std::uint32_t>(std::countr_zero(first));
      // Whole words strictly after w0, then wrap around through w0 itself
      // (covering the bits below `from` that the masked probe skipped).
      const std::uint64_t later = w0 == kWords - 1 ? 0 : summary & (~0ull << (w0 + 1));
      const std::uint64_t pool = later != 0 ? later : summary;
      const std::uint32_t w = static_cast<std::uint32_t>(std::countr_zero(pool));
      return (w << 6) | static_cast<std::uint32_t>(std::countr_zero(words[w]));
    }
  };

  static bool earlier(const HeapNode& a, const HeapNode& b) {
    return a.when != b.when ? a.when < b.when : a.seq < b.seq;
  }
  static bool earlier(const EventKey& a, const EventKey& b) {
    return a.when != b.when ? a.when < b.when : a.seq < b.seq;
  }
  static std::int64_t coarse_of(Nanos when) { return when.count() >> kFarShift; }

  std::uint32_t acquire_slot();
  void release_slot(std::uint32_t slot);
  /// Pushes a slot whose callback is already gone onto the free list.
  void push_free(std::uint32_t slot) {
    slots_[slot].where = kWhereFree;
    slots_[slot].next = free_head_;
    free_head_ = slot;
  }
  void sift_up(std::size_t pos);
  void sift_down(std::size_t pos);
  void heap_remove(std::size_t pos);

  std::uint32_t bucket_index(Nanos when) const {
    return static_cast<std::uint32_t>(when.count()) & kWheelMask;
  }
  /// Queues `slot` in the tier that (when, now) selects.
  void insert(Nanos when, std::uint64_t seq, std::uint32_t slot);
  void wheel_insert(Nanos when, std::uint64_t seq, std::uint32_t slot);
  void far_insert(Nanos when, std::uint64_t seq, std::uint32_t slot);
  /// Appends `slot` at the list's tail and counts it live.
  void append(SlotList& list, std::uint32_t slot);
  /// Unlinks the list's front slot and pushes it onto the free list.
  void free_front(SlotList& list);
  /// Frees leading tombstones; afterwards head is live or the list is empty.
  void skip_tombstones(SlotList& list) {
    while (list.head != kNil && slots_[list.head].where == kWhereTomb) free_front(list);
  }
  void reset_bucket(std::uint32_t index);
  /// Moves far slot `index`, holding coarse slot `coarse`, into the wheel in
  /// FIFO order, freeing its tombstones.
  void cascade(std::uint32_t index, std::int64_t coarse);
  /// Sets now() to `when`; when that crosses a coarse-slot boundary, pulls
  /// far slots and heap events into the windows that moved. Runs before any
  /// callback at the new time executes, so bucket FIFOs see cascaded and
  /// migrated (smaller-seq) entries ahead of same-tick direct inserts.
  void set_now(Nanos when) {
    now_ = when;
    const std::int64_t far_next = coarse_of(when) + 2;
    if (far_next != far_next_) advance_windows(far_next);
  }
  void advance_windows(std::int64_t far_next);
  /// Timestamp of the first non-empty wheel bucket.
  /// Precondition: wheel_live_ > 0.
  Nanos wheel_front_when() const {
    const std::uint32_t start = bucket_index(now_);
    return now_ + Nanos{(wheel_bits_.find_from(start) - start) & kWheelMask};
  }
  /// Earliest (when, seq) in the first non-empty far slot.
  /// Precondition: far_live_ > 0.
  EventKey far_front() const;
  /// Recomputes front_ from the tiers. Precondition: queued_ > 0.
  void refresh_front();
  /// Runs the least pending event or stream item unless its time is past
  /// `deadline`; with `run`, a stream item is followed by the rest of its
  /// same-instant run (see fire_head). Returns false when it ran nothing.
  bool dispatch_next(Nanos deadline, bool run);
  /// Advances to front_ and executes that event.
  void fire_front();
  /// Advances to the top stream head and dispatches its item; with `run`,
  /// then the stream's next items while each is still the least key
  /// pending at the same instant, without returning to dispatch_next.
  void fire_head(bool run);

  // The heap of stream heads, a binary min-heap over Head::key; each
  // stream's Stream::head_ tracks its index.
  void add_head(Stream& stream, EventKey key);
  /// Gives the top head (the stream being dispatched) its next key. Keys
  /// only grow, so it sifts down only when a child now precedes it; along a
  /// same-instant train it stays on top for two compares an item.
  void rekey_top(EventKey key) {
    heads_[0].key = key;
    const std::size_t n = heads_.size();
    if ((n > 1 && earlier(heads_[1].key, key)) || (n > 2 && earlier(heads_[2].key, key))) {
      sift_head_down(0, heads_[0]);
    }
  }
  void remove_head(std::uint32_t pos);
  void place_head(std::uint32_t pos, const Head& head) {
    heads_[pos] = head;
    head.stream->head_ = pos;
  }
  void sift_head_up(std::uint32_t pos, Head head);
  void sift_head_down(std::uint32_t pos, Head head);

  std::vector<Slot> slots_;
  std::vector<HeapNode> heap_;  // 4-ary min-heap over events past the far horizon
  std::vector<SlotList> buckets_;  // kWheelSpan near-future FIFOs
  std::vector<SlotList> far_;      // kFarSlots coarse FIFOs
  std::vector<Head> heads_;        // non-empty streams' heads, min-heap
  RingBitmap<kWheelSpan> wheel_bits_;  // bucket i set iff buckets_[i].live > 0
  RingBitmap<kFarSlots> far_bits_;     // slot i set iff far_[i].live > 0
  std::uint32_t wheel_live_ = 0;  // live (non-tombstone) wheel entries
  std::uint32_t far_live_ = 0;    // live (non-tombstone) far entries
  std::size_t queued_ = 0;        // live events across all three tiers
  std::size_t stream_items_ = 0;  // items queued in streams
  // The queue's least key while queued_ > 0; seq 0 (never drawn) marks it
  // stale until the next dispatch recomputes it.
  EventKey front_{Nanos{0}, 0};
  std::uint32_t free_head_ = kNil;
  Nanos now_{0};
  // Coarse slot (when / kFarSlotSpan) that far slot `far_next_ & kFarMask`
  // holds: now's coarse slot + 2. Near events sit below it, far events in
  // [far_next_, far_next_ + kFarSlots), heap events at or beyond that.
  std::int64_t far_next_ = 2;
  std::uint64_t next_seq_ = 1;
  std::uint64_t executed_ = 0;
};

}  // namespace ceio
