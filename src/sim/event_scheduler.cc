#include "sim/event_scheduler.h"

#include <algorithm>
#include <cassert>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>

namespace ceio {

void EventScheduler::Stream::refuse_deadline(Nanos when, Nanos floor, const char* floor_name) {
  throw std::logic_error("CoalescedStream::push: deadline " + std::to_string(when.count()) +
                         " ns precedes " + floor_name + " " + std::to_string(floor.count()) +
                         " ns");
}

EventScheduler::EventScheduler() : buckets_(kWheelSpan), far_(kFarSlots) {}

std::uint32_t EventScheduler::acquire_slot() {
  if (free_head_ != kNil) {
    const std::uint32_t slot = free_head_;
    free_head_ = slots_[slot].next;
    slots_[slot].next = kNil;
    return slot;
  }
  slots_.emplace_back();
  return static_cast<std::uint32_t>(slots_.size() - 1);
}

void EventScheduler::release_slot(std::uint32_t slot) {
  Slot& s = slots_[slot];
  s.cb.reset();  // eagerly destroy the callback and any captured state
  ++s.generation;  // invalidate every outstanding handle to this slot
  push_free(slot);
}

void EventScheduler::sift_up(std::size_t pos) {
  HeapNode node = heap_[pos];
  while (pos > 0) {
    const std::size_t parent = (pos - 1) / 4;
    if (!earlier(node, heap_[parent])) break;
    heap_[pos] = heap_[parent];
    slots_[heap_[pos].slot].pos = static_cast<std::uint32_t>(pos);
    pos = parent;
  }
  heap_[pos] = node;
  slots_[node.slot].pos = static_cast<std::uint32_t>(pos);
}

void EventScheduler::sift_down(std::size_t pos) {
  HeapNode node = heap_[pos];
  const std::size_t size = heap_.size();
  for (;;) {
    const std::size_t first_child = pos * 4 + 1;
    if (first_child >= size) break;
    // Pick the earliest of up to four children.
    std::size_t best = first_child;
    const std::size_t last_child = first_child + 4 < size ? first_child + 4 : size;
    for (std::size_t c = first_child + 1; c < last_child; ++c) {
      if (earlier(heap_[c], heap_[best])) best = c;
    }
    if (!earlier(heap_[best], node)) break;
    heap_[pos] = heap_[best];
    slots_[heap_[pos].slot].pos = static_cast<std::uint32_t>(pos);
    pos = best;
  }
  heap_[pos] = node;
  slots_[node.slot].pos = static_cast<std::uint32_t>(pos);
}

void EventScheduler::heap_remove(std::size_t pos) {
  const std::size_t last = heap_.size() - 1;
  if (pos != last) {
    heap_[pos] = heap_[last];
    slots_[heap_[pos].slot].pos = static_cast<std::uint32_t>(pos);
    heap_.pop_back();
    // The moved node may need to travel either direction.
    if (pos > 0 && earlier(heap_[pos], heap_[(pos - 1) / 4])) {
      sift_up(pos);
    } else {
      sift_down(pos);
    }
  } else {
    heap_.pop_back();
  }
}

void EventScheduler::insert(Nanos when, std::uint64_t seq, std::uint32_t slot) {
  const std::int64_t coarse = coarse_of(when);
  if (coarse < far_next_) {
    wheel_insert(when, seq, slot);
  } else if (coarse < far_next_ + kFarSlots) {
    far_insert(when, seq, slot);
  } else {
    const std::size_t pos = heap_.size();
    heap_.push_back(HeapNode{when, seq, slot});
    slots_[slot].seq = seq;
    slots_[slot].where = kWhereHeap;
    slots_[slot].pos = static_cast<std::uint32_t>(pos);
    sift_up(pos);
  }
}

void EventScheduler::append(SlotList& list, std::uint32_t slot) {
  slots_[slot].next = kNil;
  if (list.head == kNil) {
    list.head = slot;
  } else {
    slots_[list.tail].next = slot;
  }
  list.tail = slot;
  ++list.live;
}

void EventScheduler::wheel_insert(Nanos when, std::uint64_t seq, std::uint32_t slot) {
  const std::uint32_t index = bucket_index(when);
  slots_[slot].seq = seq;
  slots_[slot].where = index;
  append(buckets_[index], slot);
  ++wheel_live_;
  wheel_bits_.set(index);
}

void EventScheduler::far_insert(Nanos when, std::uint64_t seq, std::uint32_t slot) {
  const std::uint32_t index = static_cast<std::uint32_t>(coarse_of(when)) & kFarMask;
  Slot& s = slots_[slot];
  s.seq = seq;
  s.where = kWhereFar + index;
  s.pos = static_cast<std::uint32_t>(when.count()) & (kFarSlotSpan - 1);
  append(far_[index], slot);
  ++far_live_;
  far_bits_.set(index);
}

void EventScheduler::free_front(SlotList& list) {
  const std::uint32_t slot = list.head;
  list.head = slots_[slot].next;
  if (list.head == kNil) list.tail = kNil;
  push_free(slot);
}

void EventScheduler::reset_bucket(std::uint32_t index) {
  // Only tombstones can remain once the last live slot has left.
  skip_tombstones(buckets_[index]);
  wheel_bits_.clear(index);
}

void EventScheduler::cascade(std::uint32_t index, std::int64_t coarse) {
  SlotList& f = far_[index];
  const std::int64_t base = coarse << kFarShift;
  for (std::uint32_t slot = f.head; slot != kNil;) {
    const Slot& s = slots_[slot];
    const std::uint32_t next = s.next;
    if (s.where == kWhereTomb) {
      push_free(slot);
    } else {
      wheel_insert(Nanos{base + s.pos}, s.seq, slot);
    }
    slot = next;
  }
  far_live_ -= f.live;
  f = SlotList{};
  far_bits_.clear(index);
}

void EventScheduler::advance_windows(std::int64_t far_next) {
  // 1. Far slots that fell below the near window, in slot order; the
  //    bitmap skips empty ones, and an empty far tier skips the walk.
  const std::int64_t stop = std::min(far_next, far_next_ + kFarSlots);
  while (far_live_ > 0) {
    const std::uint32_t from = static_cast<std::uint32_t>(far_next_) & kFarMask;
    const std::uint32_t index = far_bits_.find_from(from);
    const std::int64_t coarse = far_next_ + ((index - from) & kFarMask);
    if (coarse >= stop) break;
    cascade(index, coarse);
    far_next_ = coarse + 1;
  }
  far_next_ = far_next;
  // 2. Heap events whose coarse slot entered the far window, in (when, seq)
  //    order; a long jump can land some straight in the wheel.
  while (!heap_.empty() && coarse_of(heap_[0].when) < far_next_ + kFarSlots) {
    const HeapNode top = heap_[0];
    heap_remove(0);
    insert(top.when, top.seq, top.slot);
  }
}

EventHandle EventScheduler::schedule_at(Nanos when, Callback cb) {
  if (when < now_) when = now_;
  const std::uint64_t seq = next_seq_++;
  const std::uint32_t slot = acquire_slot();
  slots_[slot].cb = std::move(cb);
  insert(when, seq, slot);
  // The fresh seq is the largest, so the new event leads only when strictly
  // earlier; a stale front stays stale.
  if (queued_++ == 0 || (front_.seq != 0 && when < front_.when)) front_ = EventKey{when, seq};
  return EventHandle{slot, slots_[slot].generation};
}

bool EventScheduler::cancel(EventHandle handle) {
  if (!is_pending(handle)) return false;
  const std::uint32_t slot = handle.slot_;
  Slot& s = slots_[slot];
  if (s.seq == front_.seq) front_.seq = 0;
  if (s.where == kWhereHeap) {
    heap_remove(s.pos);
    release_slot(slot);
  } else {
    // Tombstone in place: destroy the callback and invalidate the handle
    // now; the slot rejoins the free list when a pop or cascade reaches it.
    const std::uint32_t where = s.where;
    s.cb.reset();
    ++s.generation;
    s.where = kWhereTomb;
    if (where < kWhereFar) {
      SlotList& b = buckets_[where];
      --b.live;
      --wheel_live_;
      if (b.live == 0) reset_bucket(where);
    } else {
      const std::uint32_t index = where - kWhereFar;
      SlotList& f = far_[index];
      --f.live;
      --far_live_;
      if (f.live == 0) {
        skip_tombstones(f);
        far_bits_.clear(index);
      }
    }
  }
  --queued_;
  return true;
}

EventScheduler::EventKey EventScheduler::far_front() const {
  const std::uint32_t from = static_cast<std::uint32_t>(far_next_) & kFarMask;
  const std::uint32_t index = far_bits_.find_from(from);
  const std::int64_t base = (far_next_ + ((index - from) & kFarMask)) << kFarShift;
  EventKey front{Nanos{std::numeric_limits<std::int64_t>::max()}, 0};
  for (std::uint32_t slot = far_[index].head; slot != kNil; slot = slots_[slot].next) {
    const Slot& s = slots_[slot];
    if (s.where == kWhereTomb) continue;
    const Nanos when{base + s.pos};
    if (when < front.when || (when == front.when && s.seq < front.seq)) {
      front = EventKey{when, s.seq};
    }
  }
  return front;
}

void EventScheduler::refresh_front() {
  if (wheel_live_ > 0) {
    const Nanos when = wheel_front_when();
    SlotList& b = buckets_[bucket_index(when)];
    skip_tombstones(b);
    front_ = EventKey{when, slots_[b.head].seq};
  } else if (far_live_ > 0) {
    front_ = far_front();
  } else {
    front_ = EventKey{heap_[0].when, heap_[0].seq};
  }
}

bool EventScheduler::peek(EventKey& out) {
  if (queued_ > 0) {
    if (front_.seq == 0) refresh_front();
    out = heads_.empty() || earlier(front_, heads_[0].key) ? front_ : heads_[0].key;
    return true;
  }
  if (heads_.empty()) return false;
  out = heads_[0].key;
  return true;
}

void EventScheduler::fire_front() {
  const Nanos when = front_.when;
  if (when > now_) set_now(when);
  const std::uint32_t index = bucket_index(when);
  SlotList& b = buckets_[index];
  skip_tombstones(b);
  const std::uint32_t slot = b.head;
  assert(slots_[slot].seq == front_.seq);
  b.head = slots_[slot].next;
  if (b.head == kNil) b.tail = kNil;
  --b.live;
  --wheel_live_;
  --queued_;
  if (b.live == 0) {
    reset_bucket(index);
    front_.seq = 0;
  } else {
    // The rest of this tick's FIFO follows in seq order: its first live
    // slot is the next front.
    skip_tombstones(b);
    front_.seq = slots_[b.head].seq;
  }
  // Move the callback out and release the slot *before* invoking, so the
  // callback can freely schedule (possibly into this very slot) or cancel.
  Callback cb = std::move(slots_[slot].cb);
  release_slot(slot);
  ++executed_;
  cb();
}

void EventScheduler::fire_head(bool run) {
  Stream* const stream = heads_[0].stream;
  if (heads_[0].key.when > now_) set_now(heads_[0].key.when);
  // The next item's time is now_, within any deadline this one met; it runs
  // next while its stream stays the top head and the cached queue front
  // does not precede it (a stale front ends the run for dispatch_next).
  do {
    --stream_items_;
    ++executed_;
    stream->dispatch_front();
  } while (run && !heads_.empty() && heads_[0].stream == stream && heads_[0].key.when == now_ &&
           (queued_ == 0 || (front_.seq != 0 && earlier(heads_[0].key, front_))));
}

bool EventScheduler::dispatch_next(Nanos deadline, bool run) {
  if (queued_ > 0) {
    if (front_.seq == 0) refresh_front();
    if (heads_.empty() || earlier(front_, heads_[0].key)) {
      if (front_.when > deadline) return false;
      fire_front();
      return true;
    }
  } else if (heads_.empty()) {
    return false;
  }
  if (heads_[0].key.when > deadline) return false;
  fire_head(run);
  return true;
}

bool EventScheduler::step() {
  return dispatch_next(Nanos{std::numeric_limits<std::int64_t>::max()}, /*run=*/false);
}

std::uint64_t EventScheduler::run_until(Nanos deadline) {
  const std::uint64_t before = executed_;
  while (dispatch_next(deadline, /*run=*/true)) {
  }
  if (now_ < deadline) set_now(deadline);
  return executed_ - before;
}

std::uint64_t EventScheduler::run_all() {
  const std::uint64_t before = executed_;
  while (dispatch_next(Nanos{std::numeric_limits<std::int64_t>::max()}, /*run=*/true)) {
  }
  return executed_ - before;
}

void EventScheduler::add_head(Stream& stream, EventKey key) {
  heads_.push_back(Head{key, &stream});
  sift_head_up(static_cast<std::uint32_t>(heads_.size() - 1), Head{key, &stream});
}

void EventScheduler::remove_head(std::uint32_t pos) {
  heads_[pos].stream->head_ = Stream::kNoHead;
  const Head last = heads_.back();
  heads_.pop_back();
  if (pos == heads_.size()) return;
  if (pos > 0 && earlier(last.key, heads_[(pos - 1) / 2].key)) {
    sift_head_up(pos, last);
  } else {
    sift_head_down(pos, last);
  }
}

void EventScheduler::sift_head_up(std::uint32_t pos, Head head) {
  while (pos > 0) {
    const std::uint32_t parent = (pos - 1) / 2;
    if (!earlier(head.key, heads_[parent].key)) break;
    place_head(pos, heads_[parent]);
    pos = parent;
  }
  place_head(pos, head);
}

void EventScheduler::sift_head_down(std::uint32_t pos, Head head) {
  const auto size = static_cast<std::uint32_t>(heads_.size());
  for (;;) {
    std::uint32_t child = 2 * pos + 1;
    if (child >= size) break;
    if (child + 1 < size && earlier(heads_[child + 1].key, heads_[child].key)) ++child;
    if (!earlier(heads_[child].key, head.key)) break;
    place_head(pos, heads_[child]);
    pos = child;
  }
  place_head(pos, head);
}

}  // namespace ceio
