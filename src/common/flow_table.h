// Dense per-flow state table: O(1) array lookup on per-packet paths with
// deterministic (key-ordered) iteration for control-plane sweeps.
//
// The per-packet hot paths used to reach flow state through det::OrderedMap
// (a red-black tree: O(log n) pointer-chasing, one cache miss per level —
// at 2^20 flows that is ~20 dependent misses per lookup) or through
// std::unordered_map (hashing plus a bucket probe, and O(n log n) sorted
// snapshots on every deterministic sweep). FlowTable replaces both with a
// paged slot directory plus a chunked slab:
//
//   directory  pages_[id >> 12][id & 4095] -> slot + 1   (0 = absent)
//   slab       chunks_[slot >> 10][slot & 1023] -> T     (addresses stable)
//
// Lookup is two dependent array indexes with no hashing and no comparisons.
// Slots are recycled through a LIFO free list, so steady-state insert/erase
// churn never allocates; values are reset to T{} on erase so held resources
// (rings, maps, buffers) release immediately.
//
// Determinism: iteration (for_each / for_each_desc) walks the directory in
// id order, never in slot or insertion order, so it is a pure function of
// the *key set* — exactly the det::OrderedMap contract the report and
// credit paths were written against (DESIGN.md "Determinism rules").
//
// Mutation during iteration: the callback may erase entries (including its
// own — the walk has already moved past it) but must not insert; an insert
// could land ahead of the cursor on one run and behind it on another
// machine-independent-looking refactor.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <vector>

namespace ceio {

template <typename T>
class FlowTable {
 public:
  using FlowId = std::uint64_t;

  FlowTable() = default;
  FlowTable(const FlowTable&) = delete;
  FlowTable& operator=(const FlowTable&) = delete;
  FlowTable(FlowTable&&) = default;
  FlowTable& operator=(FlowTable&&) = default;

  /// O(1). Null when absent.
  T* find(FlowId id) {
    const std::uint32_t ref = dir_lookup(id);
    return ref == 0 ? nullptr : &slot(ref - 1);
  }
  const T* find(FlowId id) const {
    const std::uint32_t ref = dir_lookup(id);
    return ref == 0 ? nullptr : &slot(ref - 1);
  }

  bool contains(FlowId id) const { return dir_lookup(id) != 0; }

  /// O(1) lookup; inserts a default-constructed T when absent (allocating
  /// only when the directory page or slab chunk must grow — never when a
  /// freed slot can be recycled).
  T& operator[](FlowId id) {
    assert(id < kMaxFlowId && "flow id out of FlowTable range");
    const std::size_t page = id >> kPageShift;
    if (page >= pages_.size()) pages_.resize(page + 1);
    if (!pages_[page]) pages_[page] = std::make_unique<Page>();
    std::uint32_t& ref = pages_[page]->refs[id & kPageMask];
    if (ref == 0) {
      ref = acquire_slot() + 1;
      ++pages_[page]->live;
      ++size_;
    }
    return slot(ref - 1);
  }

  /// O(1). The value is reset to T{} (releasing what it held) and its slot
  /// recycled. Returns true when something was erased.
  bool erase(FlowId id) {
    const std::size_t page = id >> kPageShift;
    if (page >= pages_.size() || !pages_[page]) return false;
    std::uint32_t& ref = pages_[page]->refs[id & kPageMask];
    if (ref == 0) return false;
    const std::uint32_t s = ref - 1;
    slot(s) = T{};
    free_.push_back(s);
    ref = 0;
    --pages_[page]->live;
    --size_;
    return true;
  }

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// Ascending-id iteration: fn(FlowId, T&). Deterministic by construction
  /// (directory walk). fn may erase entries but must not insert.
  template <typename Fn>
  void for_each(Fn&& fn) {
    for (std::size_t p = 0; p < pages_.size(); ++p) {
      if (!pages_[p] || pages_[p]->live == 0) continue;
      for (std::size_t off = 0; off < kPageSize; ++off) {
        const std::uint32_t ref = pages_[p]->refs[off];
        if (ref == 0) continue;
        if (!invoke(fn, (p << kPageShift) | off, slot(ref - 1))) return;
      }
    }
  }
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (std::size_t p = 0; p < pages_.size(); ++p) {
      if (!pages_[p] || pages_[p]->live == 0) continue;
      for (std::size_t off = 0; off < kPageSize; ++off) {
        const std::uint32_t ref = pages_[p]->refs[off];
        if (ref == 0) continue;
        if (!invoke(fn, (p << kPageShift) | off, slot(ref - 1))) return;
      }
    }
  }

  /// Descending-id iteration (the credit controller donates from the
  /// newest incumbents first). fn may return bool; false stops the walk.
  template <typename Fn>
  void for_each_desc(Fn&& fn) {
    for (std::size_t p = pages_.size(); p-- > 0;) {
      if (!pages_[p] || pages_[p]->live == 0) continue;
      for (std::size_t off = kPageSize; off-- > 0;) {
        const std::uint32_t ref = pages_[p]->refs[off];
        if (ref == 0) continue;
        if (!invoke(fn, (p << kPageShift) | off, slot(ref - 1))) return;
      }
    }
  }

 private:
  static constexpr std::size_t kPageShift = 12;
  static constexpr std::size_t kPageSize = std::size_t{1} << kPageShift;
  static constexpr std::size_t kPageMask = kPageSize - 1;
  static constexpr std::size_t kChunkShift = 10;
  static constexpr std::size_t kChunkSize = std::size_t{1} << kChunkShift;
  static constexpr std::size_t kChunkMask = kChunkSize - 1;
  /// Flow ids are small dense integers (1..N); the directory is 8 bytes per
  /// 4096-id page, so even 2^26 covers any realistic deployment while still
  /// catching a buffer-id-namespace value (1<<32 and up) passed by mistake.
  static constexpr FlowId kMaxFlowId = FlowId{1} << 26;

  struct Page {
    std::uint32_t refs[kPageSize] = {};  // slot + 1; 0 = absent
    std::uint32_t live = 0;
  };

  std::uint32_t dir_lookup(FlowId id) const {
    const std::size_t page = id >> kPageShift;
    if (page >= pages_.size() || !pages_[page]) return 0;
    return pages_[page]->refs[id & kPageMask];
  }

  T& slot(std::uint32_t s) { return chunks_[s >> kChunkShift][s & kChunkMask]; }
  const T& slot(std::uint32_t s) const {
    return chunks_[s >> kChunkShift][s & kChunkMask];
  }

  std::uint32_t acquire_slot() {
    if (!free_.empty()) {
      const std::uint32_t s = free_.back();
      free_.pop_back();
      return s;
    }
    const std::uint32_t s = next_slot_++;
    if ((s >> kChunkShift) >= chunks_.size()) {
      chunks_.push_back(std::make_unique<T[]>(kChunkSize));
    }
    return s;
  }

  // Accepts both void- and bool-returning callbacks; false stops the walk.
  template <typename Fn, typename U>
  static bool invoke(Fn&& fn, FlowId id, U& value) {
    if constexpr (std::is_void_v<decltype(fn(id, value))>) {
      fn(id, value);
      return true;
    } else {
      return fn(id, value);
    }
  }

  std::vector<std::unique_ptr<Page>> pages_;
  std::vector<std::unique_ptr<T[]>> chunks_;  // slab: slot addresses never move
  std::vector<std::uint32_t> free_;           // LIFO: reuse stays cache-warm
  std::uint32_t next_slot_ = 0;
  std::size_t size_ = 0;
};

}  // namespace ceio
