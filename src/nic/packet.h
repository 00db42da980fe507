// Core packet and flow vocabulary shared by the network, NIC and host layers.
#pragma once

#include <cassert>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/units.h"
#include "host/cache.h"

namespace ceio {

using FlowId = std::uint32_t;

/// The two I/O flow classes from paper §2.1.
enum class FlowKind {
  kCpuInvolved,  // ❶ NIC -> LLC -> CPU (RPC, NF, DB — needs CPU processing)
  kCpuBypass,    // ❷ NIC -> LLC -> DRAM (DFS bulk data, RDMA writes)
};

inline const char* to_string(FlowKind kind) {
  return kind == FlowKind::kCpuInvolved ? "cpu-involved" : "cpu-bypass";
}

/// A network packet as seen end to end. Packets are value types; the
/// "payload" is synthetic (only sizes and identities matter to the models).
struct Packet {
  FlowId flow = 0;
  std::uint64_t seq = 0;       // per-flow sequence number, assigned at sender
  Bytes size{0};              // wire payload bytes (headers included)
  Nanos created{0};           // send timestamp (latency measurement origin)
  Nanos nic_arrival{0};       // set when the packet reaches the RX pipeline
  bool ecn = false;            // ECN CE mark from the network bottleneck
  std::uint64_t message_id = 0;   // message this packet belongs to
  std::uint32_t message_pkts = 1; // packets in the message
  bool last_in_message = false;   // completes the message (triggers app logic)
  BufferId host_buffer = 0;    // host RX buffer, assigned at DMA time
};

class PacketPool;

/// Generation-checked 32-bit handle to a packet parked in a PacketPool.
/// Handles are what the hot pipeline hops move through their queues and
/// capture in their completion callbacks: 4 bytes instead of the full
/// ~80-byte Packet, so ring slots stay dense and callbacks stay inside the
/// InlineFunction inline budget. The low 8 bits carry the slot's generation
/// at hand-out time, the high 24 bits the slot index + 1 (all-zero bits is
/// the null handle), so a handle whose slot has since been recycled resolves
/// to nullptr instead of someone else's packet — for up to 255 intervening
/// reuses of the slot (the 8-bit generation then wraps; see PacketPool).
class PacketRef {
 public:
  PacketRef() = default;

  explicit operator bool() const { return bits_ != 0; }
  /// The raw encoded handle (diagnostics and tests).
  std::uint32_t raw() const { return bits_; }

 private:
  friend class PacketPool;

  PacketRef(std::uint32_t slot, std::uint8_t generation)
      : bits_(((slot + 1) << 8) | generation) {}

  std::uint32_t slot() const { return (bits_ >> 8) - 1; }
  std::uint8_t generation() const { return static_cast<std::uint8_t>(bits_ & 0xffu); }

  std::uint32_t bits_ = 0;
};

/// Slab allocator for in-flight packets, one per pipeline component (NIC
/// ingress, wire, datapath). Strictly domain-local — a PacketRef must never
/// cross an event-domain boundary; boundaries move Packet values (channel
/// messages), so no domain holds a ref into another domain's pool.
///
/// Storage is a chunked slab (stable addresses: a resolved Packet* stays
/// valid across make() calls) with a LIFO free list, so a steady-state
/// make/take cycle reuses the same hot slots and never allocates. take()
/// bumps the slot's 8-bit generation, invalidating every outstanding handle
/// to it; after 256 recycles of one slot the generation wraps and a
/// sufficiently stale handle would alias (the classic ABA caveat — fine
/// here, where handles live for one DMA or CPU round trip, and covered by
/// the pool tests).
class PacketPool {
 public:
  /// Parks a packet and returns its handle. O(1), allocation-free once the
  /// slab has grown to the steady-state in-flight depth.
  PacketRef make(Packet pkt) {  // lint: allow-packet-copy (move-sink)
    std::uint32_t slot;
    if (!free_.empty()) {
      slot = free_.back();
      free_.pop_back();
    } else {
      slot = high_water_++;
      assert(slot < kMaxSlots && "PacketPool exhausted (2^24-1 live packets)");
      if ((slot >> kChunkShift) == chunks_.size()) {
        chunks_.push_back(std::make_unique<Chunk>());
      }
    }
    Chunk& chunk = *chunks_[slot >> kChunkShift];
    chunk.pkts[slot & kChunkMask] = std::move(pkt);
    ++live_;
    return PacketRef(slot, chunk.gen[slot & kChunkMask]);
  }

  /// Resolves a handle; nullptr when null or stale (slot recycled since).
  Packet* get(PacketRef ref) {
    if (!ref) return nullptr;
    const std::uint32_t slot = ref.slot();
    if (slot >= high_water_) return nullptr;
    Chunk& chunk = *chunks_[slot >> kChunkShift];
    if (chunk.gen[slot & kChunkMask] != ref.generation()) return nullptr;
    return &chunk.pkts[slot & kChunkMask];
  }
  const Packet* get(PacketRef ref) const {
    return const_cast<PacketPool*>(this)->get(ref);
  }

  /// Moves the packet out and retires the slot; the handle (and every copy
  /// of it) goes stale. The handle must be live.
  Packet take(PacketRef ref) {
    Packet* pkt = get(ref);
    assert(pkt != nullptr && "take() on a null or stale PacketRef");
    Packet out = std::move(*pkt);
    recycle(ref.slot());
    return out;
  }

  /// Retires a live slot without reading it (drop paths). Stale handles are
  /// ignored, so double-release is harmless.
  void release(PacketRef ref) {
    if (get(ref) == nullptr) return;
    recycle(ref.slot());
  }

  /// Packets currently parked.
  std::size_t live() const { return live_; }
  /// Slots ever allocated (the slab's high-water mark).
  std::size_t slots() const { return high_water_; }

 private:
  static constexpr std::uint32_t kChunkShift = 10;  // 1024 packets per chunk
  static constexpr std::uint32_t kChunkMask = (1u << kChunkShift) - 1;
  static constexpr std::uint32_t kMaxSlots = (1u << 24) - 1;  // slot+1 in 24 bits

  struct Chunk {
    Packet pkts[1u << kChunkShift];
    std::uint8_t gen[1u << kChunkShift] = {};
  };

  void recycle(std::uint32_t slot) {
    Chunk& chunk = *chunks_[slot >> kChunkShift];
    ++chunk.gen[slot & kChunkMask];  // uint8 wraps at 256 recycles (ABA caveat)
    free_.push_back(slot);
    --live_;
  }

  std::vector<std::unique_ptr<Chunk>> chunks_;
  std::vector<std::uint32_t> free_;  // LIFO: steady state reuses hot slots
  std::uint32_t high_water_ = 0;
  std::size_t live_ = 0;
};

/// Fixed-capacity packet carrier for burst-granular delivery: a DPDK-style
/// rx_burst array. Lives wherever the caller puts it (stack, member) and
/// never touches the heap; callers reuse one instance across drains.
class PacketBurst {
 public:
  static constexpr std::size_t kCapacity = 32;

  std::size_t size() const { return count_; }
  bool empty() const { return count_ == 0; }
  bool full() const { return count_ == kCapacity; }
  static constexpr std::size_t capacity() { return kCapacity; }

  void push(Packet pkt) {  // lint: allow-packet-copy (move-sink)
    assert(count_ < kCapacity);
    pkts_[count_++] = std::move(pkt);
  }

  Packet& operator[](std::size_t i) {
    assert(i < count_);
    return pkts_[i];
  }
  const Packet& operator[](std::size_t i) const {
    assert(i < count_);
    return pkts_[i];
  }

  Packet* begin() { return pkts_; }
  Packet* end() { return pkts_ + count_; }
  const Packet* begin() const { return pkts_; }
  const Packet* end() const { return pkts_ + count_; }

  void clear() { count_ = 0; }

  /// Bulk-fill support: write up to room() packets at tail(), then commit(n).
  Packet* tail() { return pkts_ + count_; }
  std::size_t room() const { return kCapacity - count_; }
  void commit(std::size_t n) {
    assert(count_ + n <= kCapacity);
    count_ += n;
  }

 private:
  Packet pkts_[kCapacity];
  std::size_t count_ = 0;
};

}  // namespace ceio
