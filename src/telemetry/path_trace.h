// Sampled per-packet path traces: every Nth segment of a flow records the
// timestamps of its NIC -> PCIe -> LLC/DRAM -> application hops.
//
// The tracer is sampling-based (seq % every_n == 0) so it can stay attached
// to multi-million-packet runs: untraced packets cost one modulo in the
// `sampled()` predicate at each hop site and nothing else. Traced packets
// accumulate hop timestamps in a small open-record map; when the final hop
// lands the record moves to a bounded completed list, from which the Chrome
// exporter renders per-hop latency slices on the "packet paths" track and
// bench/fig11_paths derives per-hop latency statistics.
//
// Identity is (flow, seq) — plain integers rather than the Packet type so
// this header stays a leaf (no dependency on the NIC layer).
#pragma once

#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/units.h"

namespace ceio {

/// Stations of the NIC-to-application journey, in path order. A packet
/// visits a subset: fast path skips the on-NIC buffering hops, bypass flows
/// have no CPU processing hop.
enum class PathHop : std::uint8_t {
  kNicArrival = 0,  // exited the NIC RX pipeline
  kNicBuffered,     // written to on-NIC memory (CEIO slow path)
  kDmaIssue,        // PCIe DMA (write or drain-read) issued
  kHostLanded,      // data globally visible in host memory
  kCpuStart,        // CPU core began processing
  kProcessed,       // processing / message accounting retired
  kCount,
};

const char* to_string(PathHop hop);

/// One sampled packet's journey. Unvisited hops have `seen[h] == false`.
struct PathRecord {
  std::uint32_t flow = 0;
  std::uint64_t seq = 0;
  bool slow_path = false;  // visited the on-NIC buffering hop
  Nanos t[static_cast<std::size_t>(PathHop::kCount)]{};
  bool seen[static_cast<std::size_t>(PathHop::kCount)]{};

  bool has(PathHop h) const { return seen[static_cast<std::size_t>(h)]; }
  Nanos at(PathHop h) const { return t[static_cast<std::size_t>(h)]; }
  /// First and last visited hop timestamps (Nanos{0} when empty).
  Nanos begin_ts() const;
  Nanos end_ts() const;
};

class PathTracer {
 public:
  /// `every_n == 0` disables sampling entirely. `max_records` bounds the
  /// completed list; further completions are counted but not retained.
  PathTracer(std::uint32_t every_n = 64, std::size_t max_records = 4096)
      : every_n_(every_n), max_records_(max_records) {}

  /// Hot-path predicate: is this (flow, seq) being traced?
  bool sampled(std::uint64_t seq) const { return every_n_ != 0 && seq % every_n_ == 0; }

  /// Records a hop timestamp. Creates the record on first hop. Callers
  /// should gate on `sampled(seq)` first — `hop` re-checks and ignores
  /// unsampled packets, so a stray call is harmless, not a leak.
  void hop(std::uint32_t flow, std::uint64_t seq, PathHop h, Nanos now);

  /// Marks the journey complete (recording `h` as its final hop) and moves
  /// the record to the completed list.
  void finish(std::uint32_t flow, std::uint64_t seq, PathHop h, Nanos now);

  const std::vector<PathRecord>& records() const { return completed_; }
  std::size_t open_count() const { return open_.size(); }
  /// Completed journeys dropped because the list was full.
  std::uint64_t dropped() const { return dropped_; }
  std::uint32_t every_n() const { return every_n_; }

  void clear();

 private:
  static std::uint64_t key(std::uint32_t flow, std::uint64_t seq) {
    // Flows are dense small ints and seq is per-flow monotonic; fold the
    // flow into the high bits so concurrent flows never collide in practice.
    return (static_cast<std::uint64_t>(flow) << 48) ^ seq;
  }

  std::uint32_t every_n_;
  std::size_t max_records_;
  // Hash-based on purpose: hop recording looks up per sampled packet; the
  // map is never iterated (completed_ preserves finish order), so its
  // order cannot reach the exported records.
  std::unordered_map<std::uint64_t, PathRecord> open_;
  std::vector<PathRecord> completed_;
  std::uint64_t dropped_ = 0;
};

}  // namespace ceio
