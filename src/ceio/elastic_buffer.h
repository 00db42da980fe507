// Elastic on-NIC buffer manager (paper §4.2).
//
// Packets that arrive while a flow holds no credits are written to on-NIC
// memory instead of being dropped (ShRing) or admitted into a thrashing LLC
// (legacy/HostCC). Each flow has a slow-path ring of buffered packets; the
// drain engine moves them to host memory via asynchronous PCIe DMA reads,
// bounded by the DMA engine's outstanding-read window. Draining is sticky:
// once requested it continues until the ring is empty (recv() drains the
// whole slow path before the fast path resumes — phase exclusivity). The
// slow path NIC -> on-NIC memory -> PCIe -> LLC/DRAM is latency-bound for
// small packets (internal PCIe switch + onboard DRAM), reproducing the
// Figure 11 fast/slow gap.
#pragma once

#include <cstdint>
#include <functional>

#include "common/grow_ring.h"
#include "common/units.h"
#include "nic/nic_memory.h"
#include "nic/packet.h"
#include "pcie/dma_engine.h"
#include "sim/event_scheduler.h"

namespace ceio {

class Telemetry;

struct ElasticBufferStats {
  std::int64_t buffered_pkts = 0;
  std::int64_t drained_pkts = 0;
  std::int64_t dropped_pkts = 0;  // on-NIC memory exhausted
  Bytes buffered_bytes{0};
};

/// Per-flow slow-path ring plus the drain engine.
class ElasticBuffer {
 public:
  /// Called when a drained packet's PCIe read completes; the caller finishes
  /// the host-side landing (so it controls cache placement and ring posting).
  using LandedHandler = std::function<void(Packet pkt, Nanos now)>;  // lint: allow-packet-copy (move-sink)

  /// `gate` (optional) is consulted before each read is issued; returning
  /// false pauses the drain (e.g. too many landed-but-unconsumed packets
  /// would flush the LLC). Re-kick with drain() once the gate reopens.
  using IssueGate = std::function<bool()>;

  ElasticBuffer(EventScheduler& sched, NicMemory& nic_mem, DmaEngine& dma,
                std::size_t drain_window, LandedHandler handler, IssueGate gate = nullptr);

  /// Buffers a packet in on-NIC memory. Returns false when the on-NIC
  /// memory is exhausted (caller drops the packet).
  bool buffer_packet(Packet pkt);  // lint: allow-packet-copy (move-sink)

  /// Requests draining. Sticky: reads keep being issued (window-bounded)
  /// until the ring and in-flight set are empty, including for packets that
  /// arrive while the drain is in progress.
  void drain();

  /// Packets buffered and not yet handed to the DMA engine.
  std::size_t backlog() const { return ring_.size(); }
  /// Packets whose DMA read is in flight.
  int in_flight() const { return in_flight_; }
  /// Packets still being written into on-NIC DRAM (not yet drainable).
  int pending_writes() const { return pending_writes_; }
  bool idle() const { return ring_.empty() && in_flight_ == 0 && pending_writes_ == 0; }
  bool draining() const { return draining_; }
  /// True when a drain request could issue a read now, gate permitting:
  /// the ring holds a packet and the read window has room.
  bool can_issue() const { return in_flight_ < static_cast<int>(drain_window_) && !ring_.empty(); }

  const ElasticBufferStats& stats() const { return stats_; }

  /// Attaches a trace sink: ring depth + in-flight reads show up as counters
  /// on the elastic-buffer track.
  void set_telemetry(Telemetry* tele) { tele_ = tele; }

 private:
  void issue_ready();

  EventScheduler& sched_;
  NicMemory& nic_mem_;
  DmaEngine& dma_;
  std::size_t drain_window_;
  LandedHandler handler_;
  IssueGate gate_;
  // Lazy FIFO: an idle flow's elastic buffer holds no ring storage.
  GrowRing<Packet> ring_;
  int in_flight_ = 0;
  int pending_writes_ = 0;  // packets still being written into on-NIC DRAM
  bool draining_ = false;
  ElasticBufferStats stats_;
  Telemetry* tele_ = nullptr;
};

}  // namespace ceio
