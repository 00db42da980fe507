// PCIe DMA engine: the NIC-side unit that moves data between NIC and host
// memory across the PCIe link.
//
// Writes (RX fast path): NIC pushes a packet upstream; on arrival the host
// memory controller stages it through IIO into LLC (DDIO) or DRAM.
//
// Reads (CEIO slow path): the host driver issues a read request downstream;
// the NIC fetches the data from its local source (on-NIC memory, modelled by
// the caller-provided source delay) and returns it upstream. Reads honour a
// bounded number of outstanding requests — the knob that makes small-message
// slow-path throughput latency-bound, reproducing the Figure 11 gap that
// closes as message size grows.
#pragma once

#include <cstdint>
#include <functional>

#include "common/grow_ring.h"
#include "common/inline_function.h"
#include "common/units.h"
#include "host/memory_controller.h"
#include "pcie/pcie_link.h"
#include "sim/coalesced_stream.h"
#include "sim/event_scheduler.h"

namespace ceio {

class Telemetry;

struct DmaEngineConfig {
  int max_outstanding_reads = 64;  // read requests in flight at once
  Nanos doorbell_latency{100};    // MMIO doorbell for posting a request
};

struct DmaEngineStats {
  std::int64_t writes = 0;  // write requests issued
  std::int64_t reads = 0;   // read requests issued (not counting queued)
  // Completion ledger: issued == completed + in-flight at every instant —
  // the invariant the model auditor checks (audit/invariants.h).
  std::int64_t writes_completed = 0;
  std::int64_t reads_completed = 0;
  Bytes write_bytes{0};
  Bytes read_bytes{0};
  std::int64_t read_queue_peak = 0;
};

class DmaEngine {
 public:
  // Inline up to 48 bytes: the fast-path capture is {this, flow id, a 4-byte
  // PacketRef, a ring pointer} — pooled handles exist precisely so this stays
  // under budget and the per-packet DMA completion never heap-allocates.
  using Completion = InlineFunction<void(Nanos done), 48>;
  /// Source-side fetch: given the issue time, return when the NIC-local data
  /// is ready to be put on the link (e.g. on-NIC memory access completion).
  using SourceFetch = std::function<Nanos(Nanos issue)>;

  DmaEngine(EventScheduler& sched, PcieLink& link, MemoryController& mc,
            const DmaEngineConfig& config = {});

  /// DMA write of one RX buffer into host memory (stage ❶-❸ of Figure 2).
  /// `done` fires when the data is globally visible on the host.
  void write_to_host(BufferId buffer, Bytes size, bool ddio, Completion done,
                     bool expect_read = true);

  /// DMA read returning `size` bytes from the NIC to the host. `fetch`
  /// models the NIC-side source latency. Requests beyond the outstanding
  /// window queue FIFO. `done` fires when the data lands in host memory.
  void read_from_nic(Bytes size, SourceFetch fetch, Completion done);

  int outstanding_reads() const { return outstanding_reads_; }
  std::size_t queued_reads() const { return read_queue_.size(); }
  const DmaEngineStats& stats() const { return stats_; }

  /// Attaches a trace sink: emits outstanding/queued read counters on the
  /// DMA-engine track as the read window fills and drains.
  void set_telemetry(Telemetry* tele) { tele_ = tele; }
  /// Registers pcie.dma.* gauges.
  void register_metrics(MetricRegistry& registry) const;

 private:
  struct ReadRequest {
    Bytes size;
    SourceFetch fetch;
    Completion done;
  };

  /// A write TLP in flight: everything the memory controller needs once the
  /// payload lands on the host side of the link.
  struct WriteDescriptor {
    BufferId buffer = 0;
    Bytes size{0};
    bool ddio = false;
    bool expect_read = true;
    Completion done;
  };

  void start_read(ReadRequest req);
  void finish_read();
  void land_write(WriteDescriptor desc);

  EventScheduler& sched_;
  PcieLink& link_;
  MemoryController& mc_;
  DmaEngineConfig config_;
  GrowRing<ReadRequest> read_queue_;
  int outstanding_reads_ = 0;
  DmaEngineStats stats_;
  Telemetry* tele_ = nullptr;
  // Upstream landings serialise on the link (PcieLink::upstream reserves in
  // issue order), so write arrivals are a stream: each TLP lands as a stream
  // item at its exact link-computed time.
  CoalescedStream<WriteDescriptor> write_landings_;
};

}  // namespace ceio
