// Host memory controller: the junction where inbound DMA, the LLC and DRAM
// meet (stages ❷–❸ of the legacy I/O path in Figure 2).
//
// Responsibilities:
//  * Accept DMA writes from the PCIe DMA engine, stage them in the IIO
//    buffer, and drain them either into the LLC (DDIO enabled) or DRAM.
//  * Serve CPU loads/stores with hit/miss resolution against the LLC and
//    bandwidth-accounted DRAM fills on miss.
//  * Charge DDIO write-back traffic (dirty victims of premature evictions)
//    against the same DRAM bandwidth pool the CPU-bypass flows need.
#pragma once

#include <cstdint>

#include "common/inline_function.h"
#include "common/units.h"
#include "host/cache.h"
#include "host/dram.h"
#include "host/iio.h"
#include "sim/coalesced_stream.h"
#include "sim/event_scheduler.h"

namespace ceio {

class MetricRegistry;
class Telemetry;

struct MemoryControllerConfig {
  Nanos llc_write_latency{15};   // DDIO write absorbed by LLC
  Nanos llc_hit_latency{20};     // CPU load served by LLC
  Nanos iio_retry_delay{100};    // PCIe backpressure retry granularity
  /// Memory-level parallelism of a bulk copy loop: how many cache-line
  /// misses a memcpy keeps in flight. Limits how well DRAM latency is
  /// hidden when a worker walks a cold chunk (LLC-resident chunks copy
  /// several times faster — paper §6.4's zero-copy lesson).
  int bulk_mlp = 8;
  /// A missed RX buffer drags its descriptor/header line with it: the DMA
  /// write updated both, so when the payload was evicted the descriptor
  /// line was too, and the CPU pays a *dependent* second DRAM access (it
  /// must read the descriptor before it can address the payload).
  Bytes miss_descriptor_bytes{64};
};

struct MemoryControllerStats {
  std::int64_t ddio_writes = 0;
  std::int64_t dram_writes = 0;   // non-DDIO DMA writes
  std::int64_t iio_stalls = 0;    // DMA writes delayed by a full IIO buffer
  std::int64_t writebacks = 0;    // dirty victim lines pushed to DRAM
};

class MemoryController {
 public:
  // 80-byte budget: the DMA engine forwards its own 48-byte-capacity
  // completion wrapped with a stats-bumping `this` capture. That wrapper is
  // 80 bytes, not 64: the inner InlineFunction object is 64 (48-byte buffer
  // aligned to 16 plus the ops pointer) and `this` pads to the same 16-byte
  // alignment — so this layer needs the full 80 to keep the per-write chain
  // inline (the zero-alloc KV test pins this).
  using Completion = InlineFunction<void(Nanos done), 80>;

  MemoryController(EventScheduler& sched, LlcModel& llc, DramModel& dram, IioBuffer& iio,
                   const MemoryControllerConfig& config = {});

  /// Inbound DMA write of one buffer. `ddio` selects the LLC path; otherwise
  /// the write drains to DRAM. `expect_read` marks data the CPU will consume
  /// (premature-eviction accounting applies); pure CPU-bypass sinks pass
  /// false. `done` fires when the data is globally visible.
  void dma_write(BufferId id, Bytes size, bool ddio, Completion done,
                 bool expect_read = true);

  /// CPU load of a whole buffer. Returns the latency the load observes.
  /// Must be called at the simulated instant the load executes.
  Nanos cpu_read(BufferId id, Bytes size);

  /// CPU store of a whole buffer (memcpy destination, log append, ...).
  Nanos cpu_write(BufferId id, Bytes size);

  /// memcpy(dst, src, size): load + store with combined latency.
  Nanos cpu_copy(BufferId src, BufferId dst, Bytes size);

  /// Streaming (non-temporal) store: consumes DRAM bandwidth without
  /// write-allocate misses — how a log writer lays down bulk data.
  Nanos cpu_stream_write(Bytes size);

  /// Bulk sequential read of `count` buffers of `block` bytes starting at
  /// `begin` (a worker walking a chunk). Hits cost the LLC hit latency;
  /// misses are *pipelined* — hardware prefetch overlaps them — so the cost
  /// is one DRAM bandwidth reservation for all missed bytes plus a single
  /// access latency, not count serialized round trips.
  Nanos cpu_bulk_read(BufferId begin, std::uint32_t count, Bytes block);

  /// Buffer freed/recycled: drop any cached copy without write-back.
  void release_buffer(BufferId id) { llc_.invalidate(id); }

  const MemoryControllerStats& stats() const { return stats_; }
  LlcModel& llc() { return llc_; }
  DramModel& dram() { return dram_; }
  IioBuffer& iio() { return iio_; }

  /// Attaches a trace sink for IIO-stall / premature-eviction instants.
  void set_telemetry(Telemetry* tele) { tele_ = tele; }
  /// Registers host.iio.* / host.dram.* / host.mc.* gauges and forwards to
  /// the LLC's host.llc.* set.
  void register_metrics(MetricRegistry& registry) const;

 private:
  /// A DMA write waiting for global visibility: drains IIO and completes.
  struct PendingWrite {
    Bytes size{0};
    Completion done;
  };

  void start_dma_write(BufferId id, Bytes size, bool ddio, bool expect_read, Completion done);
  void charge_eviction(const LlcModel::Evicted& ev);
  void finish_write(Nanos when, PendingWrite write) {
    iio_.drain(write.size);
    if (write.done) write.done(when);
  }

  EventScheduler& sched_;
  LlcModel& llc_;
  DramModel& dram_;
  IioBuffer& iio_;
  MemoryControllerConfig config_;
  MemoryControllerStats stats_;
  Telemetry* tele_ = nullptr;
  // Completion times are monotonic per drain target (LLC: now + a constant
  // write latency; DRAM: the bandwidth pipe's free_at), but not across the
  // two, so each is its own stream of completions at exact per-write times.
  CoalescedStream<PendingWrite> llc_completions_;
  CoalescedStream<PendingWrite> dram_completions_;
};

}  // namespace ceio
