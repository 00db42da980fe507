// ShRing baseline: shared receive rings with an I/O footprint capped below
// the LLC (Pismenny et al., OSDI'23), as characterised in paper §2.3.
//
// All flows — CPU-involved *and* CPU-bypass — share one bounded buffer
// budget (the shared RQ). Because the cap keeps in-flight I/O data inside
// the DDIO partition, LLC misses are eliminated — but the fixed budget means
// bursts and newly arrived flows contend for the same buffers, so ShRing
// must trigger the network CCA early (backpressure) to avoid drops, slowing
// the ingress rate. In our model the shared buffer pool *is* the shared
// ring: the testbed sizes it below the DDIO-visible capacity, packets are
// dropped when it runs dry, and crossing the backpressure threshold signals
// DCTCP for every flow. Bypass flows hold their buffers until the message
// (chunk) completes — which is exactly how a newly arrived LineFS flow
// starves the eRPC flows of buffers in Figure 4a.
#pragma once

#include <cstdint>
#include <vector>

#include "common/det_map.h"
#include "iopath/datapath.h"

namespace ceio {

struct ShringConfig {
  /// Per-flow dispatch rings (cheap; the shared *pool* enforces the cap).
  std::size_t ring_entries = 4096;
  /// Pool-occupancy fraction beyond which the CCA is triggered.
  double backpressure_threshold = 0.75;
  Nanos signal_min_gap = micros(10);
  /// Buffers of bypass messages that stall (lost packets under pool
  /// exhaustion) are reclaimed after this long without progress — the DFS
  /// consumes/cleans up stalled receives rather than pinning the shared RQ
  /// forever. Without this, partial chunks deadlock the pool.
  Nanos stale_message_timeout = micros(150);
  Nanos sweep_interval = micros(100);
};

class ShringDatapath : public DatapathBase {
 public:
  ShringDatapath(EventScheduler& sched, DmaEngine& dma, MemoryController& mc,
                 BufferPool& shared_pool, const ShringConfig& config = {});
  ~ShringDatapath() override;

  const char* name() const override { return "shring"; }
  void on_packet(Packet pkt) override;  // lint: allow-packet-copy (move-sink)

  std::int64_t backpressure_signals() const { return signals_; }

 protected:
  void on_flow_registered(FlowState& fs) override;
  void on_flow_unregistered(FlowState& fs) override;

 private:
  struct HeldMessage {
    std::vector<BufferId> buffers;
    Nanos last_progress{0};
  };

  void maybe_backpressure();
  void deliver_bypass_pooled(FlowState& fs, Packet pkt);  // lint: allow-packet-copy (move-sink)
  void on_bypass_landed(FlowId flow, Packet pkt);  // lint: allow-packet-copy (move-sink)
  void sweep_stale_messages();

  ShringConfig config_;
  Nanos last_signal_{-1};
  std::int64_t signals_ = 0;
  std::int64_t stale_reclaims_ = 0;
  // Shared-RQ buffers held by incomplete bypass messages, per flow. The
  // outer level is a dense slab (per-packet lookup on the bypass landing
  // path); the inner map stays key-ordered. Iteration order matters at both
  // levels: the stale sweep and flow unregistration release buffers while
  // iterating, and release order decides the pool free-list order — which
  // decides *which* LLC lines the next acquires touch. FlowTable iterates
  // in flow-id order by construction, so that stays a model property.
  FlowTable<det::OrderedMap<std::uint64_t, HeldMessage>> msg_buffers_;
  // Periodic sweep timer; cancelled in the destructor so the scheduler can
  // outlive the datapath without firing into freed state.
  EventHandle sweep_timer_;
};

}  // namespace ceio
