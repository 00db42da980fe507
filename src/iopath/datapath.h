// I/O datapath interface and shared delivery machinery.
//
// A datapath is the policy layer between the NIC RX pipeline and the
// application: it decides where packets are DMAed, how RX rings are
// organised, and when congestion feedback is generated. The four systems
// under study — Legacy (plain DDIO), HostCC, ShRing and CEIO — are all
// `IoDatapath`s composed from the same substrates, so experiments swap the
// policy while holding the hardware models fixed.
//
// `DatapathBase` implements the machinery every policy shares:
//   * fast-path delivery (pool buffer -> PCIe DMA -> IIO -> LLC/DRAM),
//   * per-flow RX ring pumping onto the flow's pinned core,
//   * message progress accounting and completion callbacks,
//   * CPU-bypass handling (per-message work instead of per-packet).
#pragma once

#include <cstdint>
#include <memory>
#include <unordered_map>

#include "apps/application.h"
#include "common/flow_table.h"
#include "host/cpu_core.h"
#include "net/flow.h"
#include "net/flow_source.h"
#include "nic/buffer_pool.h"
#include "nic/nic.h"
#include "nic/packet.h"
#include "nic/rx_ring.h"
#include "pcie/dma_engine.h"
#include "sim/event_scheduler.h"

namespace ceio {

class MetricRegistry;
class Telemetry;

/// Buffer ids at or above this base are rotating application-memory ids
/// (CPU-bypass flows), never pool buffers — they must not be released into
/// the host RX pool.
inline constexpr BufferId kBypassBufferBase = 1ULL << 44;

/// Everything a datapath needs to know about one registered flow.
struct FlowRuntime {
  FlowConfig config;
  FlowSource* source = nullptr;    // feedback + completion reporting
  Application* app = nullptr;      // cost model
  CpuCore* core = nullptr;         // pinned core (per-packet or message work)
};

/// Per-flow datapath statistics (rings/drops are tracked where they live).
struct FlowPathStats {
  std::int64_t fast_path_pkts = 0;
  std::int64_t slow_path_pkts = 0;
  std::int64_t dropped_pkts = 0;
};

class IoDatapath : public PacketSink {
 public:
  ~IoDatapath() override = default;

  virtual const char* name() const = 0;
  virtual void register_flow(const FlowRuntime& rt) = 0;
  virtual void unregister_flow(FlowId id) = 0;

  /// Invokes `fn` on every live RX descriptor ring (model-auditor sweeps).
  virtual void for_each_ring(const std::function<void(const RxRing&)>& fn) const { (void)fn; }

  /// Slots ever handed out by the datapath's packet pool. Flat across a
  /// steady-state window means the pool recycled its warm slots instead of
  /// growing (the zero-allocation test's probe); 0 for datapaths without a
  /// pool.
  virtual std::size_t pool_slots() const { return 0; }

  /// Attaches a trace sink (per-packet path hops, drop instants). Policies
  /// extend this to trace their own machinery (CEIO: credits, steering).
  virtual void set_telemetry(Telemetry* tele) { (void)tele; }

  /// Registers the policy's gauges (path.* aggregates; policies add theirs).
  virtual void register_metrics(MetricRegistry& registry) { (void)registry; }
};

class DatapathBase : public IoDatapath {
 public:
  DatapathBase(EventScheduler& sched, DmaEngine& dma, MemoryController& mc,
               BufferPool& host_pool);

  void register_flow(const FlowRuntime& rt) override;
  void unregister_flow(FlowId id) override;
  void for_each_ring(const std::function<void(const RxRing&)>& fn) const override;
  std::size_t pool_slots() const override { return pool_.slots(); }
  void set_telemetry(Telemetry* tele) override { tele_ = tele; }
  void register_metrics(MetricRegistry& registry) override;

  const FlowPathStats* flow_stats(FlowId id) const;

 protected:
  struct FlowState {
    FlowRuntime rt;
    std::unique_ptr<RxRing> ring;  // owned per-flow ring (null when shared)
    bool pumping = false;
    // Message progress: packets landed in host memory / processed by CPU.
    // Hash-based on purpose: looked up per packet (hot), never iterated —
    // entries are found/bumped/erased by message id only.
    std::unordered_map<std::uint64_t, std::uint32_t> delivered_count;
    std::unordered_map<std::uint64_t, std::uint32_t> processed_count;
    BufferId next_bypass_buffer = 0;  // rotating app-memory ids (bypass flows)
    FlowPathStats stats;
  };

  /// Hook: called after register_flow creates the state (set up rings/rules).
  virtual void on_flow_registered(FlowState& fs) { (void)fs; }
  virtual void on_flow_unregistered(FlowState& fs) { (void)fs; }
  /// Hook: called when a message's completion work has fully retired — the
  /// moment buffer ownership returns to the driver (CEIO replenishes a
  /// bypass flow's credits here, per the write-with-immediate protocol).
  virtual void on_message_work_done(FlowState& fs, const Packet& last_pkt, Nanos done) {
    (void)fs;
    (void)last_pkt;
    (void)done;
  }

  FlowState* state_of(FlowId id);

  /// Fast-path delivery: acquire a host buffer, DMA through PCIe/IIO into
  /// LLC (DDIO), then hand off to `ring` (CPU-involved) or to message
  /// accounting (CPU-bypass). `ring` may differ from fs.ring (ShRing).
  void deliver_fast(FlowState& fs, Packet pkt, RxRing* ring);  // lint: allow-packet-copy (move-sink)

  /// Drop accounting + loss feedback to the sender.
  void drop_packet(FlowState& fs, const Packet& pkt);

  /// Starts/continues draining `ring` onto the flow's core, one packet in
  /// flight per flow.
  void pump(FlowState& fs, RxRing* ring);

  /// Message-level progress at DMA-completion granularity (bypass flows).
  void note_delivered_message_progress(FlowState& fs, const Packet& pkt, Nanos now);

  /// Message-level progress at CPU-processing granularity (involved flows).
  void note_processed_message_progress(FlowState& fs, const Packet& pkt, Nanos done);

  /// Executes the app's message-completion work and reports completion.
  void run_message_work(FlowState& fs, const Packet& last_pkt, Nanos now);

  EventScheduler& sched_;
  DmaEngine& dma_;
  MemoryController& mc_;
  BufferPool& host_pool_;
  // In-flight packet slab: packets park here while a DMA or CPU work item is
  // outstanding, and the completion captures a 4-byte PacketRef instead of
  // the ~80-byte Packet — keeping every per-packet callback inside the
  // InlineFunction inline budget. RX rings hand out slots from the same
  // pool. Declared before flows_ so it outlives the per-flow rings that
  // hold references into it.
  PacketPool pool_;
  // Dense slab keyed by flow id: state_of() is on the per-packet fast path
  // and fig12 runs 2^20 flows, so lookups must be O(1) array probes (no
  // hashing, no tree walk). Iteration is id-ordered by construction, which
  // is what the deterministic sweeps (CEIO's bypass exile, for_each_ring)
  // need.
  FlowTable<FlowState> flows_;
  Telemetry* tele_ = nullptr;

 private:
  void on_host_landed(FlowId flow, PacketRef ref, RxRing* ring);
  void process_packet(FlowState& fs, Packet pkt, RxRing* ring);  // lint: allow-packet-copy (move-sink)
};

}  // namespace ceio
