// CEIO datapath: proactive credit-based flow control + elastic buffering
// (paper §3–§4). This is the paper's contribution, assembled from the
// substrates: the RMT steering engine and on-NIC memory on the NIC side, the
// credit controller and elastic buffer manager as the CEIO runtime, and the
// SW-ring driver semantics (recv()/async_recv()) on the host side.
//
// Life of a packet:
//   * fast path — the flow holds credits: the RMT rule DMAs the packet to
//     host memory through DDIO; one credit is consumed. Credits are released
//     lazily, a batch at a time, when the driver observes ring-head
//     advancement (involved flows) or a message completion (bypass flows).
//   * slow path — credits exhausted: the controller has flipped the flow's
//     steering rule, so the packet lands in on-NIC memory. The elastic
//     buffer drains it to the host via asynchronous DMA reads when the
//     consumer reaches that segment (or eagerly, with the async_recv
//     optimization). The SW ring preserves arrival order across the
//     alternating path segments.
//
// The controller runs two periodic loops on the (simulated) NIC cores: the
// counter poll (steering transitions, inactivity reclaim, slow-path CCA
// triggers) and the round-robin re-activation of reclaimed flows (§4.1 Q3).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "ceio/credit_controller.h"
#include "common/grow_ring.h"
#include "ceio/elastic_buffer.h"
#include "ceio/sw_ring.h"
#include "iopath/datapath.h"
#include "nic/nic_memory.h"
#include "nic/rmt_engine.h"
#include "sim/coalesced_stream.h"

namespace ceio {

/// Host landing buffers for slow-path drains live in their own id range,
/// one rotating window per flow: flow f's window is
/// [kSlowLandingBase + (f << 20), +kLandingWindow). Exposed so multi-tenant
/// assemblies can map landing ids back to the owning tenant's LLC slice.
inline constexpr BufferId kSlowLandingBase = 1ULL << 32;
inline constexpr BufferId kLandingWindow = 1ULL << 16;

/// Steering policy for the fast/slow decision. The paper (§4.1) considers
/// PIAS-style Multiple Priority Queues — priority decays with bytes sent, so
/// short flows ride the fast path — and rejects it because CPU-involved
/// flows are not always short (continuous RPC streams decay to low priority
/// and get exiled to the slow path). Both policies run over the same elastic
/// architecture here, so `bench/ablation_mpq` can compare them directly.
enum class SteerPolicy {
  kCreditBased,  // the paper's design: lazy-release credits sized by Eq. 1
  kMpqPias,      // the rejected alternative: byte-count priority decay
};

struct CeioConfig {
  SteerPolicy policy = SteerPolicy::kCreditBased;
  /// MPQ demotion thresholds (cumulative bytes); a flow's priority level is
  /// the number of thresholds it has crossed.
  std::vector<Bytes> mpq_thresholds{100 * kKiB, kMiB, 10 * kMiB};
  /// Levels [0, mpq_fast_levels) use the fast path.
  int mpq_fast_levels = 2;

  /// C_total (Eq. 1): LLC_DDIO_bytes / buffer_bytes. The testbed derives the
  /// default from its LLC configuration; 3000 matches the paper's setup.
  std::int64_t total_credits = 3000;

  /// Added per-packet latency of the NIC-side controller logic (match-action
  /// + credit bookkeeping on the ARM cores). Pipelined, so it costs latency
  /// but not throughput — Table 3's 1.10-1.48x fast-path overhead.
  Nanos controller_latency{260};

  Nanos poll_interval = micros(1);     // controller counter-poll cadence
  Nanos doorbell_latency{500};        // driver -> NIC credit-release MMIO
  int release_batch = 32;              // lazy-release granularity (involved)
  Nanos inactive_timeout = millis(5);  // no-traffic reclaim threshold
  Nanos reactivate_period = micros(500);  // RR re-activation cadence (backup)
  int reactivate_per_round = 4;
  /// Traffic-triggered reactivation throughput of the on-NIC controller
  /// (Algorithm 1 run + RMT rule update per reactivation). This is the
  /// capacity that fast flow churn overruns in Figure 12.
  double reactivations_per_sec = 50'000.0;
  double reactivation_burst = 8.0;
  /// Flows examined per controller poll; with thousands of flows the ARM
  /// cores cannot touch every counter each microsecond, so the scan rotates.
  std::size_t poll_scan_limit = 64;
  /// Re-enable the fast path once the flow's balance recovers to this
  /// fraction of its fair share (hysteresis against rule flapping).
  double reenable_fraction = 0.25;

  std::size_t fast_ring_entries = 4096;
  std::size_t drain_window = 32;        // async slow-path reads in flight
  std::size_t landed_cap = 256;         // landed-but-unconsumed drain cap
  /// Bypass slow-path backlog regarded as producer overrun (packets).
  std::size_t bypass_cca_threshold = 1536;
  std::size_t slow_cca_threshold = 192; // unconsumed backlog that triggers the CCA
  Nanos cca_min_gap = micros(10);       // per-flow CCA trigger rate limit
  /// Fast path re-enables once the slow backlog has drained below this and
  /// the balance recovered (the SW ring's segment ordering keeps delivery
  /// order exact across the residual drain).
  std::size_t reenable_backlog = 48;

  // §4.2 optimisations (Table 4 ablation switches).
  bool async_drain = true;      // overlap slow-path DMA reads (async_recv)
  bool phase_exclusive = true;  // segment ordering vs per-packet reordering
  Nanos reorder_penalty{200};  // per-packet cost when !phase_exclusive
};

struct CeioRuntimeStats {
  std::int64_t credit_switches_to_slow = 0;
  std::int64_t switches_back_to_fast = 0;
  std::int64_t inactive_reclaims = 0;
  std::int64_t reactivations = 0;
  std::int64_t cca_triggers = 0;
};

class CeioDatapath final : public DatapathBase {
 public:
  CeioDatapath(EventScheduler& sched, DmaEngine& dma, MemoryController& mc,
               BufferPool& host_pool, RmtEngine& rmt, NicMemory& nic_mem,
               const CeioConfig& config = {});
  ~CeioDatapath() override;

  const char* name() const override { return "ceio"; }
  void on_packet(Packet pkt) override;  // lint: allow-packet-copy (move-sink)
  /// Base path.* aggregates plus ceio.credits.* / ceio.slow.* gauges.
  void register_metrics(MetricRegistry& registry) override;
  /// Base hookup plus propagation into the per-flow elastic buffers.
  void set_telemetry(Telemetry* tele) override;

  const CreditController& credits() const { return credits_; }
  /// Installs a new base C_total. Only the tenant way partitioner calls it,
  /// re-deriving Eq. 1 when a tenant's DDIO ways change. Composes with the
  /// governor's credit scale: effective total = round(base * scale).
  void set_total_credits(std::int64_t v) {
    base_total_credits_ = v;
    apply_total_credits();
  }

  // ---- Governor actuators (src/policy/governor.h drives them) ----
  // Each is exact at its neutral value (scale 1.0, no exile): a datapath
  // that only ever saw neutral calls runs bit-identically to one that saw
  // none.
  /// Scales C_total: effective total = round(base * scale).
  void set_credit_scale(double scale);
  double credit_scale() const { return credit_scale_; }
  /// Scales the configured landed-but-unconsumed drain caps: each becomes
  /// max(llround(base * scale), 8); 1.0 restores them exactly.
  void set_landed_scale(double scale);
  /// Exiles every CPU-bypass flow, current and later, to the slow path and
  /// keeps it there (true), or hands its steering back to the controller
  /// poll (false).
  void set_bypass_slow(bool slow);

  const CeioConfig& config() const { return config_; }
  const CeioRuntimeStats& runtime_stats() const { return rt_stats_; }

  /// True when the flow is currently steered to the slow path.
  bool in_slow_mode(FlowId id) const;
  /// MPQ policy: the flow's current priority level (0 = highest).
  int mpq_level(FlowId id) const;

  // ---- Driver facade support (paper §5; see ceio_driver.h) ----
  /// Switches a flow between the internal pump (default) and manual
  /// consumption through a CeioDriver.
  void set_manual_consume(FlowId id, bool manual);
  /// Pops up to `max_pkts` in-order landed packets into caller-provided
  /// storage (no allocation). `eager_drain` keeps the slow path draining in
  /// the background (async_recv). Returns the number of packets written.
  std::size_t driver_recv(FlowId id, Packet* out, std::size_t max_pkts, bool eager_drain);
  /// Grants `count` application-owned zero-copy RX buffers to the flow.
  std::vector<BufferId> driver_post_recv(FlowId id, std::size_t count);
  /// Ownership hand-back: recycles the buffer, advances message progress and
  /// releases credits lazily.
  void driver_complete(FlowId id, const Packet& pkt);
  std::size_t driver_pending(FlowId id) const;
  /// Slow-path backlog (on-NIC ring + in-flight + landed) for a flow.
  std::size_t slow_backlog(FlowId id) const;

  /// White-box state snapshot for tests and diagnostics.
  struct SlowDebug {
    std::size_t nic_ring = 0;    // buffered in on-NIC memory
    int in_flight = 0;           // DMA reads outstanding
    std::size_t landed = 0;      // in host memory awaiting consumption
    std::size_t sw_segments = 0; // path segments pending in the SW ring
    std::uint64_t sw_pending = 0;
    std::uint64_t sw_segment_sum = 0;  // per-segment counts; == sw_pending when coherent
    std::int64_t lost_fast = 0;
    bool cpu_pumping = false;
    std::size_t fast_ring = 0;      // landed fast packets awaiting consumption
    bool sw_head_fast = false;      // path of the next in-order packet
    std::size_t slow_pool_free = 0;
    std::size_t host_pool_free = 0;
  };
  SlowDebug debug_slow_state(FlowId id) const;

  /// White-box view of one controller-poll position, in poll order.
  struct PollDebug {
    FlowId flow = 0;
    bool armed = false;      // its bit in the armed index is set
    bool forced = false;     // inside the forced run after the poll cursor
    bool quiescent = false;  // a visit now would change nothing
    Nanos held_deadline{0};  // deadline an unarmed position holds
    Nanos deadline{0};       // the flow's current inactivity deadline
  };
  std::vector<PollDebug> debug_poll_positions() const;
  /// The poll index itself: armed bits (bit p of word p / 64) and the
  /// per-block bounds on held deadlines.
  const std::vector<std::uint64_t>& debug_poll_armed_words() const { return poll_armed_; }
  const std::vector<Nanos>& debug_poll_bounds() const { return poll_bound_; }

 protected:
  void on_flow_registered(FlowState& fs) override;
  void on_flow_unregistered(FlowState& fs) override;
  void on_message_work_done(FlowState& fs, const Packet& last_pkt, Nanos done) override;

 private:
  struct Ext {
    SwRing sw;
    std::unique_ptr<ElasticBuffer> elastic;
    GrowRing<Packet> landed_slow;  // drained packets now in host memory
    std::int64_t unreleased = 0;     // consumed credits pending lazy release
    std::int64_t processed_since_release = 0;
    std::int64_t lost_fast = 0;      // fast-path packets lost after steering
    Nanos last_packet_at{0};
    bool slow_mode = false;          // controller's intended steering
    bool cpu_pumping = false;
    std::size_t poll_pos = 0;        // index into reactivation_order_
    Nanos last_cca_at{-1};
    bool cca_marking = false;  // drain-to-low hysteresis state
    Bytes bytes_seen{0};      // cumulative bytes (MPQ priority decay)
    BufferId next_landing_buffer = 0;  // rotating slow-path landing ids
    // Driver facade (manual-consume) state.
    bool manual = false;
    GrowRing<Packet> driver_queue;   // in-order packets awaiting recv()
    GrowRing<BufferId> posted;       // app-owned zero-copy buffers
    BufferId next_posted_id = 0;
    // Bypass flows: slow-path packets landed in host memory whose message
    // work has not retired yet. Gates the drain so landed data stays
    // LLC-resident until the worker reads it.
    std::int64_t slow_landed_unworked = 0;
    // Bypass flows: per-message (fast, slow) landed-packet counts, so the
    // work-retirement release returns exactly that message's credits.
    // Hash-based on purpose: bumped per packet (hot), never iterated.
    std::unordered_map<std::uint64_t, std::pair<std::int32_t, std::int32_t>> msg_path_counts;
  };

  Ext* ext_of(FlowId id);
  const Ext* ext_of(FlowId id) const;

  /// One fast-path packet on its way through the controller to DMA issue.
  struct DmaIssue {
    FlowId flow = 0;
    bool expect_read = false;
    PacketRef ref{};
    BufferId buffer = 0;
  };

  void deliver_fast_path(FlowState& fs, Ext& ext, Packet pkt);  // lint: allow-packet-copy (move-sink)
  /// The DMA issue of a parked fast-path packet, controller_latency after
  /// deliver_fast_path.
  void issue_fast_dma(const DmaIssue& issue);
  void deliver_slow_path(FlowState& fs, Ext& ext, Packet pkt);  // lint: allow-packet-copy (move-sink)
  void on_fast_landed(FlowId flow, PacketRef ref);
  void on_slow_read_complete(FlowId flow, Packet pkt, Nanos now);  // lint: allow-packet-copy (move-sink)
  void land_slow_involved(FlowId flow, Packet pkt);  // lint: allow-packet-copy (move-sink)

  void pump(FlowId flow);
  void manual_pump(FlowState& fs, Ext& ext);
  void process_one(FlowState& fs, Ext& ext, Packet pkt, bool was_slow);  // lint: allow-packet-copy (move-sink)
  void schedule_credit_release(FlowId flow, std::int64_t count);
  void note_processed_for_release(FlowState& fs, Ext& ext, const Packet& pkt);

  /// Flips the flow's path: steering intent, switch counter, a trace
  /// instant carrying `traced`, and the RMT rule.
  void switch_path(FlowId id, Ext& ext, bool to_slow, double traced);
  /// True while the governor keeps the flow's kind exiled to the slow path.
  bool exiled(const FlowState& fs) const {
    return bypass_slow_ && fs.rt.config.kind == FlowKind::kCpuBypass;
  }
  /// Re-steers a bypass flow after the exile changed (or at registration
  /// under it): an exiled flow goes slow at once and starts draining.
  void apply_exile(FlowState& fs);

  std::int64_t reenable_threshold() const;
  void apply_total_credits();
  void controller_poll();
  /// First position in [pos, end) the linear walk would visit (armed, or
  /// past its held deadline), or `end`. Forced positions are the caller's.
  std::size_t next_poll_visit(std::size_t pos, std::size_t end, Nanos now);
  /// Visits `pos`, then re-arms it or has it hold its inactivity deadline.
  void poll_position(std::size_t pos, Nanos now);
  /// Sets the block's bound to the least deadline it holds.
  void refresh_poll_bound(std::size_t block);
  bool poll_armed(std::size_t pos) const { return (poll_armed_[pos >> 6] >> (pos & 63)) & 1u; }
  void poll_flow(FlowId id, Ext& ext, Nanos now);
  /// True when poll_flow on the flow is a no-op until one of its inputs
  /// changes (or its inactivity deadline passes).
  bool poll_quiescent(FlowId id, const Ext& ext) const;
  /// When an active flow's inactivity reclaim fires; never when inactive.
  Nanos inactivity_deadline(FlowId id, const Ext& ext) const;
  /// Marks the flow for a visit at its next poll position: called at every
  /// event that changes one of its poll inputs.
  void arm(const Ext& ext) { poll_armed_[ext.poll_pos >> 6] |= 1ull << (ext.poll_pos & 63); }
  void arm(FlowId id) {
    if (const Ext* ext = ext_of(id); ext != nullptr) arm(*ext);
  }
  /// The fair share or many balances moved: the next pass over every
  /// position visits it. O(1).
  void arm_all() { poll_force_ = reactivation_order_.size(); }
  void reactivation_round();
  bool take_reactivation_token();
  void kick_drain(FlowId flow, Ext& ext);

  RmtEngine& rmt_;
  NicMemory& nic_mem_;
  CeioConfig config_;
  CreditController credits_;
  /// Unscaled C_total (config or tenant way resize); the effective total
  /// handed to the controller is round(base * credit_scale_), computed
  /// exactly (no rounding) while the scale is 1.0.
  std::int64_t base_total_credits_;
  double credit_scale_ = 1.0;
  /// Configured landing cap; set_landed_scale scales it into config_.
  std::size_t base_landed_cap_;
  bool bypass_slow_ = false;
  // Dense slab keyed by flow id: ext_of() is on the per-packet fast path,
  // so lookups are O(1) array probes. Control-flow ordering comes from
  // reactivation_order_ (an explicit vector); sweeps iterate in id order.
  FlowTable<Ext> ext_;
  // Elastic buffers of unregistered flows, parked until destruction because
  // in-flight DMA callbacks may still reference them.
  std::vector<std::unique_ptr<ElasticBuffer>> retired_;
  std::vector<FlowId> reactivation_order_;  // RR + poll-scan cursor domain
  std::size_t reactivation_cursor_ = 0;
  std::size_t poll_cursor_ = 0;
  // Controller-poll index over reactivation_order_ positions. The poll
  // visits a position whose bit in poll_armed_ is set; an unarmed
  // (quiescent) position holds its inactivity deadline in poll_due_ and is
  // visited once `now` passes it. poll_bound_ keeps, per 64 positions, a
  // lower bound on the deadlines held there: it drops on every deadline
  // write and becomes exact after a linear pass over the block, so the
  // walk jumps between armed bits wherever `now` has not reached it.
  std::vector<std::uint64_t> poll_armed_;
  std::vector<Nanos> poll_due_;
  std::vector<Nanos> poll_bound_;
  // Positions the poll visits unconditionally before consulting the index.
  std::size_t poll_force_ = 0;
  double reactivation_tokens_ = 0.0;
  Nanos last_token_refill_{0};
  CeioRuntimeStats rt_stats_;
  // Periodic controller loops, cancelled in the destructor (the scheduler
  // may outlive us; a cancelled handle can never fire into freed state).
  EventHandle poll_timer_;
  EventHandle reactivate_timer_;
  /// One credit-release MMIO doorbell in flight to the NIC.
  struct CreditDoorbell {
    FlowId flow = 0;
    std::int64_t count = 0;
  };
  // Doorbells ring a constant MMIO latency after issue, so due times are
  // non-decreasing: a stream item each. Its destructor drops queued
  // items, covering datapath teardown.
  CoalescedStream<CreditDoorbell> doorbells_;
  // The controller's match-action + credit work delays each fast-path
  // packet by the constant controller_latency, so issue times are
  // non-decreasing: a stream item each, dropped at teardown like doorbells.
  CoalescedStream<DmaIssue> dma_issues_;
};

}  // namespace ceio
