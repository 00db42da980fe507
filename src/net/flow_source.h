// Per-flow traffic source with DCTCP rate control and latency accounting.
//
// A source emits packets onto the shared bottleneck link at
// min(offered rate, DCTCP rate), either open-loop (paced or Poisson) or
// closed-loop (a bounded number of outstanding messages; the next message is
// sent only when the receiver reports completion). Consecutive packets are
// grouped into messages — size 1 for RPC requests, hundreds for DFS chunk
// writes — and the receiver-side datapath reports per-message completion,
// which both records end-to-end latency and drives the closed loop.
//
// Feedback wiring: the receiving datapath calls `notify_delivered` /
// `notify_dropped` / `notify_host_congestion` / `notify_message_complete`
// on the flow's source (FlowRuntime::source); the source applies the
// feedback after the appropriate propagation delay, so baselines get their
// (slow) reactive loop and CEIO its (rare) slow-path CCA trigger.
#pragma once

#include <cstdint>

#include "common/grow_ring.h"
#include "common/message_window.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/units.h"
#include "net/dctcp.h"
#include "net/dctcp_window_stream.h"
#include "net/flow.h"
#include "net/network_link.h"
#include "sim/event_scheduler.h"

namespace ceio {

struct FlowSourceStats {
  std::int64_t packets_sent = 0;
  Bytes bytes_sent{0};
  std::int64_t packets_delivered = 0;
  Bytes bytes_delivered{0};
  std::int64_t messages_completed = 0;
  std::int64_t packets_dropped = 0;
};

class FlowSource {
 public:
  /// The source runs on `windows`' scheduler, which also queues its DCTCP
  /// window rollovers and supplies its DCTCP parameters. `rng` is copied:
  /// the source owns a private stream, so its draws (Poisson interarrival
  /// gaps) depend only on the seed it was handed — not on which slice hosts
  /// the flow or what its neighbors drew.
  FlowSource(DctcpWindowStream& windows, Rng rng, NetworkLink& link, const FlowConfig& config);

  const FlowConfig& config() const { return config_; }
  FlowId id() const { return config_.id; }

  /// Begins emission (schedules the first packet / message and queues the
  /// first DCTCP window rollover). Idempotent while already running.
  void start();
  /// start() at config().start_time: now when that time has passed, else
  /// from a scheduled event.
  void arm_start();
  /// Stops emission and voids the queued window rollover. In-flight packets
  /// still drain.
  void stop();
  bool active() const { return active_; }

  // ---- Receiver-side feedback (called by the datapath/testbed) ----
  // Receiver and sender share one scheduler; each reaction is scheduled the
  // modelled propagation delay later.

  /// Packet landed in host (or on-NIC) memory; echoes the ECN mark back to
  /// the sender after ~RTT/2.
  void notify_delivered(const Packet& pkt);

  /// Packet was lost (link queue or RX ring overflow). The sender detects
  /// the loss after ~1 RTT and backs off multiplicatively.
  void notify_dropped(const Packet& pkt);

  /// Host congestion signal (HostCC kernel module / ShRing backpressure):
  /// reaches the sender after ~RTT/2 and is treated as an ECN mark.
  void notify_host_congestion();

  /// Message fully processed at the receiver at time `done`. Records
  /// request latency (send -> processed + response flight time) and, in
  /// closed-loop mode, triggers the next message.
  void notify_message_complete(std::uint64_t message_id, Nanos done);

  // ---- Introspection ----
  BitsPerSec current_rate() const;
  const Dctcp& dctcp() const { return dctcp_; }
  const FlowSourceStats& stats() const { return stats_; }
  const LatencyHistogram& latency() const { return latency_; }
  const RateMeter& delivered_meter() const { return delivered_; }

  void reset_measurement();

 private:
  friend class DctcpWindowStream;
  /// A rollover queued under `epoch` came due: applies the DCTCP window
  /// update and queues the next one, unless stop() voided it.
  void roll_window(std::uint64_t epoch);
  /// Schedules the next emission no earlier than last_emit_ + pacing gap.
  void schedule_emit();
  void emit_packet();
  /// True when the emitter has anything to send right now.
  bool has_work() const;
  void send_message();

  DctcpWindowStream& windows_;
  EventScheduler& sched_;
  Rng rng_;
  NetworkLink& link_;
  FlowConfig config_;
  Dctcp dctcp_;

  bool active_ = false;
  std::uint64_t next_seq_ = 0;
  std::uint64_t next_message_id_ = 1;
  std::uint32_t message_pkt_index_ = 0;  // position within the current message
  int outstanding_messages_ = 0;
  int queued_messages_ = 0;  // closed-loop messages waiting for the emitter
  Nanos last_emit_ = -kNanosPerSec;  // pacing anchor
  EventHandle pending_emit_;
  // Tag of the rollover chain start() began; stop() bumps it.
  std::uint64_t window_epoch_ = 0;

  // Dense ring keyed by the monotone message id: inserting a start time is
  // an array store instead of a tree-node allocation (one per RPC on the KV
  // steady-state path), and the overflow guard's evict-oldest is the ring
  // front — the same entry `begin()` of the key-ordered map it replaced
  // would have yielded.
  MessageWindow message_start_;
  // Lost packets awaiting retransmission; drained through the paced emitter
  // (a transport retransmits within its congestion window, so loss must not
  // inflate the send rate).
  GrowRing<Packet> retx_queue_;

  FlowSourceStats stats_;
  LatencyHistogram latency_;
  RateMeter delivered_;
};

}  // namespace ceio
