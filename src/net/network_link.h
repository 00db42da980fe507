// Bottleneck network link feeding the receiver NIC.
//
// All flows share one 200 Gbps ingress pipe with a bounded FIFO queue.
// Packets are ECN-marked (DCTCP style) when the instantaneous queue exceeds
// the marking threshold and dropped when the queue overflows. This is the
// "network" of the testbed: enough to exercise the CCA coupling that the
// HostCC and ShRing baselines rely on, without simulating a full fabric.
#pragma once

#include <cstdint>
#include <functional>

#include "common/units.h"
#include "nic/nic.h"
#include "nic/packet.h"
#include "sim/coalesced_stream.h"
#include "sim/event_scheduler.h"

namespace ceio {

struct NetworkLinkConfig {
  BitsPerSec rate = gbps(200.0);
  Bytes queue_capacity = 512 * kKiB;
  Bytes ecn_threshold = 96 * kKiB;   // ~65 KB K for 100G in DCTCP, scaled
  Nanos propagation{1'500};         // one-way ToR traversal
};

struct NetworkLinkStats {
  std::int64_t packets = 0;
  std::int64_t drops = 0;
  std::int64_t ecn_marks = 0;
  Bytes bytes{0};
  Bytes peak_queue{0};
};

class NetworkLink {
 public:
  /// Called when the link had to drop a packet (queue overflow).
  using DropHandler = std::function<void(const Packet&)>;

  NetworkLink(EventScheduler& sched, Nic& nic, const NetworkLinkConfig& config = {})
      : sched_(sched),
        nic_(nic),
        config_(config),
        arrivals_(sched, [this](Nanos, PacketRef ref) { nic_.receive(pool_.take(ref)); }) {}

  void set_drop_handler(DropHandler handler) { on_drop_ = std::move(handler); }

  /// Enqueues a packet from a sender. Marks/drops per queue state.
  void send(Packet pkt);

  /// Instantaneous queue backlog in bytes.
  Bytes queue_depth(Nanos now) const;

  const NetworkLinkStats& stats() const { return stats_; }
  const NetworkLinkConfig& config() const { return config_; }

 private:
  EventScheduler& sched_;
  Nic& nic_;  // receives each packet one propagation after serialization exit
  NetworkLinkConfig config_;
  Nanos egress_free_{0};  // when the serializer finishes the current backlog
  NetworkLinkStats stats_;
  DropHandler on_drop_;
  // In-flight wire packets park here; the arrivals stream moves their
  // 4-byte handles (a full 512 KiB queue is thousands of entries).
  PacketPool pool_;
  // Arrivals are serialisation exits plus the constant propagation:
  // non-decreasing, so the wire is a coalesced stream (one event drains a
  // burst of arrivals).
  CoalescedStream<PacketRef> arrivals_;
};

}  // namespace ceio
