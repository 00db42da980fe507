// NIC RX pipeline shell.
//
// The NIC receives packets from the network link, charges the (small)
// per-packet firmware pipeline cost, and hands each packet to the attached
// I/O datapath. The four systems under study (legacy, HostCC, ShRing, CEIO)
// are all `PacketSink`s composed from the same substrates — the NIC itself
// is policy-free.
#pragma once

#include <cstdint>

#include "common/units.h"
#include "nic/packet.h"
#include "sim/coalesced_stream.h"
#include "sim/event_scheduler.h"
#include "telemetry/telemetry.h"

namespace ceio {

/// Receives packets at the exit of the NIC RX pipeline.
class PacketSink {
 public:
  virtual ~PacketSink() = default;
  virtual void on_packet(Packet pkt) = 0;  // lint: allow-packet-copy (move-sink)
};

struct NicConfig {
  // BlueField-3 processes small packets at line rate; the pipeline cost only
  // matters as a serialization floor.
  Nanos per_packet_cost{4};
};

struct NicRxStats {
  std::int64_t packets = 0;
  Bytes bytes{0};
};

class Nic {
 public:
  explicit Nic(EventScheduler& sched, const NicConfig& config = {})
      : sched_(sched),
        config_(config),
        egress_(sched, [this](Nanos, PacketRef ref) {
          Packet pkt = pool_.take(ref);
          if (sink_ != nullptr) sink_->on_packet(std::move(pkt));
        }) {}

  void attach(PacketSink* sink) { sink_ = sink; }

  /// Attaches a trace sink: records the per-packet path-trace origin hop.
  void set_telemetry(Telemetry* tele) { tele_ = tele; }

  /// Registers nic.rx.* gauges.
  void register_metrics(MetricRegistry& registry) const {
    registry.add_gauge("nic.rx.packets",
                       [this]() { return static_cast<double>(stats_.packets); });
    registry.add_gauge("nic.rx.bytes",
                       [this]() { return static_cast<double>(stats_.bytes.count()); });
  }

  /// Entry point for the network link: packet hits the RX MAC. Pipeline
  /// exits are serialised on per_packet_cost, so exit times are
  /// non-decreasing and the whole RX pipeline is one stream: each packet
  /// leaves the firmware as a stream item at its exact exit time.
  void receive(Packet pkt) {  // lint: allow-packet-copy (move-sink)
    ++stats_.packets;
    stats_.bytes += pkt.size;
    const Nanos start = sched_.now() > pipeline_free_ ? sched_.now() : pipeline_free_;
    pipeline_free_ = start + config_.per_packet_cost;
    pkt.nic_arrival = pipeline_free_;
    CEIO_T_PATH_HOP(tele_, pkt.flow, pkt.seq, PathHop::kNicArrival, pipeline_free_);
    egress_.push(pipeline_free_, pool_.make(std::move(pkt)));
  }

  const NicRxStats& stats() const { return stats_; }

 private:
  EventScheduler& sched_;
  NicConfig config_;
  PacketSink* sink_ = nullptr;
  Nanos pipeline_free_{0};
  NicRxStats stats_;
  Telemetry* tele_ = nullptr;
  // Pipeline-resident packets park here; the egress stream's ring moves
  // 4-byte handles instead of ~80-byte Packets (burst backlogs stay dense).
  PacketPool pool_;
  CoalescedStream<PacketRef> egress_;
};

}  // namespace ceio
