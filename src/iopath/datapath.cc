#include "iopath/datapath.h"

#include "common/logging.h"
#include "telemetry/telemetry.h"

namespace ceio {

DatapathBase::DatapathBase(EventScheduler& sched, DmaEngine& dma, MemoryController& mc,
                           BufferPool& host_pool)
    : sched_(sched), dma_(dma), mc_(mc), host_pool_(host_pool) {}

void DatapathBase::register_flow(const FlowRuntime& rt) {
  const bool inserted = !flows_.contains(rt.config.id);
  FlowState& fs = flows_[rt.config.id];
  fs.rt = rt;
  if (inserted) {
    // Bypass flows write into distinct app-memory regions; keep per-flow id
    // spaces disjoint (a 24-bit region per flow, far above any pool range).
    fs.next_bypass_buffer = kBypassBufferBase + (static_cast<BufferId>(rt.config.id) << 24);
  }
  on_flow_registered(fs);
  // The per-kind override covers flows added mid-run (dynamic schedules
  // register flows while the governor is already steering).
  if (inserted && kind_path(rt.config.kind) != policy::FlowPathOverride::kAuto) {
    on_flow_path_changed(fs);
  }
}

void DatapathBase::set_kind_path(FlowKind kind, policy::FlowPathOverride path) {
  auto& slot = kind_path_[static_cast<std::size_t>(kind)];
  if (slot == path) return;
  slot = path;
  // Id-ordered sweep: the change notification order is deterministic (CEIO
  // reacts by scheduling drain kicks).
  flows_.for_each([&](FlowId, FlowState& fs) {
    if (fs.rt.config.kind == kind) on_flow_path_changed(fs);
  });
}

void DatapathBase::unregister_flow(FlowId id) {
  FlowState* fs = flows_.find(id);
  if (fs == nullptr) return;
  on_flow_unregistered(*fs);
  flows_.erase(id);
}

void DatapathBase::for_each_ring(const std::function<void(const RxRing&)>& fn) const {
  // Id-ordered sweep: audit invariant checks (and their violation logs)
  // visit rings in flow-id order.
  flows_.for_each([&fn](FlowId, const FlowState& fs) {
    if (fs.ring) fn(*fs.ring);
  });
}

const FlowPathStats* DatapathBase::flow_stats(FlowId id) const {
  const FlowState* fs = flows_.find(id);
  return fs == nullptr ? nullptr : &fs->stats;
}

DatapathBase::FlowState* DatapathBase::state_of(FlowId id) { return flows_.find(id); }

void DatapathBase::drop_packet(FlowState& fs, const Packet& pkt) {
  ++fs.stats.dropped_pkts;
  CEIO_T_INSTANT(tele_, TraceTrack::kDatapath, "drop", sched_.now(),
                 static_cast<double>(pkt.size.count()), pkt.flow);
  if (fs.rt.source != nullptr) fs.rt.source->notify_dropped(pkt);
}

void DatapathBase::deliver_fast(FlowState& fs, Packet pkt, RxRing* ring) {
  const bool bypass = !fs.rt.app->per_packet_cpu();
  BufferId buffer = 0;
  if (bypass) {
    // RDMA-style: data lands directly in registered application memory.
    buffer = fs.next_bypass_buffer++;
  } else {
    const auto acquired = host_pool_.acquire();
    if (!acquired) {
      drop_packet(fs, pkt);
      return;
    }
    buffer = *acquired;
  }
  pkt.host_buffer = buffer;
  ++fs.stats.fast_path_pkts;
  const FlowId flow = fs.rt.config.id;
  CEIO_T_PATH_HOP(tele_, pkt.flow, pkt.seq, PathHop::kDmaIssue, sched_.now());
  const bool expect_read = fs.rt.app->reads_delivered_data();
  const Bytes size = pkt.size;
  // Park the packet; the completion carries only its 4-byte handle, so the
  // capture stays inside the DMA engine's inline budget (no allocation).
  const PacketRef ref = pool_.make(std::move(pkt));
  dma_.write_to_host(
      buffer, size, /*ddio=*/true,
      [this, flow, ref, ring](Nanos) { on_host_landed(flow, ref, ring); },
      expect_read);
}

void DatapathBase::on_host_landed(FlowId flow, PacketRef ref, RxRing* ring) {
  Packet pkt = pool_.take(ref);
  FlowState* fs = state_of(flow);
  if (fs == nullptr) {
    // Flow was unregistered while the DMA was in flight; recycle the buffer
    // (bypass app-memory ids are not pool buffers).
    if (pkt.host_buffer != 0 && pkt.host_buffer < kBypassBufferBase) {
      host_pool_.release(pkt.host_buffer);
    }
    return;
  }
  if (fs->rt.source != nullptr) fs->rt.source->notify_delivered(pkt);
  if (!fs->rt.app->per_packet_cpu()) {
    // Bypass flows never touch a core: the path ends where the data lands.
    CEIO_T_PATH_DONE(tele_, pkt.flow, pkt.seq, PathHop::kHostLanded, sched_.now());
    note_delivered_message_progress(*fs, pkt, sched_.now());
    return;
  }
  CEIO_T_PATH_HOP(tele_, pkt.flow, pkt.seq, PathHop::kHostLanded, sched_.now());
  if (ring == nullptr || !ring->post(pkt)) {
    host_pool_.release(pkt.host_buffer);
    mc_.release_buffer(pkt.host_buffer);
    drop_packet(*fs, pkt);
    return;
  }
  pump(*fs, ring);
}

void DatapathBase::pump(FlowState& fs, RxRing* ring) {
  if (fs.pumping || ring == nullptr) return;
  auto pkt = ring->poll();
  if (!pkt) return;
  fs.pumping = true;
  process_packet(fs, std::move(*pkt), ring);
}

void DatapathBase::process_packet(FlowState& fs, Packet pkt, RxRing* ring) {
  const AppPacketCosts costs = fs.rt.app->packet_costs(pkt);
  PacketWork work;
  work.buffer = pkt.host_buffer;
  work.size = pkt.size;
  work.app_cost = costs.app_cost;
  work.read_buffer = costs.read_buffer;
  work.copy_to = costs.copy_to;
  const FlowId flow = fs.rt.config.id;
  CEIO_T_PATH_HOP(tele_, pkt.flow, pkt.seq, PathHop::kCpuStart, sched_.now());
  const PacketRef ref = pool_.make(std::move(pkt));
  work.on_done = [this, flow, ref, ring](Nanos done) {
    Packet done_pkt = pool_.take(ref);
    FlowState* fs2 = state_of(flow);
    if (fs2 == nullptr) {
      if (done_pkt.host_buffer != 0) host_pool_.release(done_pkt.host_buffer);
      return;
    }
    host_pool_.release(done_pkt.host_buffer);
    mc_.release_buffer(done_pkt.host_buffer);
    CEIO_T_PATH_DONE(tele_, done_pkt.flow, done_pkt.seq, PathHop::kProcessed, done);
    note_processed_message_progress(*fs2, done_pkt, done);
    fs2->pumping = false;
    pump(*fs2, ring);
  };
  fs.rt.core->submit(std::move(work));
}

void DatapathBase::note_delivered_message_progress(FlowState& fs, const Packet& pkt,
                                                   Nanos now) {
  if (pkt.message_pkts <= 1) {
    // Single-packet message (the RPC steady state): skip the map round trip
    // — inserting and immediately erasing the entry would pay a hash-node
    // allocation per message for a count that can only ever reach 1.
    run_message_work(fs, pkt, now);
    return;
  }
  auto& count = fs.delivered_count[pkt.message_id];
  ++count;
  if (count < pkt.message_pkts) return;
  fs.delivered_count.erase(pkt.message_id);
  run_message_work(fs, pkt, now);
}

void DatapathBase::note_processed_message_progress(FlowState& fs, const Packet& pkt,
                                                   Nanos done) {
  if (pkt.message_pkts <= 1) {
    run_message_work(fs, pkt, done);
    return;
  }
  auto& count = fs.processed_count[pkt.message_id];
  ++count;
  if (count < pkt.message_pkts) return;
  fs.processed_count.erase(pkt.message_id);
  run_message_work(fs, pkt, done);
}

void DatapathBase::run_message_work(FlowState& fs, const Packet& last_pkt, Nanos now) {
  const AppMessageCosts costs = fs.rt.app->message_costs(last_pkt);
  const std::uint64_t message_id = last_pkt.message_id;
  FlowSource* source = fs.rt.source;
  if (costs.app_cost == Nanos{0} && costs.copy_bytes == Bytes{0}) {
    if (source != nullptr) source->notify_message_complete(message_id, now);
    on_message_work_done(fs, last_pkt, now);
    return;
  }
  // Message work (e.g. LineFS replication + logging) runs on the flow's
  // core; completion is reported when the work retires.
  PacketWork work;
  work.buffer = last_pkt.host_buffer;
  work.size = costs.copy_bytes > Bytes{0} ? costs.copy_bytes
                                          : last_pkt.size * last_pkt.message_pkts;
  work.app_cost = costs.app_cost;
  work.read_buffer = false;
  if (costs.read_source && last_pkt.host_buffer >= kBypassBufferBase) {
    // Bypass app-memory buffers are allocated sequentially per flow, so the
    // chunk the worker walks is the id range ending at the last packet.
    const auto count = last_pkt.message_pkts;
    work.copy_src_begin = last_pkt.host_buffer >= count - 1
                              ? last_pkt.host_buffer - (count - 1)
                              : last_pkt.host_buffer;
    work.copy_src_count = count;
    work.copy_block = last_pkt.size;
  }
  if (costs.stream_dest) {
    work.stream_bytes = costs.copy_bytes;
  } else {
    work.copy_to = costs.copy_to;
  }
  const FlowId flow = fs.rt.config.id;
  const PacketRef ref = pool_.make(last_pkt);
  work.on_done = [this, source, message_id, flow, ref](Nanos done) {
    const Packet done_pkt = pool_.take(ref);
    if (source != nullptr) source->notify_message_complete(message_id, done);
    FlowState* fs2 = state_of(flow);
    if (fs2 != nullptr) on_message_work_done(*fs2, done_pkt, done);
  };
  fs.rt.core->submit(std::move(work));
}

void DatapathBase::register_metrics(MetricRegistry& registry) {
  // Integer accumulation: summing int64 counters is order-invariant, so the
  // hash iteration order cannot reach the gauge value (a float sum would).
  registry.add_gauge("path.fast_pkts", [this]() {
    std::int64_t total = 0;
    flows_.for_each([&total](FlowId, const FlowState& fs) { total += fs.stats.fast_path_pkts; });
    return static_cast<double>(total);
  });
  registry.add_gauge("path.slow_pkts", [this]() {
    std::int64_t total = 0;
    flows_.for_each([&total](FlowId, const FlowState& fs) { total += fs.stats.slow_path_pkts; });
    return static_cast<double>(total);
  });
  registry.add_gauge("path.dropped_pkts", [this]() {
    std::int64_t total = 0;
    flows_.for_each([&total](FlowId, const FlowState& fs) { total += fs.stats.dropped_pkts; });
    return static_cast<double>(total);
  });
  registry.add_gauge("path.ring_depth", [this]() {
    double depth = 0;
    for_each_ring([&depth](const RxRing& ring) { depth += static_cast<double>(ring.size()); });
    return depth;
  });
}

}  // namespace ceio
