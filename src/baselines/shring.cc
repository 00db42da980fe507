#include "baselines/shring.h"

namespace ceio {

ShringDatapath::ShringDatapath(EventScheduler& sched, DmaEngine& dma, MemoryController& mc,
                               BufferPool& shared_pool, const ShringConfig& config)
    : DatapathBase(sched, dma, mc, shared_pool), config_(config) {
  sweep_timer_ = sched_.schedule_after(config_.sweep_interval,
                                       [this]() { sweep_stale_messages(); });
}

ShringDatapath::~ShringDatapath() { sched_.cancel(sweep_timer_); }

void ShringDatapath::sweep_stale_messages() {
  const Nanos now = sched_.now();
  msg_buffers_.for_each([&](FlowId, det::OrderedMap<std::uint64_t, HeldMessage>& messages) {
    for (auto it = messages.begin(); it != messages.end();) {
      if (now - it->second.last_progress > config_.stale_message_timeout) {
        for (const BufferId b : it->second.buffers) {
          host_pool_.release(b);
          mc_.release_buffer(b);
        }
        ++stale_reclaims_;
        it = messages.erase(it);
      } else {
        ++it;
      }
    }
  });
  sweep_timer_ = sched_.schedule_after(config_.sweep_interval,
                                       [this]() { sweep_stale_messages(); });
}

void ShringDatapath::on_flow_registered(FlowState& fs) {
  if (!fs.ring) fs.ring = std::make_unique<RxRing>(config_.ring_entries, pool_, "shring-rx");
}

void ShringDatapath::on_flow_unregistered(FlowState& fs) {
  // Return any buffers still held by incomplete bypass messages.
  auto* messages = msg_buffers_.find(fs.rt.config.id);
  if (messages == nullptr) return;
  for (auto& [msg, held] : *messages) {
    for (const BufferId b : held.buffers) {
      host_pool_.release(b);
      mc_.release_buffer(b);
    }
  }
  msg_buffers_.erase(fs.rt.config.id);
}

void ShringDatapath::maybe_backpressure() {
  const double used =
      host_pool_.total() > 0
          ? static_cast<double>(host_pool_.in_use()) / static_cast<double>(host_pool_.total())
          : 0.0;
  if (used <= config_.backpressure_threshold) return;
  const Nanos now = sched_.now();
  if (last_signal_ >= Nanos{0} && now - last_signal_ < config_.signal_min_gap) return;
  last_signal_ = now;
  ++signals_;
  // Id-ordered sweep: the per-source congestion events all land at the same
  // tick, so signal order decides scheduler FIFO order downstream — the
  // flow table's id-ordered walk pins it to flow-id order.
  flows_.for_each([](FlowId, FlowState& fs) {
    if (fs.rt.source != nullptr) fs.rt.source->notify_host_congestion();
  });
}

void ShringDatapath::on_packet(Packet pkt) {
  FlowState* fs = state_of(pkt.flow);
  if (fs == nullptr) return;
  maybe_backpressure();
  if (!fs->rt.app->per_packet_cpu()) {
    deliver_bypass_pooled(*fs, std::move(pkt));
    return;
  }
  deliver_fast(*fs, std::move(pkt), fs->ring.get());
}

void ShringDatapath::deliver_bypass_pooled(FlowState& fs, Packet pkt) {
  const auto acquired = host_pool_.acquire();
  if (!acquired) {
    drop_packet(fs, pkt);
    return;
  }
  pkt.host_buffer = *acquired;
  ++fs.stats.fast_path_pkts;
  const FlowId flow = fs.rt.config.id;
  const BufferId buffer = pkt.host_buffer;
  const Bytes size = pkt.size;
  const PacketRef ref = pool_.make(std::move(pkt));
  dma_.write_to_host(buffer, size, /*ddio=*/true, [this, flow, ref](Nanos) {
    on_bypass_landed(flow, pool_.take(ref));
  });
}

void ShringDatapath::on_bypass_landed(FlowId flow, Packet pkt) {
  FlowState* fs = state_of(flow);
  if (fs == nullptr) {
    host_pool_.release(pkt.host_buffer);
    return;
  }
  if (fs->rt.source != nullptr) fs->rt.source->notify_delivered(pkt);
  auto& held = msg_buffers_[flow][pkt.message_id];
  held.buffers.push_back(pkt.host_buffer);
  held.last_progress = sched_.now();
  // Completion is tracked by delivered-packet count (robust against the
  // stale sweep reclaiming buffers of a stalled chunk); the held list only
  // governs buffer ownership.
  const bool completes = [&] {
    const auto it = fs->delivered_count.find(pkt.message_id);
    const std::uint32_t seen = it == fs->delivered_count.end() ? 0 : it->second;
    return seen + 1 >= pkt.message_pkts;
  }();
  if (completes) {
    for (const BufferId b : held.buffers) {
      host_pool_.release(b);
      mc_.release_buffer(b);
    }
    msg_buffers_[flow].erase(pkt.message_id);
  }
  note_delivered_message_progress(*fs, pkt, sched_.now());
}

}  // namespace ceio
