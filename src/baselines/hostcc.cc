#include "baselines/hostcc.h"

#include "telemetry/telemetry.h"

namespace ceio {

HostccDatapath::HostccDatapath(EventScheduler& sched, DmaEngine& dma, MemoryController& mc,
                               BufferPool& host_pool, IioBuffer& iio, DramModel& dram,
                               LlcModel& llc, const HostccConfig& config)
    : DatapathBase(sched, dma, mc, host_pool),
      iio_(iio),
      dram_(dram),
      llc_(llc),
      config_(config) {
  monitor_timer_ = sched_.schedule_after(config_.poll_interval,
                                         [this]() { monitor_poll(); });
}

HostccDatapath::~HostccDatapath() { sched_.cancel(monitor_timer_); }

void HostccDatapath::on_flow_registered(FlowState& fs) {
  if (!fs.ring) fs.ring = std::make_unique<RxRing>(config_.ring_entries, pool_, "hostcc-rx");
}

void HostccDatapath::on_packet(Packet pkt) {
  FlowState* fs = state_of(pkt.flow);
  if (fs == nullptr) return;
  deliver_fast(*fs, std::move(pkt), fs->ring.get());
}

void HostccDatapath::monitor_poll() {
  const Nanos now = sched_.now();
  const bool iio_congested = iio_.occupancy_fraction() > config_.iio_threshold;
  const bool mem_congested = dram_.queueing_delay(now) > config_.dram_queue_threshold;
  // Premature-eviction rate since the last sample. Note this is reactive by
  // construction: the counted evictions ARE the misses the CPU will pay.
  const std::int64_t premature = llc_.stats().premature_evictions;
  const std::int64_t delta = premature - last_premature_;
  last_premature_ = premature;
  const double evict_rate = static_cast<double>(delta) / to_seconds(config_.poll_interval);
  const bool ddio_congested = evict_rate > config_.eviction_rate_threshold;
  if ((iio_congested || mem_congested || ddio_congested) &&
      (last_signal_ < Nanos{0} || now - last_signal_ >= config_.signal_min_gap)) {
    last_signal_ = now;
    ++signals_;
    CEIO_T_INSTANT(tele_, TraceTrack::kCreditController, "hostcc_signal", now,
                   iio_.occupancy_fraction(), 0);
    // Id-ordered walk: the congestion notifications all land at the same
    // tick, so signal order must be a model property — the flow table's
    // id-ordered iteration pins it to flow-id order.
    flows_.for_each([](FlowId, FlowState& fs) {
      if (fs.rt.source != nullptr) fs.rt.source->notify_host_congestion();
    });
  }
  monitor_timer_ = sched_.schedule_after(config_.poll_interval,
                                         [this]() { monitor_poll(); });
}

}  // namespace ceio
