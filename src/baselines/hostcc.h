// HostCC baseline: reactive host congestion control (Agarwal et al.,
// SIGCOMM'23), as characterised in paper §2.3.
//
// Identical datapath to legacy DDIO, plus a kernel-module-style monitor that
// polls host congestion signals — IIO buffer occupancy and memory-bandwidth
// queueing — every few microseconds and triggers the network CCA (DCTCP) for
// all registered flows when congestion is detected. The *reactive* nature is
// the point: by the time IIO occupancy rises, the LLC is already thrashing
// (the drain only slows down once DDIO evictions go dirty), so misses have
// already happened — the "slow response" limitation CEIO removes.
#pragma once

#include "host/dram.h"
#include "host/iio.h"
#include "iopath/datapath.h"

namespace ceio {

struct HostccConfig {
  std::size_t ring_entries = 4096;
  Nanos poll_interval = micros(5);     // congestion-signal sampling period
  double iio_threshold = 0.30;         // occupancy fraction that signals
  Nanos dram_queue_threshold{400};    // memory-bandwidth queueing signal
  /// DDIO premature-eviction rate (unread I/O buffers evicted per second)
  /// that counts as host congestion. Observable on real hardware through
  /// CHA/IIO uncore counters; inherently *reactive* — by the time the rate
  /// is measurable, the misses have already happened (paper §2.3). The
  /// threshold is deliberately coarse: HostCC's published signals (IIO
  /// occupancy, PCIe bandwidth) are bandwidth proxies that under-detect
  /// latency-bound DDIO contention, so only severe thrash trips it — which
  /// is why HostCC runs at a substantial residual miss rate (~55-70%,
  /// paper Figures 4/9).
  double eviction_rate_threshold = 8e6;
  Nanos signal_min_gap = micros(10);   // rate limit on CCA triggers
};

class HostccDatapath : public DatapathBase {
 public:
  HostccDatapath(EventScheduler& sched, DmaEngine& dma, MemoryController& mc,
                 BufferPool& host_pool, IioBuffer& iio, DramModel& dram, LlcModel& llc,
                 const HostccConfig& config = {});
  ~HostccDatapath() override;

  const char* name() const override { return "hostcc"; }
  void on_packet(Packet pkt) override;  // lint: allow-packet-copy (move-sink)

  std::int64_t congestion_signals() const { return signals_; }

 protected:
  void on_flow_registered(FlowState& fs) override;

 private:
  void monitor_poll();

  IioBuffer& iio_;
  DramModel& dram_;
  LlcModel& llc_;
  HostccConfig config_;
  Nanos last_signal_{-1};
  std::int64_t last_premature_ = 0;
  std::int64_t signals_ = 0;
  // Periodic monitor timer; cancelled in the destructor so the scheduler can
  // outlive the datapath without firing into freed state.
  EventHandle monitor_timer_;
};

}  // namespace ceio
