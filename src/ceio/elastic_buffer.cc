#include "ceio/elastic_buffer.h"

#include <utility>

#include "telemetry/telemetry.h"

namespace ceio {

ElasticBuffer::ElasticBuffer(EventScheduler& sched, NicMemory& nic_mem, DmaEngine& dma,
                             std::size_t drain_window, LandedHandler handler, IssueGate gate)
    : sched_(sched),
      nic_mem_(nic_mem),
      dma_(dma),
      drain_window_(drain_window),
      handler_(std::move(handler)),
      gate_(std::move(gate)) {}

bool ElasticBuffer::buffer_packet(Packet pkt) {
  if (!nic_mem_.allocate(pkt.size)) {
    ++stats_.dropped_pkts;
    return false;
  }
  // The write into on-NIC DRAM happens off the critical path; the descriptor
  // becomes drainable once the write completes.
  const Nanos written = nic_mem_.write(sched_.now(), pkt.size);
  stats_.buffered_bytes += pkt.size;
  ++stats_.buffered_pkts;
  ++pending_writes_;
  sched_.schedule_at(written, [this, pkt = std::move(pkt)]() mutable {
    --pending_writes_;
    ring_.push_back(std::move(pkt));
    CEIO_T_COUNTER(tele_, TraceTrack::kElasticBuffer, "elastic.ring_depth", sched_.now(),
                   static_cast<double>(ring_.size()));
    if (draining_) issue_ready();
  });
  return true;
}

void ElasticBuffer::drain() {
  draining_ = true;
  issue_ready();
}

void ElasticBuffer::issue_ready() {
  while (can_issue() && (!gate_ || gate_())) {
    Packet pkt = ring_.pop_front();
    ++in_flight_;
    CEIO_T_COUNTER(tele_, TraceTrack::kElasticBuffer, "elastic.in_flight", sched_.now(),
                   static_cast<double>(in_flight_));
    const Bytes size = pkt.size;
    dma_.read_from_nic(
        size, [this, size](Nanos issue) { return nic_mem_.read(issue, size); },
        [this, pkt = std::move(pkt), size](Nanos now) mutable {
          nic_mem_.free(size);
          --in_flight_;
          ++stats_.drained_pkts;
          if (idle()) draining_ = false;  // drain satisfied; re-arm on demand
          handler_(std::move(pkt), now);
          if (draining_) issue_ready();
        });
  }
}

}  // namespace ceio
