#include "net/flow_source.h"

#include <algorithm>

#include "common/logging.h"

namespace ceio {

FlowSource::FlowSource(DctcpWindowStream& windows, Rng rng, NetworkLink& link,
                       const FlowConfig& config)
    : windows_(windows),
      sched_(windows.sched()),
      rng_(rng),
      link_(link),
      config_(config),
      dctcp_(windows.config(), std::min(config.offered_rate, windows.config().max_rate)) {}

BitsPerSec FlowSource::current_rate() const {
  return std::min(config_.offered_rate, dctcp_.rate());
}

void FlowSource::start() {
  if (active_) return;
  active_ = true;
  windows_.push(*this, window_epoch_);
  if (config_.closed_loop_outstanding > 0) {
    while (outstanding_messages_ < config_.closed_loop_outstanding) send_message();
  } else {
    schedule_emit();
  }
}

void FlowSource::arm_start() {
  if (config_.start_time <= sched_.now()) {
    start();
  } else {
    sched_.schedule_at(config_.start_time, [this]() { start(); });
  }
}

void FlowSource::stop() {
  if (!active_) return;
  active_ = false;
  sched_.cancel(pending_emit_);
  pending_emit_ = EventHandle{};
  ++window_epoch_;
}

void FlowSource::roll_window(std::uint64_t epoch) {
  if (epoch != window_epoch_) return;
  dctcp_.on_window(sched_.now());
  windows_.push(*this, window_epoch_);
}

bool FlowSource::has_work() const {
  if (!retx_queue_.empty()) return true;
  if (config_.closed_loop_outstanding > 0) {
    return message_pkt_index_ != 0 || queued_messages_ > 0;
  }
  return sched_.now() < config_.stop_time;  // open loop: always has data
}

void FlowSource::schedule_emit() {
  if (!active_ || !has_work()) return;
  if (sched_.is_pending(pending_emit_)) return;
  Nanos gap = transmit_time(config_.packet_size, current_rate());
  if (config_.poisson && config_.closed_loop_outstanding == 0) {
    gap = std::max(nanos(rng_.exponential(static_cast<double>(gap.count()))), Nanos{1});
  }
  Nanos at = std::max(sched_.now(), last_emit_ + gap);
  if (config_.burst_on > Nanos{0} && config_.burst_off > Nanos{0} &&
      config_.closed_loop_outstanding == 0) {
    // On/off bursting: emissions falling into the off-phase slide to the
    // start of the next on-phase.
    const Nanos cycle = config_.burst_on + config_.burst_off;
    const Nanos pos = at % cycle;
    if (pos >= config_.burst_on) at += cycle - pos;
  }
  pending_emit_ = sched_.schedule_at(at, [this]() { emit_packet(); });
}

void FlowSource::emit_packet() {
  if (!active_) return;
  last_emit_ = sched_.now();
  // Retransmissions take emission slots ahead of new data: they occupy a
  // congestion-window slot rather than adding unpaced load.
  if (!retx_queue_.empty()) {
    Packet retx = retx_queue_.pop_front();
    ++stats_.packets_sent;
    stats_.bytes_sent += retx.size;
    link_.send(std::move(retx));
    schedule_emit();
    return;
  }
  if (config_.closed_loop_outstanding > 0 && message_pkt_index_ == 0 &&
      queued_messages_ <= 0) {
    return;  // nothing to send; a completion or loss will re-arm the emitter
  }
  Packet pkt;
  pkt.flow = config_.id;
  pkt.seq = next_seq_++;
  pkt.size = config_.packet_size;
  pkt.created = sched_.now();
  // Open-loop packets still carry message framing so receivers can account
  // message completions uniformly.
  if (message_pkt_index_ == 0) {
    // Bound the completion window: open-loop messages whose completions
    // never arrive (sustained overload, drops) must not accumulate forever.
    if (message_start_.size() > 1u << 16) message_start_.evict_oldest();
    message_start_.insert(next_message_id_, sched_.now());
  }
  pkt.message_id = next_message_id_;
  pkt.message_pkts = config_.message_pkts;
  pkt.last_in_message = (message_pkt_index_ + 1 == config_.message_pkts);
  if (pkt.last_in_message) {
    ++next_message_id_;
    message_pkt_index_ = 0;
    if (config_.closed_loop_outstanding > 0) --queued_messages_;
  } else {
    ++message_pkt_index_;
  }
  ++stats_.packets_sent;
  stats_.bytes_sent += pkt.size;
  link_.send(std::move(pkt));
  schedule_emit();
}

void FlowSource::send_message() {
  ++outstanding_messages_;
  ++queued_messages_;
  schedule_emit();
}

void FlowSource::notify_delivered(const Packet& pkt) {
  ++stats_.packets_delivered;
  stats_.bytes_delivered += pkt.size;
  delivered_.record(pkt.size);
  // Echo the ECN mark to the sender half an RTT later.
  link_.echo_ecn(*this, pkt.ecn);
}

void FlowSource::notify_dropped(const Packet& pkt) {
  ++stats_.packets_dropped;
  // Loss detected roughly one RTT after the drop (NACK / dup-ack style); the
  // retransmission then queues behind the paced emitter — it occupies a
  // congestion-window slot rather than adding unpaced load.
  Packet retx = pkt;
  retx.ecn = false;
  retx.created = pkt.created;  // latency keeps the original send time
  sched_.schedule_after(2 * link_.config().propagation,
                        [this, retx = std::move(retx)]() mutable {
                          dctcp_.on_loss();
                          if (!active_) return;
                          retx_queue_.push_back(std::move(retx));
                          schedule_emit();
                        });
}

void FlowSource::notify_host_congestion() {
  sched_.schedule_after(link_.config().propagation, [this]() { dctcp_.on_host_congestion(); });
}

void FlowSource::notify_message_complete(std::uint64_t message_id, Nanos done) {
  Nanos start{0};
  if (message_start_.take(message_id, &start)) {
    // Request latency as the client observes it: processing completion plus
    // the response's flight back.
    const Nanos response_flight = link_.config().propagation;
    latency_.add(done - start + response_flight);
  }
  ++stats_.messages_completed;
  if (config_.closed_loop_outstanding > 0) {
    --outstanding_messages_;
    if (active_ && outstanding_messages_ < config_.closed_loop_outstanding) {
      send_message();
    }
  }
}

void FlowSource::reset_measurement() {
  stats_ = FlowSourceStats{};
  latency_.clear();
  delivered_.reset();
}

}  // namespace ceio
