#include "ceio/ceio_datapath.h"

#include <algorithm>
#include <bit>
#include <cmath>

#include "common/det_map.h"
#include "common/logging.h"
#include "telemetry/telemetry.h"

namespace ceio {
namespace {
// Application-posted zero-copy RX buffers (paper §5 post_recv()).
constexpr BufferId kPostedBase = 1ULL << 46;

bool is_pool_buffer(BufferId id) { return id != 0 && id < kSlowLandingBase; }
bool is_slow_landing(BufferId id) {
  return id >= kSlowLandingBase && id < kBypassBufferBase;
}
}  // namespace

CeioDatapath::CeioDatapath(EventScheduler& sched, DmaEngine& dma, MemoryController& mc,
                           BufferPool& host_pool, RmtEngine& rmt, NicMemory& nic_mem,
                           const CeioConfig& config)
    : DatapathBase(sched, dma, mc, host_pool),
      rmt_(rmt),
      nic_mem_(nic_mem),
      config_(config),
      credits_(config.total_credits),
      base_total_credits_(config.total_credits),
      doorbells_(sched, [this](Nanos, CreditDoorbell db) {
        credits_.release(db.flow, db.count, [this](FlowId creditor) { arm(creditor); });
        arm(db.flow);
      }) {
  // Controller loops run on the NIC cores for the lifetime of the runtime.
  poll_timer_ = sched_.schedule_after(config_.poll_interval,
                                      [this]() { controller_poll(); });
  reactivate_timer_ = sched_.schedule_after(config_.reactivate_period,
                                            [this]() { reactivation_round(); });
}

CeioDatapath::~CeioDatapath() {
  sched_.cancel(poll_timer_);
  sched_.cancel(reactivate_timer_);
}

CeioDatapath::Ext* CeioDatapath::ext_of(FlowId id) { return ext_.find(id); }

const CeioDatapath::Ext* CeioDatapath::ext_of(FlowId id) const { return ext_.find(id); }

bool CeioDatapath::in_slow_mode(FlowId id) const {
  const Ext* ext = ext_of(id);
  return ext != nullptr && ext->slow_mode;
}

int CeioDatapath::mpq_level(FlowId id) const {
  const Ext* ext = ext_of(id);
  if (ext == nullptr) return 0;
  int level = 0;
  for (const Bytes threshold : config_.mpq_thresholds) {
    if (ext->bytes_seen >= threshold) ++level;
  }
  return level;
}

std::size_t CeioDatapath::slow_backlog(FlowId id) const {
  const Ext* ext = ext_of(id);
  if (ext == nullptr) return 0;
  return ext->elastic->backlog() + static_cast<std::size_t>(ext->elastic->in_flight()) +
         ext->landed_slow.size();
}

CeioDatapath::SlowDebug CeioDatapath::debug_slow_state(FlowId id) const {
  SlowDebug out;
  const Ext* ext = ext_of(id);
  if (ext == nullptr) return out;
  out.nic_ring = ext->elastic->backlog();
  out.in_flight = ext->elastic->in_flight();
  out.landed = ext->landed_slow.size();
  out.sw_segments = ext->sw.segment_count();
  out.sw_pending = ext->sw.pending();
  out.sw_segment_sum = ext->sw.segment_sum();
  out.lost_fast = ext->lost_fast;
  out.cpu_pumping = ext->cpu_pumping;
  const FlowState* fs = const_cast<CeioDatapath*>(this)->state_of(id);
  if (fs != nullptr && fs->ring) out.fast_ring = fs->ring->size();
  out.sw_head_fast = ext->sw.next() == SwRing::Path::kFast;
  out.slow_pool_free = 0;
  out.host_pool_free = host_pool_.available();
  return out;
}

void CeioDatapath::on_flow_registered(FlowState& fs) {
  const FlowId id = fs.rt.config.id;
  fs.ring = std::make_unique<RxRing>(config_.fast_ring_entries, pool_, "ceio-fast");
  const bool inserted = !ext_.contains(id);
  Ext& ext = ext_[id];
  if (inserted) {
    const std::size_t window = config_.async_drain ? config_.drain_window : 1;
    ext.elastic = std::make_unique<ElasticBuffer>(
        sched_, nic_mem_, dma_, window,
        [this, id](Packet pkt, Nanos now) { on_slow_read_complete(id, std::move(pkt), now); },
        [this, id]() {
          // Pause the drain while too many landed packets sit unconsumed in
          // host memory (they occupy DDIO ways without credits). For
          // involved flows that is the landed queue; for bypass flows it is
          // landed data whose message work has not retired.
          const Ext* e = ext_of(id);
          if (e == nullptr) return true;
          const FlowState* f = const_cast<CeioDatapath*>(this)->state_of(id);
          const bool involved = f == nullptr || f->rt.app->per_packet_cpu();
          if (involved) return e->landed_slow.size() < config_.landed_cap;
          // Bypass: landed-but-unworked slow data shares the flow's LLC
          // budget with its unreleased fast-path credits, so the combined
          // resident footprint stays near the flow's fair share. One
          // exception keeps the system live: when the worker has nothing
          // queued, only draining more can ever complete the message being
          // assembled — the landed data may all belong to an incomplete
          // message whose remainder sits behind this very gate, and closing
          // it would deadlock the flow (completion is the only thing that
          // shrinks the unworked count).
          if (f != nullptr && f->rt.core != nullptr && f->rt.core->idle()) return true;
          const std::int64_t budget = credits_.fair_share();
          return e->unreleased + std::max<std::int64_t>(e->slow_landed_unworked, 0) < budget;
        });
    ext.elastic->set_telemetry(tele_);
    // Rotating driver-posted landing buffers for slow-path drains, disjoint
    // from every pool range.
    ext.next_landing_buffer = kSlowLandingBase + (static_cast<BufferId>(id) << 20);
    ext.poll_pos = reactivation_order_.size();
    reactivation_order_.push_back(id);
    poll_due_.push_back(Nanos::max());
    if ((ext.poll_pos & 63) == 0) {
      poll_armed_.push_back(0);
      poll_bound_.push_back(Nanos::max());
    }
    arm(ext);
  }
  ext.last_packet_at = sched_.now();
  rmt_.install_rule(id, SteerAction::kToHost);
  credits_.add_flows({id});
  arm_all();
}

void CeioDatapath::on_flow_unregistered(FlowState& fs) {
  const FlowId id = fs.rt.config.id;
  rmt_.remove_rule(id);
  credits_.remove_flow(id);
  // In-flight DMA-read callbacks reference the elastic buffer; park it until
  // the runtime is destroyed instead of freeing it under them.
  if (Ext* ext = ext_.find(id); ext != nullptr) {
    if (ext->elastic) retired_.push_back(std::move(ext->elastic));
    const std::size_t pos = ext->poll_pos;
    ext_.erase(id);
    reactivation_order_.erase(reactivation_order_.begin() + static_cast<std::ptrdiff_t>(pos));
    poll_due_.erase(poll_due_.begin() + static_cast<std::ptrdiff_t>(pos));
    const std::size_t n = reactivation_order_.size();
    for (std::size_t p = pos; p < n; ++p) {
      ext_of(reactivation_order_[p])->poll_pos = p;
    }
    // arm_all() below has the walk visit every position before it skips
    // any, so rather than shift the index, arm every position: no deadline
    // is held until a visit writes one again.
    const std::size_t blocks = (n + 63) / 64;
    poll_armed_.assign(blocks, ~0ull);
    if (n % 64 != 0) poll_armed_.back() >>= 64 - n % 64;
    poll_bound_.resize(blocks);
  }
  arm_all();
}

void CeioDatapath::set_manual_consume(FlowId id, bool manual) {
  Ext* ext = ext_of(id);
  if (ext == nullptr) return;
  arm(*ext);
  ext->manual = manual;
  if (ext->next_posted_id == 0) {
    ext->next_posted_id = kPostedBase + (static_cast<BufferId>(id) << 20);
  }
  if (manual) pump(id);  // sweep anything already landed into the queue
}

std::size_t CeioDatapath::driver_recv(FlowId id, Packet* out, std::size_t max_pkts,
                                      bool eager_drain) {
  FlowState* fs = state_of(id);
  Ext* ext = ext_of(id);
  if (fs == nullptr || ext == nullptr || !ext->manual) return 0;
  arm(*ext);
  manual_pump(*fs, *ext);
  std::size_t n = 0;
  while (n < max_pkts && !ext->driver_queue.empty()) {
    out[n++] = ext->driver_queue.pop_front();
  }
  // Demand kick: the next in-order packet is on the slow path and has not
  // landed — start (or keep) the drain so a later call finds it. async_recv
  // arms the drain even when the queue satisfied the request.
  if (eager_drain || (n < max_pkts && ext->sw.next() == SwRing::Path::kSlow)) {
    kick_drain(id, *ext);
  }
  return n;
}

std::vector<BufferId> CeioDatapath::driver_post_recv(FlowId id, std::size_t count) {
  std::vector<BufferId> out;
  Ext* ext = ext_of(id);
  if (ext == nullptr) return out;
  arm(*ext);
  if (ext->next_posted_id == 0) {
    ext->next_posted_id = kPostedBase + (static_cast<BufferId>(id) << 20);
  }
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const BufferId buf = ext->next_posted_id++;
    ext->posted.push_back(buf);
    out.push_back(buf);
  }
  return out;
}

void CeioDatapath::driver_complete(FlowId id, const Packet& pkt) {
  FlowState* fs = state_of(id);
  Ext* ext = ext_of(id);
  if (fs == nullptr || ext == nullptr) return;
  arm(*ext);
  if (is_pool_buffer(pkt.host_buffer)) host_pool_.release(pkt.host_buffer);
  if (pkt.host_buffer != 0) mc_.release_buffer(pkt.host_buffer);
  CEIO_T_PATH_DONE(tele_, pkt.flow, pkt.seq, PathHop::kProcessed, sched_.now());
  // Lazy release keys on fast-path buffers only (pool or app-posted); slow
  // landings never consumed a credit.
  if (!is_slow_landing(pkt.host_buffer)) {
    note_processed_for_release(*fs, *ext, pkt);
  } else {
    kick_drain(id, *ext);  // a landed slot freed; the gate may have reopened
  }
  note_processed_message_progress(*fs, pkt, sched_.now());
}

std::size_t CeioDatapath::driver_pending(FlowId id) const {
  const Ext* ext = ext_of(id);
  return ext == nullptr ? 0 : ext->driver_queue.size();
}

void CeioDatapath::apply_total_credits() {
  // Exact at scale 1.0 (the governor-off case): no
  // float round-trip may perturb the installed total.
  credits_.set_total(credit_scale_ == 1.0
                         ? base_total_credits_
                         : std::llround(static_cast<double>(base_total_credits_) *
                                        credit_scale_));
  arm_all();
}

void CeioDatapath::set_credit_scale(double scale) {
  if (scale == credit_scale_) return;
  credit_scale_ = scale;
  apply_total_credits();
}

void CeioDatapath::set_landed_caps(std::size_t involved_cap, std::size_t bypass_cap) {
  // The elastic drain gates read these through config_ on every decision, so
  // resizing takes effect at the next drain attempt.
  config_.landed_cap = involved_cap;
  config_.bypass_landed_cap = bypass_cap;
  arm_all();
}

void CeioDatapath::on_flow_path_changed(FlowState& fs) {
  const FlowId id = fs.rt.config.id;
  Ext* ext = ext_of(id);
  if (ext == nullptr) return;
  arm(*ext);
  // kAuto: the controller poll resumes normal steering from here.
  if (kind_path(fs.rt.config.kind) != policy::FlowPathOverride::kForceSlow) return;
  if (!ext->slow_mode) {
    ext->slow_mode = true;
    ++rt_stats_.credit_switches_to_slow;
    CEIO_T_INSTANT(tele_, TraceTrack::kCreditController, "switch_to_slow", sched_.now(),
                   static_cast<double>(credits_.credits(id)), id);
    rmt_.update_action(id, SteerAction::kToNicMem);
  }
  kick_drain(id, *ext);
}

std::int64_t CeioDatapath::reenable_threshold() const {
  const auto share = static_cast<double>(credits_.fair_share());
  return std::max<std::int64_t>(config_.release_batch,
                                static_cast<std::int64_t>(share * config_.reenable_fraction));
}

bool CeioDatapath::take_reactivation_token() {
  const Nanos now = sched_.now();
  const double dt = to_seconds(now - last_token_refill_);
  last_token_refill_ = now;
  reactivation_tokens_ = std::min(reactivation_tokens_ + dt * config_.reactivations_per_sec,
                                  config_.reactivation_burst);
  if (reactivation_tokens_ < 1.0) return false;
  reactivation_tokens_ -= 1.0;
  return true;
}

void CeioDatapath::on_packet(Packet pkt) {
  FlowState* fs = state_of(pkt.flow);
  Ext* ext = ext_of(pkt.flow);
  if (fs == nullptr || ext == nullptr) return;  // unknown flow: no rule, drop
  ext->last_packet_at = sched_.now();
  arm(*ext);
  // Traffic-triggered reactivation (§4.1 Q3): a reclaimed flow that shows
  // traffic again gets its credits back through Algorithm 1 — but the
  // controller can only run so many reactivations per second. Fast flow
  // churn overruns this budget and flows stay on the slow path (Figure 12).
  if (!credits_.active(pkt.flow) && take_reactivation_token()) {
    credits_.reactivate(pkt.flow);
    arm_all();
    ++rt_stats_.reactivations;
    CEIO_T_INSTANT(tele_, TraceTrack::kCreditController, "reactivate", sched_.now(),
                   static_cast<double>(credits_.credits(pkt.flow)), pkt.flow);
  }
  ext->bytes_seen += pkt.size;
  const SteerAction action = rmt_.steer(pkt);
  switch (action) {
    case SteerAction::kToHost:
      deliver_fast_path(*fs, *ext, std::move(pkt));
      break;
    case SteerAction::kToNicMem:
      deliver_slow_path(*fs, *ext, std::move(pkt));
      break;
    case SteerAction::kDrop:
      drop_packet(*fs, pkt);
      break;
  }
}

void CeioDatapath::deliver_fast_path(FlowState& fs, Ext& ext, Packet pkt) {
  const FlowId id = fs.rt.config.id;
  const bool involved = fs.rt.app->per_packet_cpu();
  BufferId buffer = 0;
  if (involved) {
    if (!ext.posted.empty()) {
      // Zero-copy: land directly in an application-posted buffer.
      buffer = ext.posted.pop_front();
    } else {
      const auto acquired = host_pool_.acquire();
      if (!acquired) {
        // Host pool exhausted (should not happen when the pool covers
        // C_total); treat like a ring overflow.
        drop_packet(fs, pkt);
        return;
      }
      buffer = *acquired;
    }
  } else {
    buffer = fs.next_bypass_buffer++;
  }
  // The packet is now committed to the fast path: consume a credit and
  // record the segment for ordering.
  credits_.consume(id, 1);
  ++ext.unreleased;
  ++fs.stats.fast_path_pkts;
  if (involved) ext.sw.note_steered(/*fast=*/true);
  pkt.host_buffer = buffer;
  // The controller's match-action + credit work is pipelined ahead of the
  // DMA issue: it delays the packet but does not throttle the stream.
  const bool expect_read = fs.rt.app->reads_delivered_data();
  // Park the packet: both hops of the pipelined issue capture its 4-byte
  // handle, keeping the scheduler callback and the DMA completion inline.
  const PacketRef ref = pool_.make(std::move(pkt));
  sched_.schedule_after(config_.controller_latency, [this, id, buffer, expect_read, ref]() {
    Packet* parked = pool_.get(ref);
    CEIO_T_PATH_HOP(tele_, parked->flow, parked->seq, PathHop::kDmaIssue, sched_.now());
    dma_.write_to_host(
        buffer, parked->size, /*ddio=*/true,
        [this, id, ref](Nanos) { on_fast_landed(id, ref); }, expect_read);
  });
}

void CeioDatapath::on_fast_landed(FlowId flow, PacketRef ref) {
  Packet pkt = pool_.take(ref);
  FlowState* fs = state_of(flow);
  Ext* ext = ext_of(flow);
  if (fs == nullptr || ext == nullptr) {
    if (is_pool_buffer(pkt.host_buffer)) {
      host_pool_.release(pkt.host_buffer);
    }
    return;
  }
  arm(*ext);
  if (fs->rt.source != nullptr) fs->rt.source->notify_delivered(pkt);
  if (!fs->rt.app->per_packet_cpu()) {
    // Bypass flow: message progress at DMA granularity; credits replenish
    // once the message *work* retires (write-with-immediate -> driver ->
    // app processing -> ownership returns), via on_message_work_done.
    CEIO_T_PATH_DONE(tele_, pkt.flow, pkt.seq, PathHop::kHostLanded, sched_.now());
    ++ext->msg_path_counts[pkt.message_id].first;
    note_delivered_message_progress(*fs, pkt, sched_.now());
    return;
  }
  CEIO_T_PATH_HOP(tele_, pkt.flow, pkt.seq, PathHop::kHostLanded, sched_.now());
  if (!fs->ring->post(pkt)) {
    // Ring overflow after steering: the SW ring already recorded the
    // segment entry, so account the loss for the consumer to skip.
    ++ext->lost_fast;
    host_pool_.release(pkt.host_buffer);
    mc_.release_buffer(pkt.host_buffer);
    drop_packet(*fs, pkt);
    return;
  }
  pump(flow);
}

void CeioDatapath::deliver_slow_path(FlowState& fs, Ext& ext, Packet pkt) {
  const FlowId id = fs.rt.config.id;
  const bool involved = fs.rt.app->per_packet_cpu();
  const bool message_end = pkt.last_in_message;
  if (!ext.elastic->buffer_packet(pkt)) {
    drop_packet(fs, pkt);
    return;
  }
  ++fs.stats.slow_path_pkts;
  CEIO_T_PATH_HOP(tele_, pkt.flow, pkt.seq, PathHop::kNicBuffered, sched_.now());
  if (involved) ext.sw.note_steered(/*fast=*/false);
  // Drain triggers: eager with the async optimization; event-driven on
  // message completion for bypass flows (write-with-immediate).
  if (config_.async_drain || (!involved && message_end)) {
    kick_drain(id, ext);
  }
  if (involved) pump(id);
}

void CeioDatapath::kick_drain(FlowId /*flow*/, Ext& ext) { ext.elastic->drain(); }

void CeioDatapath::on_slow_read_complete(FlowId flow, Packet pkt, Nanos /*now*/) {
  // The PCIe read completed; finish the landing as a host memory write so
  // IIO/LLC accounting applies (the drain window keeps this footprint tiny).
  FlowState* fs = state_of(flow);
  if (fs == nullptr) return;
  arm(flow);
  if (!fs->rt.app->per_packet_cpu()) {
    const BufferId buffer = fs->next_bypass_buffer++;
    pkt.host_buffer = buffer;
    mc_.dma_write(
        buffer, pkt.size, /*ddio=*/true,
        [this, flow, pkt = std::move(pkt)](Nanos done) mutable {
          FlowState* fs2 = state_of(flow);
          Ext* ext2 = ext_of(flow);
          if (fs2 == nullptr) return;
          if (ext2 != nullptr) {
            arm(*ext2);
            ++ext2->slow_landed_unworked;
            ++ext2->msg_path_counts[pkt.message_id].second;
          }
          CEIO_T_PATH_DONE(tele_, pkt.flow, pkt.seq, PathHop::kHostLanded, done);
          if (fs2->rt.source != nullptr) fs2->rt.source->notify_delivered(pkt);
          note_delivered_message_progress(*fs2, pkt, done);
        },
        fs->rt.app->reads_delivered_data());
    return;
  }
  land_slow_involved(flow, std::move(pkt));
}

void CeioDatapath::land_slow_involved(FlowId flow, Packet pkt) {
  FlowState* fs = state_of(flow);
  Ext* ext = ext_of(flow);
  if (fs == nullptr || ext == nullptr) return;
  // Driver-posted landing buffer: a rotating window of ids (the drain gate
  // bounds how many are live at once, so recycling is safe).
  const BufferId base = kSlowLandingBase + (static_cast<BufferId>(flow) << 20);
  pkt.host_buffer = base + (ext->next_landing_buffer++ - base) % kLandingWindow;
  mc_.dma_write(pkt.host_buffer, pkt.size, /*ddio=*/true,
                [this, flow, pkt = std::move(pkt)](Nanos) mutable {
                  FlowState* fs2 = state_of(flow);
                  Ext* ext2 = ext_of(flow);
                  if (fs2 == nullptr || ext2 == nullptr) return;
                  arm(*ext2);
                  CEIO_T_PATH_HOP(tele_, pkt.flow, pkt.seq, PathHop::kHostLanded, sched_.now());
                  if (fs2->rt.source != nullptr) fs2->rt.source->notify_delivered(pkt);
                  ext2->landed_slow.push_back(std::move(pkt));
                  pump(flow);
                });
}

void CeioDatapath::manual_pump(FlowState& fs, Ext& ext) {
  // Move every in-order landed packet into the driver queue; stop at the
  // first packet that has not landed yet (in PCIe flight or still on-NIC).
  for (;;) {
    switch (ext.sw.next()) {
      case SwRing::Path::kNone:
        return;
      case SwRing::Path::kFast:
        if (!fs.ring->empty()) {
          auto pkt = fs.ring->poll();
          ext.sw.consumed();
          ext.driver_queue.push_back(std::move(*pkt));
          continue;
        }
        if (ext.lost_fast > 0) {
          --ext.lost_fast;
          ext.sw.consumed();
          continue;
        }
        return;
      case SwRing::Path::kSlow:
        if (!ext.landed_slow.empty()) {
          ext.driver_queue.push_back(ext.landed_slow.pop_front());
          ext.sw.consumed();
          continue;
        }
        return;  // awaiting drain — recv()/async_recv() decide when to kick
    }
  }
}

void CeioDatapath::pump(FlowId flow) {
  FlowState* fs = state_of(flow);
  Ext* ext = ext_of(flow);
  if (fs == nullptr || ext == nullptr) return;
  arm(*ext);
  if (ext->manual) {
    manual_pump(*fs, *ext);
    return;
  }
  if (ext->cpu_pumping) return;
  for (;;) {
    switch (ext->sw.next()) {
      case SwRing::Path::kNone:
        return;
      case SwRing::Path::kFast: {
        if (!fs->ring->empty()) {
          auto pkt = fs->ring->poll();
          ext->sw.consumed();
          process_one(*fs, *ext, std::move(*pkt), /*was_slow=*/false);
          return;
        }
        if (ext->lost_fast > 0) {
          // A post-steering loss: skip its ordering slot.
          --ext->lost_fast;
          ext->sw.consumed();
          continue;
        }
        return;  // still in flight over PCIe
      }
      case SwRing::Path::kSlow: {
        if (!ext->landed_slow.empty()) {
          Packet pkt = ext->landed_slow.pop_front();
          ext->sw.consumed();
          process_one(*fs, *ext, std::move(pkt), /*was_slow=*/true);
          return;
        }
        // Demand-driven drain (sync recv()): fetch the segment now.
        kick_drain(flow, *ext);
        return;
      }
    }
  }
}

void CeioDatapath::process_one(FlowState& fs, Ext& ext, Packet pkt, bool was_slow) {
  ext.cpu_pumping = true;
  const AppPacketCosts costs = fs.rt.app->packet_costs(pkt);
  PacketWork work;
  work.buffer = pkt.host_buffer;
  work.size = pkt.size;
  work.app_cost = costs.app_cost;
  work.read_buffer = costs.read_buffer;
  work.copy_to = costs.copy_to;
  if (!config_.phase_exclusive && (was_slow || ext.sw.segment_count() > 1)) {
    // Ablation: without phase exclusivity the driver tracks and re-sorts
    // per-packet metadata whenever paths interleave.
    work.app_cost += config_.reorder_penalty;
  }
  const FlowId flow = fs.rt.config.id;
  const bool slow_buffer = was_slow;
  CEIO_T_PATH_HOP(tele_, pkt.flow, pkt.seq, PathHop::kCpuStart, sched_.now());
  const PacketRef ref = pool_.make(std::move(pkt));
  work.on_done = [this, flow, ref, slow_buffer](Nanos done) {
    Packet done_pkt = pool_.take(ref);
    FlowState* fs2 = state_of(flow);
    Ext* ext2 = ext_of(flow);
    if (done_pkt.host_buffer != 0) {
      if (!slow_buffer) host_pool_.release(done_pkt.host_buffer);
      mc_.release_buffer(done_pkt.host_buffer);
    }
    if (fs2 == nullptr || ext2 == nullptr) return;
    CEIO_T_PATH_DONE(tele_, done_pkt.flow, done_pkt.seq, PathHop::kProcessed, done);
    // Lazy release keys strictly on *fast-path* ring-head advancement:
    // slow-path packets never consumed a credit, so their processing must
    // not replenish credits whose buffers are still held in the fast ring.
    if (!slow_buffer) note_processed_for_release(*fs2, *ext2, done_pkt);
    if (slow_buffer) kick_drain(flow, *ext2);  // the gate may have reopened
    note_processed_message_progress(*fs2, done_pkt, done);
    ext2->cpu_pumping = false;
    pump(flow);
  };
  fs.rt.core->submit(std::move(work));
}

void CeioDatapath::on_message_work_done(FlowState& fs, const Packet& last_pkt, Nanos done) {
  (void)done;
  if (fs.rt.app->per_packet_cpu()) return;  // involved flows release per batch
  Ext* ext = ext_of(fs.rt.config.id);
  if (ext == nullptr) return;
  arm(*ext);
  // The worker consumed the chunk: its slow-path landings no longer pin the
  // drain gate, and the chunk's credits return to the controller.
  std::int32_t fast_cnt = 0;
  std::int32_t slow_cnt = 0;
  if (const auto it = ext->msg_path_counts.find(last_pkt.message_id);
      it != ext->msg_path_counts.end()) {
    fast_cnt = it->second.first;
    slow_cnt = it->second.second;
    ext->msg_path_counts.erase(it);
  }
  ext->slow_landed_unworked =
      std::max<std::int64_t>(ext->slow_landed_unworked - slow_cnt, 0);
  kick_drain(fs.rt.config.id, *ext);
  // Release exactly this message's fast-path credits; later messages'
  // packets are still unworked and must keep theirs pinned.
  const std::int64_t count = std::min<std::int64_t>(ext->unreleased, fast_cnt);
  if (count <= 0) return;
  ext->unreleased -= count;
  schedule_credit_release(fs.rt.config.id, count);
}

void CeioDatapath::note_processed_for_release(FlowState& fs, Ext& ext, const Packet& pkt) {
  arm(ext);
  ++ext.processed_since_release;
  const bool batch_full = ext.processed_since_release >= config_.release_batch;
  if ((batch_full || pkt.last_in_message) && ext.unreleased > 0) {
    const std::int64_t count = std::min(ext.unreleased, ext.processed_since_release);
    ext.unreleased -= count;
    ext.processed_since_release = 0;
    schedule_credit_release(fs.rt.config.id, count);
  } else if (batch_full) {
    ext.processed_since_release = 0;
  }
}

void CeioDatapath::schedule_credit_release(FlowId flow, std::int64_t count) {
  doorbells_.push(sched_.now() + config_.doorbell_latency, CreditDoorbell{flow, count});
}

void CeioDatapath::controller_poll() {
  const Nanos now = sched_.now();
  const std::size_t n = reactivation_order_.size();
  std::size_t left = std::min(n, config_.poll_scan_limit);
  // The window is the `left` positions after the cursor, in order. Only
  // forced and armed positions, and those past their inactivity deadline,
  // are visited: poll_flow on any other would change nothing. A visit can
  // arm later positions or force the rest (arm_all), so the force count
  // and the index are consulted afresh after each one.
  std::size_t pos = n == 0 ? 0 : (poll_cursor_ + 1) % n;
  if (left > 0) poll_cursor_ = (pos + left - 1) % n;
  while (left > 0) {
    bool visit = poll_force_ > 0;
    if (visit) {
      --poll_force_;
    } else {
      const std::size_t run_end = pos + std::min(left, n - pos);
      const std::size_t next = next_poll_visit(pos, run_end, now);
      left -= next - pos;
      pos = next;
      visit = next < run_end;
    }
    if (visit) {
      poll_position(pos, now);
      --left;
      ++pos;
    }
    if (pos == n) pos = 0;
  }
  poll_timer_ = sched_.schedule_after(config_.poll_interval,
                                      [this]() { controller_poll(); });
}

std::size_t CeioDatapath::next_poll_visit(std::size_t pos, std::size_t end, Nanos now) {
  while (pos < end) {
    const std::size_t block = pos >> 6;
    const std::size_t block_end = std::min(end, (block + 1) << 6);
    if (now > poll_bound_[block]) {
      // A deadline held in this block may have passed: test each position
      // as the linear walk does, then tighten the bound.
      for (; pos < block_end; ++pos) {
        if (poll_armed(pos) || now > poll_due_[pos]) return pos;
      }
      refresh_poll_bound(block);
      continue;
    }
    // Every held deadline here lies ahead: only armed bits are due.
    std::uint64_t bits = poll_armed_[block] >> (pos & 63);
    const std::size_t span = block_end - pos;
    if (span < 64) bits &= (1ull << span) - 1;
    if (bits != 0) return pos + static_cast<std::size_t>(std::countr_zero(bits));
    pos = block_end;
  }
  return end;
}

void CeioDatapath::poll_position(std::size_t pos, Nanos now) {
  const FlowId id = reactivation_order_[pos];
  Ext* ext = ext_of(id);
  if (ext == nullptr) return;
  poll_flow(id, *ext, now);
  if (!poll_quiescent(id, *ext)) {
    arm(*ext);
    return;
  }
  const Nanos due = inactivity_deadline(id, *ext);
  poll_armed_[pos >> 6] &= ~(1ull << (pos & 63));
  poll_due_[pos] = due;
  poll_bound_[pos >> 6] = std::min(poll_bound_[pos >> 6], due);
}

void CeioDatapath::refresh_poll_bound(std::size_t block) {
  Nanos bound = Nanos::max();
  const std::size_t end = std::min(poll_due_.size(), (block + 1) << 6);
  for (std::size_t p = block << 6; p < end; ++p) {
    if (!poll_armed(p)) bound = std::min(bound, poll_due_[p]);
  }
  poll_bound_[block] = bound;
}

bool CeioDatapath::poll_quiescent(FlowId id, const Ext& ext) const {
  const FlowState* fs = flows_.find(id);
  if (fs == nullptr) return true;  // poll_flow returns at once
  // MPQ steering and CCA marking act on every poll; a pending on-NIC write
  // grows the slow backlog with no event of ours.
  if (config_.policy != SteerPolicy::kCreditBased || ext.cca_marking ||
      ext.elastic->pending_writes() > 0) {
    return false;
  }
  if (!ext.slow_mode) return credits_.credits(id) > 0;
  // Slow mode: the drain kick must find it already sticky with nothing to
  // issue, and the fast path must not be re-enabled yet.
  if (!ext.elastic->draining() || ext.elastic->can_issue()) return false;
  if (kind_path(fs->rt.config.kind) == policy::FlowPathOverride::kForceSlow) return true;
  const bool drained =
      !fs->rt.app->per_packet_cpu() || slow_backlog(id) <= config_.reenable_backlog;
  return !drained || !credits_.active(id) || credits_.credits(id) < reenable_threshold();
}

Nanos CeioDatapath::inactivity_deadline(FlowId id, const Ext& ext) const {
  if (!credits_.active(id) || config_.inactive_timeout > Nanos::max() - ext.last_packet_at) {
    return Nanos::max();
  }
  return ext.last_packet_at + config_.inactive_timeout;
}

std::vector<CeioDatapath::PollDebug> CeioDatapath::debug_poll_positions() const {
  const std::size_t n = reactivation_order_.size();
  std::vector<PollDebug> out(n);
  for (std::size_t p = 0; p < n; ++p) {
    PollDebug& d = out[p];
    d.flow = reactivation_order_[p];
    d.held_deadline = poll_due_[p];
    d.armed = poll_armed(p);
    // Forced positions are the next poll_force_ ones after the cursor.
    const std::size_t ahead = (p + n - (poll_cursor_ + 1) % n) % n;
    d.forced = ahead < poll_force_;
    const Ext* ext = ext_of(d.flow);
    if (ext == nullptr) continue;
    d.quiescent = poll_quiescent(d.flow, *ext);
    d.deadline = inactivity_deadline(d.flow, *ext);
  }
  return out;
}

void CeioDatapath::poll_flow(FlowId id, Ext& ext, Nanos now) {
  {
    FlowState* fs = state_of(id);
    if (fs == nullptr) return;
    // Policy-layer steering override: the poll never readmits a forced-slow
    // flow to the fast path.
    const bool forced_slow =
        kind_path(fs->rt.config.kind) == policy::FlowPathOverride::kForceSlow;

    // Inactivity reclaim (Q3): idle flows surrender their credits.
    if (credits_.active(id) && now - ext.last_packet_at > config_.inactive_timeout) {
      credits_.reclaim(id);
      arm_all();
      ext.bytes_seen = Bytes{0};  // PIAS aging: an idle flow regains top priority
      ++rt_stats_.inactive_reclaims;
      CEIO_T_INSTANT(tele_, TraceTrack::kCreditController, "inactive_reclaim", now,
                     static_cast<double>(credits_.free_pool()), id);
      if (!ext.slow_mode) {
        ext.slow_mode = true;
        rmt_.update_action(id, SteerAction::kToNicMem);
      }
      return;
    }

    // CCA trigger (§4.1 Q2): the NIC detects that the network's production
    // rate exceeds the CPU's / memory controller's consumption rate. For
    // involved flows the unreleased-credit count approximates landed-but-
    // unprocessed fast-path packets; the slow backlog adds the elastic
    // buffer's content. Hysteresis: once marking starts it continues until
    // the backlog drains to the low watermark — without it the sender
    // settles into an equilibrium hovering at the threshold and the flow
    // never drains enough to regain the fast path.
    const bool involved = fs->rt.app->per_packet_cpu();
    const std::size_t slow_bk = slow_backlog(id);
    if (involved) {
      const std::size_t total_backlog =
          slow_bk + static_cast<std::size_t>(std::max<std::int64_t>(
                        ext.unreleased - config_.release_batch, 0));
      if (total_backlog > config_.slow_cca_threshold) ext.cca_marking = true;
      if (total_backlog <= config_.reenable_backlog) ext.cca_marking = false;
    } else {
      // Bypass flows legitimately park whole messages in the elastic
      // buffer, so the trigger threshold is deeper — but once crossed, the
      // same drain-to-empty hysteresis applies: the sender is held back
      // until the on-NIC backlog clears and the flow returns to the
      // credit-gated fast path, where chunk data stays LLC-resident for
      // the worker.
      if (slow_bk > config_.bypass_cca_threshold) ext.cca_marking = true;
      if (slow_bk <= config_.bypass_cca_threshold / 2) ext.cca_marking = false;
    }
    if (ext.cca_marking &&
        (ext.last_cca_at < Nanos{0} || now - ext.last_cca_at >= config_.cca_min_gap)) {
      if (fs->rt.source != nullptr) fs->rt.source->notify_host_congestion();
      ext.last_cca_at = now;
      ++rt_stats_.cca_triggers;
      CEIO_T_INSTANT(tele_, TraceTrack::kCreditController, "cca_trigger", now,
                     static_cast<double>(slow_bk), id);
    }

    if (config_.policy == SteerPolicy::kMpqPias) {
      // PIAS-style decision: priority (not credits) picks the path. Long
      // flows decay below the fast levels and stay exiled until idleness
      // resets their byte count — exactly the behaviour §4.1 rejects.
      const bool want_slow = forced_slow || mpq_level(id) >= config_.mpq_fast_levels;
      if (want_slow && !ext.slow_mode) {
        ext.slow_mode = true;
        ++rt_stats_.credit_switches_to_slow;
        CEIO_T_INSTANT(tele_, TraceTrack::kCreditController, "switch_to_slow", now,
                       static_cast<double>(mpq_level(id)), id);
        rmt_.update_action(id, SteerAction::kToNicMem);
      } else if (!want_slow && ext.slow_mode &&
                 slow_bk <= config_.reenable_backlog) {
        ext.slow_mode = false;
        ++rt_stats_.switches_back_to_fast;
        CEIO_T_INSTANT(tele_, TraceTrack::kCreditController, "switch_to_fast", now,
                       static_cast<double>(mpq_level(id)), id);
        rmt_.update_action(id, SteerAction::kToHost);
      }
      if (ext.slow_mode) kick_drain(id, ext);
      return;
    }

    if (!ext.slow_mode) {
      if (credits_.credits(id) <= 0) {
        ext.slow_mode = true;
        ++rt_stats_.credit_switches_to_slow;
        CEIO_T_INSTANT(tele_, TraceTrack::kCreditController, "switch_to_slow", now,
                       static_cast<double>(credits_.credits(id)), id);
        rmt_.update_action(id, SteerAction::kToNicMem);
      }
      return;
    }

    // Slow mode: keep the drain moving; re-enable the fast path once the
    // balance recovers. Involved flows additionally wait for the slow
    // backlog to drain (phase exclusivity for ordering); bypass flows don't
    // need it — message accounting tolerates mixed paths, and waiting would
    // trap small-packet flows behind the request-rate-bound drain.
    kick_drain(id, ext);
    if (forced_slow) return;
    const bool drained = !involved || slow_bk <= config_.reenable_backlog;
    if (drained && credits_.active(id) && credits_.credits(id) >= reenable_threshold()) {
      ext.slow_mode = false;
      ++rt_stats_.switches_back_to_fast;
      CEIO_T_INSTANT(tele_, TraceTrack::kCreditController, "switch_to_fast", now,
                     static_cast<double>(credits_.credits(id)), id);
      rmt_.update_action(id, SteerAction::kToHost);
    }
  }
}

void CeioDatapath::set_telemetry(Telemetry* tele) {
  DatapathBase::set_telemetry(tele);
  ext_.for_each([tele](FlowId, Ext& ext) {
    if (ext.elastic) ext.elastic->set_telemetry(tele);
  });
}

void CeioDatapath::register_metrics(MetricRegistry& registry) {
  DatapathBase::register_metrics(registry);
  registry.add_gauge("ceio.credits.free_pool",
                     [this]() { return static_cast<double>(credits_.free_pool()); });
  registry.add_gauge("ceio.credits.fair_share",
                     [this]() { return static_cast<double>(credits_.fair_share()); });
  registry.add_gauge("ceio.credits.active_flows",
                     [this]() { return static_cast<double>(credits_.active_count()); });
  registry.add_gauge("ceio.credits.balance_sum",
                     [this]() { return static_cast<double>(credits_.balance_sum()); });
  registry.add_gauge("ceio.slow.backlog", [this]() {
    std::size_t total = 0;
    ext_.for_each([&](FlowId id, const Ext&) { total += slow_backlog(id); });
    return static_cast<double>(total);
  });
  registry.add_gauge("ceio.slow.flows_in_slow_mode", [this]() {
    std::size_t total = 0;
    ext_.for_each([&](FlowId, const Ext& ext) { total += ext.slow_mode ? 1u : 0u; });
    return static_cast<double>(total);
  });
  registry.add_gauge("ceio.rt.cca_triggers",
                     [this]() { return static_cast<double>(rt_stats_.cca_triggers); });
  registry.add_gauge("ceio.rt.reactivations",
                     [this]() { return static_cast<double>(rt_stats_.reactivations); });
  registry.add_gauge("ceio.rt.switches_to_slow", [this]() {
    return static_cast<double>(rt_stats_.credit_switches_to_slow);
  });
  registry.add_gauge("ceio.rt.switches_to_fast",
                     [this]() { return static_cast<double>(rt_stats_.switches_back_to_fast); });
}

void CeioDatapath::reactivation_round() {
  if (!reactivation_order_.empty()) {
    int granted = 0;
    std::size_t scanned = 0;
    while (granted < config_.reactivate_per_round &&
           scanned < reactivation_order_.size()) {
      reactivation_cursor_ = (reactivation_cursor_ + 1) % reactivation_order_.size();
      const FlowId id = reactivation_order_[reactivation_cursor_];
      ++scanned;
      if (credits_.active(id)) continue;
      Ext* ext = ext_of(id);
      if (ext == nullptr) continue;
      credits_.reactivate(id);
      arm_all();
      ++rt_stats_.reactivations;
      ++granted;
      // The freshly granted flow may resume the fast path once drained; the
      // poll loop performs the actual switch.
    }
  }
  reactivate_timer_ = sched_.schedule_after(config_.reactivate_period,
                                            [this]() { reactivation_round(); });
}

}  // namespace ceio
