#include "harness/sharded_testbed.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <stdexcept>
#include <utility>

#include "common/domain_annotations.h"
#include "common/rng.h"
#include "iopath/testbed.h"
#include "net/flow_feedback.h"
#include "net/flow_source.h"
#include "net/network_link.h"
#include "sim/coalesced_stream.h"
#include "sim/epoch_channel.h"

namespace ceio::harness {

// Everything crossing a domain boundary, flattened to one merge record.
// The merge key (when, src, seq) is a total order: `seq` is the sender
// domain's monotonic counter over all its outgoing traffic.
enum class WireKind : std::uint8_t {
  kPacket,
  kDelivered,
  kDropped,
  kHostCongestion,
  kMessageComplete,
};

struct WireEntry {
  Nanos when{0};  // arrival time at the consumer (send time + channel delay)
  std::uint64_t seq = 0;
  std::int32_t src = 0;
  WireKind kind = WireKind::kPacket;
  Packet pkt;            // kPacket / kDelivered / kDropped payload
  FlowId flow = 0;       // feedback routing
  std::uint64_t message_id = 0;  // kMessageComplete
  Nanos done{0};                 // kMessageComplete
};

// The packet channel ships PacketBurst-sized batches, each packet carrying
// its own arrival stamp and seq (assigned at serialization exit, so seqs
// stay in event order relative to the sender's control traffic).
struct BurstMsg {
  std::uint32_t count = 0;
  std::array<Nanos, PacketBurst::kCapacity> when;
  std::array<std::uint64_t, PacketBurst::kCapacity> seq;
  std::array<Packet, PacketBurst::kCapacity> pkts;
};

}  // namespace ceio::harness

// Channel-payload declarations live at global scope (an explicit
// specialization of ceio::is_domain_message must be in an enclosing
// namespace of ceio). Both types are owned values: stamps, ids and Packet
// copies — no pointers into the producing domain.
CEIO_DOMAIN_MESSAGE(ceio::harness::WireEntry);
CEIO_DOMAIN_MESSAGE(ceio::harness::BurstMsg);

namespace ceio::harness {

// One event domain: a full receiver Testbed, the FlowSources whose receivers
// live one ring-hop downstream, and this domain's side of every channel. All
// mutable state here is touched only by the domain's own phases (plus the
// producer slot of outgoing channels) — the coordinator's barriers are the
// only synchronization.
class DomainSlice final : public ShardDomain {
 public:
  DomainSlice(ShardedTestbed& owner, int id, const ExperimentSpec& spec)
      : owner_(owner),
        id_(id),
        domains_(spec.testbed.sim.domains),
        net_propagation_(spec.testbed.net.propagation) {
    TestbedConfig cfg = spec.testbed;
    cfg.seed = derive_seed(spec.testbed.seed, static_cast<std::uint64_t>(id));
    bed_ = std::make_unique<Testbed>(std::move(cfg));
    if (spec.tenant.enabled) {
      // Every slice mounts the full tenant assembly (pools, per-tenant
      // datapaths, way partition, domain-local controller) even though only
      // a subset of each tenant's flows lands here: construction order is
      // part of the per-domain RNG contract, and the demux needs the whole
      // flow-id map to route any block member.
      assembly_ = std::make_unique<tenant::TenantAssembly>(*bed_, spec.tenant, spec.controller);
    } else {
      app_ = make_app(*bed_, spec.workload.app);
    }
    egress_ = std::make_unique<NetworkLink>(
        bed_->sched(),
        NetworkLink::Deliver([this](Packet pkt) { on_egress(std::move(pkt)); }),
        spec.testbed.net);
    // Egress drops happen in the sender's own domain: the local (full-delay)
    // loss path applies, exactly as on the single-domain link.
    egress_->set_drop_handler([this](const Packet& pkt) {
      owner_.flows_[pkt.flow - 1]->notify_dropped(pkt);
    });
    inject_ = std::make_unique<CoalescedStream<WireEntry>>(
        bed_->sched(), [this](Nanos when, WireEntry e) { dispatch(when, std::move(e)); });
  }

  // ---- ShardDomain ----

  void drain_phase(Nanos epoch_end) override {
    ++epoch_;
    // Every channel's delay is the lookahead, so what was sent last epoch
    // arrives in [epoch start, epoch_end], plus what the previous drain held
    // back. An arrival at exactly epoch_end was sent at the last instant of
    // the previous epoch (runs include their stop time): it waits for the
    // next drain, so each drain injects exactly the arrivals in
    // [epoch start, epoch_end), merged by (arrival, source domain, seq).
    // Injecting it now would reorder same-timestamp events and move
    // results (governed-kv-short --ms 1 at 4 domains gains one message on
    // each of flows 5-8).
    eligible_.swap(held_);
    held_.clear();
    const int up = (id_ + 1) % domains_;
    in_pkts_.drain(epoch_, [&](BurstMsg& b) {
      for (std::uint32_t i = 0; i < b.count; ++i) {
        WireEntry e;
        e.when = b.when[i];
        e.seq = b.seq[i];
        e.src = up;
        e.kind = WireKind::kPacket;
        e.pkt = std::move(b.pkts[i]);
        eligible_.push_back(std::move(e));
      }
    });
    in_fb_.drain(epoch_, [&](WireEntry& e) { eligible_.push_back(std::move(e)); });
    std::sort(eligible_.begin(), eligible_.end(),
              [](const WireEntry& a, const WireEntry& b) {
                if (a.when != b.when) return a.when < b.when;
                if (a.src != b.src) return a.src < b.src;
                return a.seq < b.seq;
              });
    for (auto& e : eligible_) {
      assert(e.when <= epoch_end);
      const Nanos when = e.when;
      if (when < epoch_end) {
        inject_->push(when, std::move(e));
      } else {
        held_.push_back(std::move(e));
      }
    }
  }

  void run_phase(Nanos stop, bool at_epoch_end) override {
    bed_->run_until(stop);
    // Producer-side flush: a partially filled burst must cross at the epoch
    // boundary or its packets would miss their arrival epoch downstream.
    if (at_epoch_end) flush_pending();
  }

  // ---- Channel wiring (called by ShardedTestbed during construction) ----

  EpochChannel<BurstMsg>* pkt_inbox() { return &in_pkts_; }
  EpochChannel<WireEntry>* fb_inbox() { return &in_fb_; }
  void set_out_pkts(EpochChannel<BurstMsg>* channel) { out_pkts_ = channel; }
  void set_out_fb(EpochChannel<WireEntry>* channel) { out_fb_ = channel; }

  // ---- Flow setup ----

  /// Receiver half through this domain's Testbed, reporting to a
  /// channel-backed feedback proxy.
  void add_receiver(const FlowConfig& fc) {
    proxies_.push_back(std::make_unique<RemoteFeedback>(*this, fc.id));
    bed_->add_receiver(fc, assembly_ ? assembly_->app_of_flow(fc.id) : *app_, *proxies_.back());
  }

  /// Sender half on this domain's egress link, keyed on the run seed like
  /// every single-domain source.
  FlowSource* add_source(const FlowConfig& fc, std::uint64_t run_seed) {
    sources_.push_back(
        make_flow_source(bed_->windows(), *egress_, fc, run_seed));
    sources_.back()->arm_start();
    return sources_.back().get();
  }

  // ---- Introspection ----

  Testbed& bed() { return *bed_; }
  const Testbed& bed() const { return *bed_; }
  tenant::TenantAssembly* assembly() { return assembly_.get(); }
  void reset_sources() {
    for (auto& s : sources_) s->reset_measurement();
  }

 private:
  // Receiver-domain proxy standing in for the remote FlowSource: forwards
  // each notification into the feedback channel with one link propagation as
  // transit. FlowSource::apply_remote_* account for the delay already spent.
  class RemoteFeedback final : public FlowFeedback {
   public:
    RemoteFeedback(DomainSlice& slice, FlowId flow) : slice_(slice), flow_(flow) {}

    void notify_delivered(const Packet& pkt) override {
      WireEntry e;
      e.kind = WireKind::kDelivered;
      e.pkt = pkt;
      e.flow = flow_;
      slice_.send_feedback(std::move(e));
    }
    void notify_dropped(const Packet& pkt) override {
      WireEntry e;
      e.kind = WireKind::kDropped;
      e.pkt = pkt;
      e.flow = flow_;
      slice_.send_feedback(std::move(e));
    }
    void notify_host_congestion() override {
      WireEntry e;
      e.kind = WireKind::kHostCongestion;
      e.flow = flow_;
      slice_.send_feedback(std::move(e));
    }
    void notify_message_complete(std::uint64_t message_id, Nanos done) override {
      WireEntry e;
      e.kind = WireKind::kMessageComplete;
      e.flow = flow_;
      e.message_id = message_id;
      e.done = done;
      slice_.send_feedback(std::move(e));
    }

   private:
    DomainSlice& slice_;
    FlowId flow_;
  };

  void send_feedback(WireEntry e) {
    e.when = bed_->sched().now() + net_propagation_;
    e.seq = next_seq_++;
    e.src = static_cast<std::int32_t>(id_);
    out_fb_->push(epoch_, std::move(e));
  }

  void on_egress(Packet pkt) {
    // Fires at serialization exit; the propagation rides in the channel as
    // the arrival stamp (it is the cross-domain lookahead).
    BurstMsg& b = pending_;
    b.when[b.count] = bed_->sched().now() + net_propagation_;
    b.seq[b.count] = next_seq_++;
    b.pkts[b.count] = std::move(pkt);
    if (++b.count == PacketBurst::kCapacity) flush_pending();
  }

  void flush_pending() {
    if (pending_.count == 0) return;
    out_pkts_->push(epoch_, pending_);
    pending_.count = 0;
  }

  void dispatch(Nanos, WireEntry e) {
    switch (e.kind) {
      case WireKind::kPacket:
        bed_->nic().receive(std::move(e.pkt));
        break;
      case WireKind::kDelivered:
        owner_.flows_[e.flow - 1]->apply_remote_delivered(e.pkt);
        break;
      case WireKind::kDropped:
        owner_.flows_[e.flow - 1]->apply_remote_dropped(e.pkt);
        break;
      case WireKind::kHostCongestion:
        owner_.flows_[e.flow - 1]->apply_remote_host_congestion();
        break;
      case WireKind::kMessageComplete:
        owner_.flows_[e.flow - 1]->notify_message_complete(e.message_id, e.done);
        break;
    }
  }

  ShardedTestbed& owner_;
  int id_;
  int domains_;
  Nanos net_propagation_;
  // The current epoch (1-based): each drain opens the next one, and the
  // coordinator runs exactly one drain per epoch in every domain, so all
  // domains agree on it.
  std::uint64_t epoch_ = 0;

  // Domain-owned model state: touched only by this domain's phases. Heap
  // allocated so event callbacks may keep the addresses.
  std::unique_ptr<Testbed> bed_;
  Application* app_ = nullptr;                       // single-tenant mode
  std::unique_ptr<tenant::TenantAssembly> assembly_;  // tenant mode
  std::unique_ptr<NetworkLink> egress_;  // toward domain (id-1) mod domains
  std::unique_ptr<CoalescedStream<WireEntry>> inject_;

  // Outgoing (producer side; channels owned by the consuming slice).
  EpochChannel<BurstMsg>* out_pkts_ = nullptr;
  EpochChannel<WireEntry>* out_fb_ = nullptr;
  std::uint64_t next_seq_ = 0;
  BurstMsg pending_;

  // Incoming (owned here).
  EpochChannel<BurstMsg> in_pkts_;  // from (id+1) mod domains
  EpochChannel<WireEntry> in_fb_;   // from (id-1) mod domains
  std::vector<WireEntry> eligible_;  // one drain's merge buffer
  std::vector<WireEntry> held_;      // arrivals at a drain's epoch_end

  // Local halves of the deployment's flows (receiver cores live in bed_).
  std::vector<std::unique_ptr<RemoteFeedback>> proxies_;
  std::vector<std::unique_ptr<FlowSource>> sources_;
};

ShardedTestbed::ShardedTestbed(const ExperimentSpec& spec) {
  const int P = spec.testbed.sim.domains;
  if (P < 2) {
    throw std::invalid_argument("ShardedTestbed requires sim.domains >= 2");
  }
  if (!spec.tenant.enabled && !is_known_app(spec.workload.app)) {
    throw std::invalid_argument("unknown app '" + spec.workload.app + "'");
  }
  slices_.reserve(static_cast<std::size_t>(P));
  for (int d = 0; d < P; ++d) {
    slices_.push_back(std::make_unique<DomainSlice>(*this, d, spec));
  }

  // Ring channels: packets flow s -> s-1, feedback g -> g+1.
  for (int s = 0; s < P; ++s) {
    slices_[static_cast<std::size_t>(s)]->set_out_pkts(
        slices_[static_cast<std::size_t>((s + P - 1) % P)]->pkt_inbox());
    slices_[static_cast<std::size_t>(s)]->set_out_fb(
        slices_[static_cast<std::size_t>((s + 1) % P)]->fb_inbox());
  }

  // Flows, in id order (the canonical runner's construction contract).
  for_each_flow(spec, [this, P, &spec](const FlowConfig& fc) {
    const int g = static_cast<int>((fc.id - 1) % static_cast<FlowId>(P));
    slices_[static_cast<std::size_t>(g)]->add_receiver(fc);
    flows_.push_back(
        slices_[static_cast<std::size_t>((g + 1) % P)]->add_source(fc, spec.testbed.seed));
  });

  std::vector<ShardDomain*> domains;
  domains.reserve(slices_.size());
  for (auto& s : slices_) domains.push_back(s.get());
  coordinator_ = std::make_unique<ShardCoordinator>(
      std::move(domains), spec.testbed.net.propagation, spec.testbed.sim.shards);
}

ShardedTestbed::~ShardedTestbed() = default;

void ShardedTestbed::run_until(Nanos deadline) { coordinator_->run_until(deadline); }

Nanos ShardedTestbed::now() const { return coordinator_->now(); }

int ShardedTestbed::shards() const { return coordinator_->shards(); }

Nanos ShardedTestbed::lookahead() const { return coordinator_->lookahead(); }

std::uint64_t ShardedTestbed::epochs_completed() const {
  return coordinator_->epochs_completed();
}

Testbed& ShardedTestbed::bed(int domain) {
  return slices_[static_cast<std::size_t>(domain)]->bed();
}

FlowSource* ShardedTestbed::source(FlowId id) {
  if (id == 0 || id > flows_.size()) return nullptr;
  return flows_[id - 1];
}

std::uint64_t ShardedTestbed::mailbox_spills() const { return 0; }

void ShardedTestbed::reset_measurement() {
  measure_start_ = now();
  for (auto& s : slices_) {
    s->bed().reset_measurement();
    s->reset_sources();
  }
}

FlowReport ShardedTestbed::report(FlowId id) const {
  if (id == 0 || id > flows_.size()) return FlowReport{};
  return make_flow_report(*flows_[id - 1], now() - measure_start_);
}

RunResult ShardedTestbed::collect() const {
  std::vector<FlowReport> flows;
  flows.reserve(flows_.size());
  for (FlowId id = 1; id <= flows_.size(); ++id) flows.push_back(report(id));
  std::vector<Testbed*> beds;
  std::vector<tenant::TenantAssembly*> assemblies;
  for (const auto& s : slices_) {
    beds.push_back(&s->bed());
    if (s->assembly() != nullptr) assemblies.push_back(s->assembly());
  }
  return collect_domains(std::move(flows), beds, assemblies);
}

RunResult run_sharded_experiment(const ExperimentSpec& spec) {
  ShardedTestbed bed(spec);
  bed.run_until(spec.warmup);
  bed.reset_measurement();
  bed.run_until(spec.warmup + spec.measure);
  return bed.collect();
}

}  // namespace ceio::harness
