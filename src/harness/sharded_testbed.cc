#include "harness/sharded_testbed.h"

#include <algorithm>
#include <array>
#include <deque>
#include <stdexcept>
#include <utility>

#include "common/domain_annotations.h"
#include "common/rng.h"
#include "iopath/testbed.h"
#include "net/flow_feedback.h"
#include "net/flow_source.h"
#include "net/network_link.h"
#include "sim/coalesced_stream.h"
#include "sim/spsc_mailbox.h"

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
  kCreditReport,
  kBudgetGrant,
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
  std::int64_t value = 0;        // kCreditReport demand / kBudgetGrant total
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

// Mailbox-payload declarations live at global scope (an explicit
// specialization of ceio::is_domain_message must be in an enclosing
// namespace of ceio). Both types are owned values: stamps, ids and Packet
// copies — no pointers into the producing domain.
CEIO_DOMAIN_MESSAGE(ceio::harness::WireEntry);
CEIO_DOMAIN_MESSAGE(ceio::harness::BurstMsg);

namespace ceio::harness {

// One event domain: a full receiver Testbed, the FlowSources whose receivers
// live one ring-hop downstream, and this domain's side of every channel. All
// mutable state here is touched only by the domain's own phases (plus the
// producer side of outgoing mailboxes) — the coordinator's barriers are the
// only synchronization.
class DomainSlice final : public ShardDomain {
 public:
  DomainSlice(ShardedTestbed& owner, int id, const ExperimentSpec& spec)
      : owner_(owner),
        id_(id),
        domains_(spec.testbed.sim.domains),
        net_propagation_(spec.testbed.net.propagation),
        pcie_propagation_(spec.testbed.pcie.propagation),
        in_pkts_(spec.testbed.sim.mailbox_entries),
        in_fb_(spec.testbed.sim.mailbox_entries) {
    TestbedConfig cfg = spec.testbed;
    cfg.seed = derive_seed(spec.testbed.seed, static_cast<std::uint64_t>(id));
    bed_.emplace(std::move(cfg));
    if (spec.tenant.enabled) {
      // Every slice mounts the full tenant assembly (pools, per-tenant
      // datapaths, way partition, domain-local controller) even though only
      // a subset of each tenant's flows lands here: construction order is
      // part of the per-domain RNG contract, and the demux needs the whole
      // flow-id map to route any block member.
      assembly_.emplace(*bed_, spec.tenant, spec.controller);
    } else {
      app_ = make_app(*bed_, spec.workload.app);
    }
    egress_.emplace(
        bed_->sched(),
        NetworkLink::Deliver([this](Packet pkt) { on_egress(std::move(pkt)); }),
        spec.testbed.net);
    // Egress drops happen in the sender's own domain: the local (full-delay)
    // loss path applies, exactly as on the single-domain link.
    egress_->set_drop_handler([this](const Packet& pkt) {
      owner_.flows_[pkt.flow - 1]->notify_dropped(pkt);
    });
    inject_.emplace(
        bed_->sched(),
        [this](Nanos when, WireEntry e) { dispatch(when, std::move(e)); });
  }

  // ---- ShardDomain ----

  void drain_phase(Nanos epoch_end) override {
    // Stage everything the mailboxes hold (frees the rings), then pop the
    // prefix arriving inside this epoch. Channel delays can exceed the
    // lookahead (net propagation vs a PCIe-derived epoch), so messages may
    // sit staged for several epochs.
    scratch_bursts_.clear();
    in_pkts_.drain_into(scratch_bursts_);
    const int up = (id_ + 1) % domains_;
    for (auto& b : scratch_bursts_) {
      for (std::uint32_t i = 0; i < b.count; ++i) {
        WireEntry e;
        e.when = b.when[i];
        e.seq = b.seq[i];
        e.src = up;
        e.kind = WireKind::kPacket;
        e.pkt = std::move(b.pkts[i]);
        stage_pkts_.push_back(std::move(e));
      }
    }
    scratch_ctrl_.clear();
    in_fb_.drain_into(scratch_ctrl_);
    for (auto& e : scratch_ctrl_) stage_fb_.push_back(std::move(e));
    for (std::size_t i = 0; i < in_credit_.size(); ++i) {
      scratch_ctrl_.clear();
      in_credit_[i]->drain_into(scratch_ctrl_);
      for (auto& e : scratch_ctrl_) stage_credit_[i].push_back(std::move(e));
    }

    eligible_.clear();
    pop_eligible(stage_pkts_, epoch_end);
    pop_eligible(stage_fb_, epoch_end);
    for (auto& st : stage_credit_) pop_eligible(st, epoch_end);
    std::sort(eligible_.begin(), eligible_.end(),
              [](const WireEntry& a, const WireEntry& b) {
                if (a.when != b.when) return a.when < b.when;
                if (a.src != b.src) return a.src < b.src;
                return a.seq < b.seq;
              });
    for (auto& e : eligible_) {
      const Nanos when = e.when;
      inject_->push(when, std::move(e));
    }
  }

  void run_phase(Nanos stop, bool at_epoch_end) override {
    bed_->run_until(stop);
    // Producer-side flush: a partially filled burst must cross at the epoch
    // boundary or its packets would miss their arrival epoch downstream.
    if (at_epoch_end) flush_pending();
  }

  // ---- Channel wiring (called by ShardedTestbed during construction) ----

  SpscMailbox<BurstMsg>* pkt_inbox() { return &in_pkts_; }
  SpscMailbox<WireEntry>* fb_inbox() { return &in_fb_; }
  SpscMailbox<WireEntry>* add_credit_inbox(std::size_t entries) {
    in_credit_.push_back(std::make_unique<SpscMailbox<WireEntry>>(entries));
    stage_credit_.emplace_back();
    return in_credit_.back().get();
  }
  void set_out_pkts(SpscMailbox<BurstMsg>* box) { out_pkts_ = box; }
  void set_out_fb(SpscMailbox<WireEntry>* box) { out_fb_ = box; }
  void set_out_credit(SpscMailbox<WireEntry>* box) { out_credit_ = box; }
  void set_grant_box(int target, SpscMailbox<WireEntry>* box) {
    grant_boxes_.resize(static_cast<std::size_t>(domains_), nullptr);
    grant_boxes_[static_cast<std::size_t>(target)] = box;
  }

  // ---- Flow setup ----

  /// Receiver half through this domain's Testbed, reporting to a
  /// mailbox-backed feedback proxy.
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

  // ---- Host-shard credit arbitration ----

  void arm_credit_report(Nanos period) {
    bed_->sched().schedule_after(period, [this, period]() {
      send_credit_report();
      arm_credit_report(period);
    });
  }

  void apply_self_grant(std::int64_t v) {
    bed_->sched().schedule_after(pcie_propagation_, [this, v]() {
      // Epoch-barrier credit arbitration owns the base budget; the
      // governor's credit_scale composes on top.
      bed_->ceio()->set_total_credits(v);  // lint: allow-raw-actuator
    });
  }

  void send_grant(int target, std::int64_t v) {
    WireEntry e;
    e.kind = WireKind::kBudgetGrant;
    e.value = v;
    e.src = static_cast<std::int32_t>(id_);
    e.seq = next_seq_++;
    e.when = bed_->sched().now() + pcie_propagation_;
    grant_boxes_[static_cast<std::size_t>(target)]->push(std::move(e));
  }

  // ---- Introspection ----

  Testbed& bed() { return *bed_; }
  const Testbed& bed() const { return *bed_; }
  tenant::TenantAssembly* assembly() { return assembly_.get(); }
  void reset_sources() {
    for (auto& s : sources_) s->reset_measurement();
  }
  std::uint64_t spill_events() const {
    std::uint64_t n = in_pkts_.spill_events() + in_fb_.spill_events();
    for (const auto& box : in_credit_) n += box->spill_events();
    return n;
  }

 private:
  // Receiver-domain proxy standing in for the remote FlowSource: forwards
  // each notification into the feedback mailbox with one link propagation as
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
    out_fb_->push(std::move(e));
  }

  void send_credit_report() {
    const auto& credits = bed_->ceio()->credits();
    const std::int64_t demand =
        std::max<std::int64_t>(credits.total() - credits.free_pool(), 0);
    if (id_ == 0) {
      // The host shard's own report takes the same PCIe transit, locally.
      bed_->sched().schedule_after(pcie_propagation_, [this, demand]() {
        owner_.on_credit_report(0, demand);
      });
    } else {
      WireEntry e;
      e.kind = WireKind::kCreditReport;
      e.value = demand;
      e.src = static_cast<std::int32_t>(id_);
      e.seq = next_seq_++;
      e.when = bed_->sched().now() + pcie_propagation_;
      out_credit_->push(std::move(e));
    }
  }

  void on_egress(Packet pkt) {
    // Fires at serialization exit; the propagation rides in the mailbox as
    // the arrival stamp (it is the cross-domain lookahead).
    BurstMsg& b = pending_;
    b.when[b.count] = bed_->sched().now() + net_propagation_;
    b.seq[b.count] = next_seq_++;
    b.pkts[b.count] = std::move(pkt);
    if (++b.count == PacketBurst::kCapacity) flush_pending();
  }

  void flush_pending() {
    if (pending_.count == 0) return;
    out_pkts_->push(pending_);
    pending_.count = 0;
  }

  void pop_eligible(std::deque<WireEntry>& stage, Nanos epoch_end) {
    while (!stage.empty() && stage.front().when < epoch_end) {
      eligible_.push_back(std::move(stage.front()));
      stage.pop_front();
    }
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
      case WireKind::kCreditReport:
        owner_.on_credit_report(static_cast<int>(e.src), e.value);
        break;
      case WireKind::kBudgetGrant:
        bed_->ceio()->set_total_credits(e.value);  // lint: allow-raw-actuator
        break;
    }
  }

  ShardedTestbed& owner_;
  int id_;
  int domains_;
  Nanos net_propagation_;
  Nanos pcie_propagation_;

  // Domain-owned model state: touched only by this domain's phases. The
  // DomainLocal wrapper makes that ownership explicit (move-only, so a
  // refactor cannot silently fork or share it across slices).
  DomainLocal<Testbed> bed_;
  Application* app_ = nullptr;                   // single-tenant mode
  DomainLocal<tenant::TenantAssembly> assembly_;  // tenant mode
  DomainLocal<NetworkLink> egress_;  // toward domain (id-1) mod domains
  DomainLocal<CoalescedStream<WireEntry>> inject_;

  // Outgoing (producer side; boxes owned by the consuming slice).
  SpscMailbox<BurstMsg>* out_pkts_ = nullptr;
  SpscMailbox<WireEntry>* out_fb_ = nullptr;
  SpscMailbox<WireEntry>* out_credit_ = nullptr;          // d -> 0 (d > 0)
  std::vector<SpscMailbox<WireEntry>*> grant_boxes_;      // domain 0: 0 -> d
  std::uint64_t next_seq_ = 0;
  BurstMsg pending_;

  // Incoming (owned here).
  SpscMailbox<BurstMsg> in_pkts_;  // from (id+1) mod domains
  SpscMailbox<WireEntry> in_fb_;   // from (id-1) mod domains
  std::vector<std::unique_ptr<SpscMailbox<WireEntry>>> in_credit_;

  // Per-inbox staging, sorted by arrival (mailbox order is chronological).
  std::deque<WireEntry> stage_pkts_;
  std::deque<WireEntry> stage_fb_;
  std::vector<std::deque<WireEntry>> stage_credit_;
  std::vector<BurstMsg> scratch_bursts_;
  std::vector<WireEntry> scratch_ctrl_;
  std::vector<WireEntry> eligible_;

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

  // Tenant mode keeps credit control domain-local: each slice's per-tenant
  // CEIO instances are sized from that slice's way partition, and the way
  // controllers already rebalance them. Cross-domain arbitration of one
  // global pool would couple domains whose partitions evolve independently.
  const bool ceio = spec.testbed.system == SystemKind::kCeio && !spec.tenant.enabled;
  if (ceio) {
    const std::size_t entries = spec.testbed.sim.mailbox_entries;
    demand_.assign(static_cast<std::size_t>(P), 0);
    share_.assign(static_cast<std::size_t>(P), 0);
    for (int d = 1; d < P; ++d) {
      slices_[static_cast<std::size_t>(d)]->set_out_credit(
          slices_[0]->add_credit_inbox(entries));
      slices_[0]->set_grant_box(
          d, slices_[static_cast<std::size_t>(d)]->add_credit_inbox(entries));
    }
    for (int d = 0; d < P; ++d) {
      global_credits_ += slices_[static_cast<std::size_t>(d)]->bed().ceio()->credits().total();
      slices_[static_cast<std::size_t>(d)]->arm_credit_report(spec.testbed.sim.credit_epoch);
    }
  }

  // Flows, in id order (the canonical runner's construction contract).
  for_each_flow(spec, [this, P, &spec](const FlowConfig& fc) {
    const int g = static_cast<int>((fc.id - 1) % static_cast<FlowId>(P));
    slices_[static_cast<std::size_t>(g)]->add_receiver(fc);
    flows_.push_back(
        slices_[static_cast<std::size_t>((g + 1) % P)]->add_source(fc, spec.testbed.seed));
  });

  Nanos lookahead = spec.testbed.net.propagation;
  if (ceio) lookahead = std::min(lookahead, spec.testbed.pcie.propagation);
  std::vector<ShardDomain*> domains;
  domains.reserve(slices_.size());
  for (auto& s : slices_) domains.push_back(s.get());
  coordinator_ = std::make_unique<ShardCoordinator>(std::move(domains), lookahead,
                                                    spec.testbed.sim.shards);
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

std::uint64_t ShardedTestbed::mailbox_spills() const {
  std::uint64_t n = 0;
  for (const auto& s : slices_) n += s->spill_events();
  return n;
}

void ShardedTestbed::reset_measurement() {
  measure_start_ = now();
  for (auto& s : slices_) {
    s->bed().reset_measurement();
    s->reset_sources();
  }
}

void ShardedTestbed::on_credit_report(int src, std::int64_t demand) {
  demand_[static_cast<std::size_t>(src)] = demand;
  if (++reports_ < static_cast<int>(slices_.size())) return;
  reports_ = 0;
  const auto P = static_cast<std::int64_t>(slices_.size());
  std::int64_t sum = 0;
  for (const std::int64_t d : demand_) sum += d;
  if (sum == 0) {
    // No demand anywhere: equal split, remainder to the lowest domain ids.
    const std::int64_t base = global_credits_ / P;
    const std::int64_t rem = global_credits_ % P;
    for (std::int64_t d = 0; d < P; ++d) {
      share_[static_cast<std::size_t>(d)] = base + (d < rem ? 1 : 0);
    }
  } else {
    // Proportional to demand with a floor, leftovers round-robin from
    // domain 0. Slight overshoot from the floor is tolerated the same way
    // the controller tolerates poll-lag overshoot.
    constexpr std::int64_t kMinShare = 64;
    std::int64_t assigned = 0;
    for (std::int64_t d = 0; d < P; ++d) {
      auto& s = share_[static_cast<std::size_t>(d)];
      s = std::max(global_credits_ * demand_[static_cast<std::size_t>(d)] / sum, kMinShare);
      assigned += s;
    }
    for (std::int64_t left = global_credits_ - assigned, d = 0; left > 0;
         --left, d = (d + 1) % P) {
      ++share_[static_cast<std::size_t>(d)];
    }
  }
  slices_[0]->apply_self_grant(share_[0]);
  for (std::int64_t d = 1; d < P; ++d) {
    slices_[0]->send_grant(static_cast<int>(d), share_[static_cast<std::size_t>(d)]);
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
