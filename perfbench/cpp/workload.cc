#include "workload.h"

#include <algorithm>
#include <cstdio>
#include <stdexcept>

#include "apps/echo.h"
#include "apps/kv_store.h"
#include "apps/linefs.h"
#include "apps/thrasher.h"
#include "config/config_ops.h"
#include "harness/scenario_registry.h"
#include "tenant/tenant_bed.h"

namespace perfbench {

using ceio::FlowId;
using ceio::Nanos;
using ceio::Testbed;
namespace harness = ceio::harness;

const std::vector<WorkloadDef>& workloads() {
  static const std::vector<WorkloadDef> defs = {
      // The per-packet baseline: 16 x 25G saturates the 200G link on the LLC
      // hit path. Its sharded variant (governor off, 8 event domains on 4
      // shards) is the only run of ShardCoordinator, the mailboxes and
      // ShardedTestbed; it is measured in the traced run only, because its
      // host time is dominated by barrier wake-ups and swings 12-16% between
      // processes on a shared 4-vCPU host.
      {"kv16",
       "",
       "workload.flows = 16\n"
       "policy.governor = reactive\n"
       "warmup = 1ms\n"
       "measure = 5ms\n",
       "policy.governor = off\n"
       "sim.domains = 8\n"
       "sim.shards = 4\n"
       "warmup = 250us\n"
       "measure = 1ms\n"},
      // The eviction path: DDIO floods, premature evictions, bypass DMA and
      // the way-partition controller on a shared 3 MiB LLC.
      {"tenants-reactive",
       "multitenant-reactive",
       "warmup = 2ms\n"
       "measure = 10ms\n",
       ""},
      // Per-flow state at scale, the far-timer heap tier, more flows than
      // credits.
      {"echo4k-poisson",
       "",
       "workload.app = echo\n"
       "workload.flows = 4096\n"
       "workload.offered_rate = 0.01Gbps\n"
       "workload.poisson = true\n"
       "ceio.fast_ring_entries = 16\n"
       "ceio.poll_scan_limit = 4096\n"
       "warmup = 250us\n"
       "measure = 500us\n",
       ""},
  };
  return defs;
}

const WorkloadDef* find_workload(const std::string& name) {
  for (const auto& w : workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

harness::ExperimentSpec make_spec(const WorkloadDef& w, std::uint64_t seed, bool sharded) {
  harness::ExperimentSpec spec;
  if (!w.scenario.empty()) {
    const harness::Scenario* s = harness::ScenarioRegistry::instance().find(w.scenario);
    if (s == nullptr) throw std::invalid_argument("unknown scenario '" + w.scenario + "'");
    spec = s->spec;
  }
  std::string error;
  if (!ceio::config::apply_text(spec, w.overrides, &error) ||
      (sharded && !ceio::config::apply_text(spec, w.sharded, &error))) {
    throw std::invalid_argument("workload " + w.name + ": " + error);
  }
  spec.testbed.seed = seed;
  return spec;
}

// ---- Run -------------------------------------------------------------------

Run::Run(const harness::ExperimentSpec& spec) : spec_(spec) {}

Run::~Run() = default;

void Run::construct() {
  if (sharded()) {
    sharded_ = std::make_unique<harness::ShardedTestbed>(spec_);
    return;
  }
  bed_ = std::make_unique<Testbed>(spec_.testbed);
  if (spec_.tenant.enabled) {
    assembly_ =
        std::make_unique<ceio::tenant::TenantAssembly>(*bed_, spec_.tenant, spec_.controller);
  }
}

void Run::make_app() {
  if (sharded() || spec_.tenant.enabled) return;
  app_ = harness::make_app(*bed_, spec_.workload.app);
  if (app_ == nullptr) throw std::invalid_argument("unknown app '" + spec_.workload.app + "'");
}

void Run::add_flows() {
  if (sharded()) return;
  if (assembly_) {
    for (const auto& e : assembly_->roster()) {
      const harness::WorkloadSpec w = harness::tenant_workload(e.cfg);
      for (FlowId id = e.first_flow; id <= e.last_flow; ++id) {
        bed_->add_flow(harness::flow_config(id, w), assembly_->app_of_flow(id));
      }
    }
    return;
  }
  for (FlowId id = 1; id <= static_cast<FlowId>(spec_.workload.flows); ++id) {
    bed_->add_flow(harness::flow_config(id, spec_.workload), *app_);
  }
}

void Run::run_until(Nanos deadline) {
  if (sharded_) {
    sharded_->run_until(deadline);
  } else {
    bed_->run_until(deadline);
  }
}

void Run::reset_measurement() {
  if (sharded_) {
    sharded_->reset_measurement();
  } else {
    bed_->reset_measurement();
  }
}

harness::RunResult Run::collect() {
  if (sharded_) return sharded_->collect();
  harness::RunResult out = harness::collect_result(*bed_);
  if (assembly_) {
    out.tenants = harness::tenant_flow_reports(assembly_->roster(), out.flows);
    for (std::size_t t = 0; t < out.tenants.size(); ++t) {
      assembly_->fill_llc_fields(out.tenants[t], t);
    }
    out.way_repartitions = assembly_->repartitions();
  }
  return out;
}

std::vector<Testbed*> Run::beds() {
  std::vector<Testbed*> out;
  if (sharded_) {
    for (int d = 0; d < sharded_->domains(); ++d) out.push_back(&sharded_->bed(d));
  } else if (bed_) {
    out.push_back(bed_.get());
  }
  return out;
}

int Run::flow_count() const {
  if (!spec_.tenant.enabled) return spec_.workload.flows;
  const auto roster = ceio::tenant::tenant_roster(spec_.tenant, spec_.testbed.llc.ddio_ways);
  return static_cast<int>(roster.back().last_flow);
}

std::int64_t Run::ceio_total_credits() {
  if (assembly_) {
    ceio::CeioDatapath* c = assembly_->ceio_of(0);
    return c != nullptr ? c->credits().total() : 0;
  }
  const auto all = beds();
  if (all.empty() || all.front()->ceio() == nullptr) return 0;
  return all.front()->ceio()->credits().total();
}

Nanos Run::lookahead() const { return sharded_ ? sharded_->lookahead() : Nanos{0}; }

namespace {

void add_app(Counters& c, ceio::Application* app) {
  if (auto* kv = dynamic_cast<ceio::KvStore*>(app)) c.kv_ops += kv->gets() + kv->puts();
  if (auto* echo = dynamic_cast<ceio::EchoApp*>(app)) c.echo_echoed += echo->echoed();
  if (auto* fs = dynamic_cast<ceio::LineFs*>(app)) c.linefs_chunks += fs->chunks_committed();
  if (auto* th = dynamic_cast<ceio::ThrasherApp*>(app)) c.thrasher_processed += th->processed();
}

void add_ceio(Counters& c, const ceio::CeioDatapath& dp) {
  const auto& rs = dp.runtime_stats();
  c.ceio_to_slow += rs.credit_switches_to_slow;
  c.ceio_to_fast += rs.switches_back_to_fast;
  c.ceio_reclaims += rs.inactive_reclaims;
  c.ceio_reactivations += rs.reactivations;
  c.ceio_cca += rs.cca_triggers;
}

void add_path(Counters& c, const ceio::DatapathBase& dp, FlowId id) {
  if (const ceio::FlowPathStats* ps = dp.flow_stats(id)) {
    c.path_fast += ps->fast_path_pkts;
    c.path_slow += ps->slow_path_pkts;
  }
}

}  // namespace

Counters Run::counters() {
  Counters c;
  const auto all = beds();
  for (Testbed* bed : all) {
    auto& sched = bed->sched();
    c.sim_events += static_cast<std::int64_t>(sched.executed());
    c.sim_pending_max = std::max(c.sim_pending_max, static_cast<std::int64_t>(sched.pending()));
    c.domain_events.push_back(static_cast<std::int64_t>(sched.executed()));
    const auto& llc = bed->llc().stats();
    c.llc_ddio_writes += llc.ddio_writes;
    c.llc_cpu_hits += llc.cpu_hits;
    c.llc_cpu_misses += llc.cpu_misses;
    c.llc_premature += llc.premature_evictions;
    c.llc_writebacks += llc.writebacks;
    c.dram_requests += bed->dram().stats().requests;
    c.mc_iio_stalls += bed->memory_controller().stats().iio_stalls;
    c.iio_rejects += bed->iio().rejects();
    const auto& dma = bed->dma().stats();
    c.dma_writes += dma.writes;
    c.dma_reads += dma.reads;
    c.dma_writes_done += dma.writes_completed;
    c.dma_reads_done += dma.reads_completed;
    c.dma_read_queue_peak = std::max(c.dma_read_queue_peak, dma.read_queue_peak);
    const auto& pcie = bed->pcie().stats();
    c.pcie_up_bytes += pcie.upstream_wire_bytes.count();
    c.pcie_down_bytes += pcie.downstream_wire_bytes.count();
    c.nic_rx_packets += bed->nic().stats().packets;
    const auto& nm = bed->nic_memory().stats();
    c.nicmem_writes += nm.writes;
    c.nicmem_reads += nm.reads;
    c.nicmem_peak_bytes = std::max(c.nicmem_peak_bytes, nm.peak_occupancy.count());
    c.nicmem_alloc_failures += nm.alloc_failures;
    // Sharded runs send on per-slice egress links the harness keeps private;
    // the testbed's own link then carries nothing and these stay 0.
    const auto& link = bed->link().stats();
    c.link_packets += link.packets;
    c.link_drops += link.drops;
    c.link_ecn += link.ecn_marks;
    if (const auto* gov = bed->governor()) c.governor_changes += gov->decision_changes();
    if (const auto* dp = bed->ceio()) add_ceio(c, *dp);
  }
  const int flows = flow_count();
  if (sharded_) {
    c.shard_epochs = static_cast<std::int64_t>(sharded_->epochs_completed());
    c.shard_spills = static_cast<std::int64_t>(sharded_->mailbox_spills());
    for (FlowId id = 1; id <= static_cast<FlowId>(flows); ++id) {
      const int g = static_cast<int>((id - 1) % static_cast<FlowId>(sharded_->domains()));
      if (const auto* dp = sharded_->bed(g).ceio()) add_path(c, *dp, id);
    }
  } else if (bed_) {
    for (FlowId id = 1; id <= static_cast<FlowId>(flows); ++id) {
      if (const ceio::CpuCore* core = bed_->core(id)) {
        c.cpu_packets += core->stats().packets;
        c.cpu_busy_ns += core->stats().busy_time.count();
        c.cpu_stall_ns += core->stats().mem_stall_time.count();
      }
      if (bed_->ceio() != nullptr) add_path(c, *bed_->ceio(), id);
    }
    if (assembly_) {
      const auto& roster = assembly_->roster();
      for (std::size_t t = 0; t < roster.size(); ++t) {
        add_app(c, &assembly_->app_of(t));
        if (const ceio::CeioDatapath* dp = assembly_->ceio_of(t)) {
          add_ceio(c, *dp);
          for (FlowId id = roster[t].first_flow; id <= roster[t].last_flow; ++id) {
            add_path(c, *dp, id);
          }
        }
      }
      if (auto* ctl = assembly_->controller()) {
        c.way_ticks += ctl->tick_count();
        c.way_repartitions += ctl->repartitions();
      }
    } else {
      add_app(c, app_);
    }
  }
  for (FlowId id = 1; id <= static_cast<FlowId>(flows); ++id) {
    if (const ceio::FlowSource* src = source(id)) {  // null until add_flows
      c.src_sent += src->stats().packets_sent;
      c.src_delivered += src->stats().packets_delivered;
      c.src_dropped += src->stats().packets_dropped;
    }
  }
  return c;
}

const ceio::FlowSource* Run::source(FlowId id) {
  if (sharded_) return sharded_->source(id);
  return bed_ ? bed_->source(id) : nullptr;
}

std::vector<SourceTally> Run::source_tallies() {
  std::vector<SourceTally> out;
  const int flows = flow_count();
  out.reserve(static_cast<std::size_t>(flows));
  for (FlowId id = 1; id <= static_cast<FlowId>(flows); ++id) {
    const ceio::FlowSource* src = source(id);
    if (src == nullptr) throw std::runtime_error("flow " + std::to_string(id) + " has no source");
    const auto& st = src->stats();
    out.push_back({st.packets_sent, st.packets_delivered, st.packets_dropped});
  }
  return out;
}

bool Run::dma_ledger_ok() {
  for (Testbed* bed : beds()) {
    const auto& s = bed->dma().stats();
    if (s.writes < s.writes_completed || s.reads < s.reads_completed) return false;
  }
  return true;
}

// ---- report digest -----------------------------------------------------------

std::string serialize(const harness::RunResult& r) {
  std::string out;
  char buf[512];
  const auto line = [&](const char* fmt, auto... args) {
    std::snprintf(buf, sizeof buf, fmt, args...);
    out += buf;
  };
  for (const auto& f : r.flows) {
    line("flow %llu %d %a %a %a %lld %lld %lld %lld %lld\n",
         static_cast<unsigned long long>(f.id), static_cast<int>(f.kind), f.mpps, f.gbps,
         f.message_gbps, static_cast<long long>(f.p50.count()),
         static_cast<long long>(f.p99.count()), static_cast<long long>(f.p999.count()),
         static_cast<long long>(f.messages), static_cast<long long>(f.drops));
  }
  line("agg %a %a %a %a %lld %a\n", r.aggregate_mpps, r.aggregate_gbps,
       r.aggregate_message_gbps, r.llc_miss_rate, static_cast<long long>(r.premature_evictions),
       r.dram_utilization);
  line("ceio %d %lld %lld %lld %lld %lld\n", r.has_ceio ? 1 : 0,
       static_cast<long long>(r.ceio_total_credits), static_cast<long long>(r.ceio_to_slow),
       static_cast<long long>(r.ceio_to_fast), static_cast<long long>(r.ceio_cca_triggers),
       static_cast<long long>(r.ceio_reclaims));
  for (const auto& t : r.tenants) {
    line("tenant %s %s %d %d %a %a %a %lld %lld %lld %lld %lld %lld %lld %lld %lld %lld\n",
         t.name.c_str(), t.app.c_str(), t.flows, t.ddio_ways, t.mpps, t.gbps, t.message_gbps,
         static_cast<long long>(t.p50.count()), static_cast<long long>(t.p99.count()),
         static_cast<long long>(t.p999.count()), static_cast<long long>(t.messages),
         static_cast<long long>(t.drops), static_cast<long long>(t.ddio_occupancy),
         static_cast<long long>(t.ddio_capacity), static_cast<long long>(t.premature_evictions),
         static_cast<long long>(t.budget_bypasses),
         static_cast<long long>(t.ceio_total_credits));
  }
  line("ways %lld\n", static_cast<long long>(r.way_repartitions));
  return out;
}

std::string digest(const std::string& text) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const unsigned char ch : text) {
    h ^= ch;
    h *= 1099511628211ULL;
  }
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

}  // namespace perfbench
