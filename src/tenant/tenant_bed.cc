#include "tenant/tenant_bed.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "audit/invariants.h"
#include "audit/model_auditor.h"
#include "telemetry/metrics.h"

namespace ceio::tenant {
namespace {

/// Per-tenant host pool ids start here: tenant t owns [pool_base(t),
/// pool_base(t) + pool size), far below kSlowLandingBase (1<<32) for any
/// realistic pool, and base 1 for tenant 0 keeps id 0 meaning "no buffer".
BufferId pool_base(std::size_t tenant) {
  return 1 + (static_cast<BufferId>(tenant) << 24);
}

}  // namespace

std::vector<TenantRosterEntry> tenant_roster(const TenantSetConfig& set, int ddio_ways) {
  std::vector<TenantRosterEntry> roster;
  const std::pair<const char*, const TenantConfig*> roles[] = {
      {"lc", &set.lc}, {"bw", &set.bw}, {"ant", &set.ant}};
  FlowId next = 1;
  int claimed = 0;
  for (const auto& [name, cfg] : roles) {
    if (!cfg->enabled) continue;
    if (cfg->flows < 1) throw std::invalid_argument("tenant needs at least one flow");
    TenantRosterEntry e;
    e.name = name;
    e.cfg = *cfg;
    e.first_flow = next;
    e.last_flow = next + static_cast<FlowId>(cfg->flows) - 1;
    e.ways = cfg->ddio_ways;
    next = e.last_flow + 1;
    claimed += cfg->ddio_ways;
    roster.push_back(std::move(e));
  }
  if (roster.empty()) throw std::invalid_argument("no tenant is enabled");
  if (claimed > ddio_ways) {
    throw std::invalid_argument("tenant DDIO way shares oversubscribe the partition");
  }
  // Leftover ways (disabled roles, or shares summing short) stay in the
  // shared pool: every tenant's way mask overlaps there, which is how
  // default DDIO co-location behaves before a controller carves slices.
  return roster;
}

TenantAssembly::TenantAssembly(Testbed& bed, const TenantSetConfig& set,
                               const WayControllerConfig& ctl)
    : bed_(bed), ctl_cfg_(ctl) {
  const TestbedConfig& cfg = bed.config();
  if (cfg.policy.governor != policy::GovernorMode::kOff) {
    throw std::invalid_argument(std::string("policy.governor=") +
                                policy::to_string(cfg.policy.governor) +
                                " cannot drive a run with tenant.enabled=true: tenant runs "
                                "use the controller.* way partitioner");
  }
  roster_ = tenant_roster(set, cfg.llc.ddio_ways);

  // Per-tenant pools + datapaths behind one demux, each from
  // Testbed::build_datapath. Eq. 1 per tenant: CEIO credits derive from
  // the DDIO capacity the tenant can reach — its exclusive slice plus the
  // shared pool — not the whole partition.
  auto demux = std::make_unique<TenantDemux>();
  std::vector<int> ways;
  std::size_t shared = static_cast<std::size_t>(cfg.llc.ddio_ways);
  for (const TenantRosterEntry& e : roster_) {
    shared -= static_cast<std::size_t>(e.ways);
  }
  const std::size_t sets =
      bed.llc().ddio_capacity() / static_cast<std::size_t>(std::max(cfg.llc.ddio_ways, 1));
  for (std::size_t t = 0; t < roster_.size(); ++t) {
    const TenantRosterEntry& e = roster_[t];
    ways.push_back(e.ways);
    Testbed::HostDatapath host =
        bed.build_datapath(pool_base(t), sets * (static_cast<std::size_t>(e.ways) + shared));
    pools_.push_back(std::move(host.pool));
    ceio_.push_back(host.ceio);
    demux->add_tenant(std::move(host.datapath), e.first_flow, e.last_flow);
  }
  demux_ = demux.get();
  bed.install_datapath(std::move(demux));

  // Carve the shared LLC: way slices, then the id ranges that attribute
  // each DMA target back to its tenant (pool buffers, CEIO slow-path
  // landing windows, bypass app-memory windows).
  LlcModel& llc = bed.llc();
  llc.set_tenant_ways(ways);
  for (std::size_t t = 0; t < roster_.size(); ++t) {
    const TenantRosterEntry& e = roster_[t];
    llc.add_tenant_range(pool_base(t), pool_base(t) + pools_[t]->total(), t);
    llc.add_tenant_range(kSlowLandingBase + (static_cast<BufferId>(e.first_flow) << 20),
                         kSlowLandingBase + ((static_cast<BufferId>(e.last_flow) + 1) << 20),
                         t);
    llc.add_tenant_range(kBypassBufferBase + (static_cast<BufferId>(e.first_flow) << 24),
                         kBypassBufferBase + ((static_cast<BufferId>(e.last_flow) + 1) << 24),
                         t);
  }

  // Applications in roster order (the KV store draws from the testbed Rng
  // at construction — creation order is part of bit-reproducibility).
  for (const TenantRosterEntry& e : roster_) {
    Application* app = make_app(bed, e.cfg.app);
    if (app == nullptr) throw std::invalid_argument("unknown tenant app '" + e.cfg.app + "'");
    apps_.push_back(app);
  }

  controller_ =
      std::make_unique<WayPartitionController>(ctl_cfg_, ways, cfg.llc.ddio_ways);
  if (ctl_cfg_.policy == PartitionPolicy::kReactive) arm_tick();
  // install_datapath rebuilt the standard pack without the CEIO families
  // (the testbed has no single CEIO datapath any more): bind each tenant's.
  if (ModelAuditor* auditor = bed.auditor(); auditor != nullptr) register_audit(*auditor);
}

Application& TenantAssembly::app_of_flow(FlowId flow) {
  for (std::size_t t = 0; t < roster_.size(); ++t) {
    if (flow >= roster_[t].first_flow && flow <= roster_[t].last_flow) return *apps_[t];
  }
  throw std::invalid_argument("flow id is outside every tenant's block");
}

std::int64_t TenantAssembly::ring_backlog(std::size_t t) const {
  std::int64_t backlog = 0;
  demux_->tenant_datapath(t)->for_each_ring(
      [&backlog](const RxRing& r) { backlog += static_cast<std::int64_t>(r.size()); });
  if (ceio_[t] != nullptr) {
    for (FlowId f = roster_[t].first_flow; f <= roster_[t].last_flow; ++f) {
      backlog += static_cast<std::int64_t>(ceio_[t]->slow_backlog(f));
    }
  }
  return backlog;
}

std::vector<TenantGaugeSample> TenantAssembly::sample_gauges() const {
  const LlcModel& llc = bed_.llc();
  std::vector<TenantGaugeSample> out(roster_.size());
  for (std::size_t t = 0; t < roster_.size(); ++t) {
    TenantGaugeSample& s = out[t];
    s.premature_evictions = llc.tenant_stats(t).premature_evictions;
    s.ring_backlog = ring_backlog(t);
    s.priority = roster_[t].cfg.priority;
  }
  return out;
}

void TenantAssembly::arm_tick() {
  bed_.sched().schedule_after(ctl_cfg_.interval, [this]() {
    tick();
    arm_tick();
  });
}

void TenantAssembly::tick() {
  const WayDecision d = controller_->decide(sample_gauges());
  if (!d.changed) return;
  LlcModel& llc = bed_.llc();
  llc.set_tenant_ways(d.ways);
  for (std::size_t t = 0; t < roster_.size(); ++t) {
    roster_[t].ways = d.ways[t];
    if (ceio_[t] != nullptr && bed_.config().ceio_auto_credits) {
      // Re-derive Eq. 1 for the resized slice so the credit total tracks
      // the ways the tenant actually owns now.
      const CeioConfig derived = derive_ceio_auto_credits(
          bed_.config().ceio, static_cast<std::size_t>(llc.tenant_way_capacity(t)));
      ceio_[t]->set_total_credits(derived.total_credits);  // lint: allow-raw-actuator
    }
  }
}

void TenantAssembly::register_metrics(MetricRegistry& registry) {
  for (std::size_t t = 0; t < roster_.size(); ++t) {
    const std::string prefix = "tenant." + roster_[t].name + ".";
    const LlcModel& llc = bed_.llc();
    registry.add_gauge(prefix + "ddio_occupancy", [&llc, t]() {
      return static_cast<double>(llc.tenant_ddio_occupancy(t));
    });
    registry.add_gauge(prefix + "ddio_ways", [this, t]() {
      return static_cast<double>(roster_[t].ways);
    });
    registry.add_gauge(prefix + "ddio_capacity", [&llc, t]() {
      return static_cast<double>(llc.tenant_way_capacity(t));
    });
    registry.add_gauge(prefix + "premature_evictions", [&llc, t]() {
      return static_cast<double>(llc.tenant_stats(t).premature_evictions);
    });
    registry.add_gauge(prefix + "budget_bypasses", [&llc, t]() {
      return static_cast<double>(llc.tenant_stats(t).budget_bypasses);
    });
    registry.add_gauge(prefix + "ring_backlog", [this, t]() {
      return static_cast<double>(ring_backlog(t));
    });
  }
  registry.add_gauge("tenant.controller.repartitions",
                     [this]() { return static_cast<double>(repartitions()); });
  const LlcModel& llc = bed_.llc();
  registry.add_gauge("tenant.controller.shared_ways", [&llc]() {
    return static_cast<double>(llc.shared_io_ways());
  });
}

void TenantAssembly::register_audit(ModelAuditor& auditor) {
  LlcModel& llc = bed_.llc();
  register_tenant_llc_invariants(auditor, [&llc]() {
    TenantLlcState s;
    for (std::size_t t = 0; t < llc.tenant_count(); ++t) {
      s.occupancy.push_back(llc.tenant_ddio_occupancy(t));
      s.capacity.push_back(llc.tenant_way_capacity(t));
    }
    s.global_occupancy = llc.ddio_occupancy();
    return s;
  });
  for (std::size_t t = 0; t < roster_.size(); ++t) {
    if (ceio_[t] == nullptr) continue;
    const FlowId first = roster_[t].first_flow;
    const FlowId last = roster_[t].last_flow;
    register_ceio_invariants(auditor, *ceio_[t], [first, last] {
      std::vector<FlowId> ids;
      for (FlowId f = first; f <= last; ++f) ids.push_back(f);
      return ids;
    });
  }
}

void TenantAssembly::fill_llc_fields(TenantReport& report, std::size_t t) const {
  const LlcModel& llc = bed_.llc();
  report.ddio_ways = roster_[t].ways;
  report.ddio_occupancy = static_cast<std::int64_t>(llc.tenant_ddio_occupancy(t));
  report.ddio_capacity = static_cast<std::int64_t>(llc.tenant_way_capacity(t));
  report.premature_evictions = llc.tenant_stats(t).premature_evictions;
  report.budget_bypasses = llc.tenant_stats(t).budget_bypasses;
  if (ceio_[t] != nullptr) report.ceio_total_credits = ceio_[t]->credits().total();
}

}  // namespace ceio::tenant
