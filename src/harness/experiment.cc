#include "harness/experiment.h"

#include <algorithm>
#include <optional>
#include <stdexcept>

#include "config/config_ops.h"
#include "harness/sharded_testbed.h"

namespace ceio::harness {

FlowConfig flow_config(FlowId id, const WorkloadSpec& w) {
  const bool bypass = is_bypass_app(w.app);
  FlowConfig fc;
  fc.id = id;
  fc.kind = bypass ? FlowKind::kCpuBypass : FlowKind::kCpuInvolved;
  fc.packet_size = bypass ? std::max<Bytes>(w.packet_size, 2 * kKiB) : w.packet_size;
  if (bypass) {
    fc.message_pkts = static_cast<std::uint32_t>(
        std::max<std::int64_t>(kKiB * w.chunk_kb / fc.packet_size, 1));
  }
  fc.offered_rate = w.offered_rate;
  fc.poisson = w.poisson;
  fc.closed_loop_outstanding = w.closed_loop;
  fc.burst_on = w.burst_on;
  fc.burst_off = w.burst_off;
  return fc;
}

WorkloadSpec tenant_workload(const tenant::TenantConfig& cfg) {
  WorkloadSpec w;
  w.app = cfg.app;
  w.flows = cfg.flows;
  w.offered_rate = cfg.offered_rate;
  w.packet_size = cfg.packet_size;
  w.chunk_kb = cfg.chunk_kb;
  w.poisson = cfg.poisson;
  return w;
}

std::vector<tenant::TenantReport> tenant_flow_reports(
    const std::vector<tenant::TenantRosterEntry>& roster,
    const std::vector<FlowReport>& flows) {
  std::vector<tenant::TenantReport> out;
  for (const auto& e : roster) {
    tenant::TenantReport r;
    r.name = e.name;
    r.app = e.cfg.app;
    r.flows = e.cfg.flows;
    r.ddio_ways = e.ways;
    std::vector<FlowReport> mine;
    for (const auto& f : flows) {
      if (f.id >= e.first_flow && f.id <= e.last_flow) mine.push_back(f);
    }
    r.mpps = aggregate_mpps(mine);
    r.gbps = aggregate_gbps(mine);
    r.message_gbps = aggregate_message_gbps(mine);
    Nanos p50_sum{};
    for (const auto& f : mine) {
      p50_sum += f.p50;
      r.messages += f.messages;
    }
    if (!mine.empty()) r.p50 = p50_sum / static_cast<std::int64_t>(mine.size());
    const TailSummary tails = average_tails(mine);
    r.p99 = tails.p99;
    r.p999 = tails.p999;
    r.drops = tails.drops;
    out.push_back(std::move(r));
  }
  return out;
}

void for_each_flow(const ExperimentSpec& spec, const std::function<void(const FlowConfig&)>& fn) {
  if (!spec.tenant.enabled) {
    for (FlowId id = 1; id <= static_cast<FlowId>(spec.workload.flows); ++id) {
      fn(flow_config(id, spec.workload));
    }
    return;
  }
  for (const auto& e : tenant::tenant_roster(spec.tenant, spec.testbed.llc.ddio_ways)) {
    const WorkloadSpec w = tenant_workload(e.cfg);
    for (FlowId id = e.first_flow; id <= e.last_flow; ++id) fn(flow_config(id, w));
  }
}

void settle_and_measure(Testbed& bed, Nanos warmup, Nanos measure) {
  bed.run_for(warmup);
  bed.reset_measurement();
  bed.run_for(measure);
}

RunResult collect_domains(std::vector<FlowReport> flows, const std::vector<Testbed*>& beds,
                          const std::vector<tenant::TenantAssembly*>& assemblies) {
  RunResult out;
  out.flows = std::move(flows);
  out.aggregate_mpps = aggregate_mpps(out.flows);
  out.aggregate_gbps = aggregate_gbps(out.flows);
  out.aggregate_message_gbps = aggregate_message_gbps(out.flows);

  LlcStats llc;
  double util = 0.0;
  for (Testbed* bed : beds) {
    llc.cpu_hits += bed->llc().stats().cpu_hits;
    llc.cpu_misses += bed->llc().stats().cpu_misses;
    out.premature_evictions += bed->llc().stats().premature_evictions;
    util += bed->dram().utilization(bed->now());
    if (const CeioDatapath* ceio = bed->ceio()) {
      const auto& rs = ceio->runtime_stats();
      out.has_ceio = true;
      out.ceio_total_credits += ceio->credits().total();
      out.ceio_to_slow += rs.credit_switches_to_slow;
      out.ceio_to_fast += rs.switches_back_to_fast;
      out.ceio_cca_triggers += rs.cca_triggers;
      out.ceio_reclaims += rs.inactive_reclaims;
    }
    if (const policy::DatapathGovernor* gov = bed->governor()) {
      out.governor_ticks += gov->tick_count();
      out.governor_changes += gov->decision_changes();
    }
  }
  out.llc_miss_rate = llc.miss_rate();
  out.dram_utilization = util / static_cast<double>(beds.size());

  if (assemblies.empty()) return out;
  // Flow-derived columns from the merged per-flow reports; LLC/CEIO columns
  // summed over domains in domain order. Way counts are per-slice partition
  // widths (not additive), so the report carries domain 0's: under
  // domain-local controllers the slices may legitimately diverge.
  out.tenants = tenant_flow_reports(assemblies.front()->roster(), out.flows);
  for (std::size_t t = 0; t < out.tenants.size(); ++t) {
    tenant::TenantReport& r = out.tenants[t];
    assemblies.front()->fill_llc_fields(r, t);
    for (std::size_t d = 1; d < assemblies.size(); ++d) {
      tenant::TenantReport one;
      assemblies[d]->fill_llc_fields(one, t);
      r.ddio_occupancy += one.ddio_occupancy;
      r.ddio_capacity += one.ddio_capacity;
      r.premature_evictions += one.premature_evictions;
      r.budget_bypasses += one.budget_bypasses;
      r.ceio_total_credits += one.ceio_total_credits;
    }
  }
  for (const tenant::TenantAssembly* a : assemblies) out.way_repartitions += a->repartitions();
  return out;
}

RunResult collect_result(Testbed& bed) { return collect_domains(bed.all_reports(), {&bed}); }

namespace {

/// settle_and_measure, recording the measure window when `trace_prefix` is
/// set. The tenant assembly's per-tenant gauge subtrees become their own
/// Perfetto counter tracks.
void measure_window(Testbed& bed, const ExperimentSpec& spec, const std::string& trace_prefix,
                    tenant::TenantAssembly* assembly = nullptr) {
  if (trace_prefix.empty()) {
    settle_and_measure(bed, spec.warmup, spec.measure);
    return;
  }
  bed.run_for(spec.warmup);
  bed.reset_measurement();
  Telemetry& tele = bed.enable_telemetry();
  if (assembly != nullptr) assembly->register_metrics(tele.metrics());
  tele.start_sampling();
  bed.run_for(spec.measure);
  tele.set_enabled(false);
  std::string error;
  if (!tele.write_files(trace_prefix, &error)) throw std::runtime_error(error);
}

}  // namespace

RunResult run_experiment(const ExperimentSpec& spec, const std::string& trace_prefix) {
  std::vector<std::string> errors;
  if (!config::validate(spec, &errors)) {
    throw std::invalid_argument("invalid experiment spec: " + errors.front());
  }
  if (!trace_prefix.empty() && spec.testbed.sim.domains > 1) {
    throw std::invalid_argument("tracing needs a single event domain (sim.domains = " +
                                std::to_string(spec.testbed.sim.domains) + ")");
  }
  // Tenant apps are checked by the assembly, against the same table.
  if (!spec.tenant.enabled && !is_known_app(spec.workload.app)) {
    throw std::invalid_argument("unknown app '" + spec.workload.app + "'");
  }
  if (spec.testbed.sim.domains > 1) return run_sharded_experiment(spec);
  Testbed bed(spec.testbed);
  std::optional<tenant::TenantAssembly> assembly;
  Application* app = nullptr;
  if (spec.tenant.enabled) {
    assembly.emplace(bed, spec.tenant, spec.controller);
  } else {
    app = make_app(bed, spec.workload.app);
  }
  for_each_flow(spec, [&](const FlowConfig& fc) {
    bed.add_flow(fc, assembly ? assembly->app_of_flow(fc.id) : *app);
  });
  measure_window(bed, spec, trace_prefix, assembly ? &*assembly : nullptr);
  if (!assembly) return collect_result(bed);
  return collect_domains(bed.all_reports(), {&bed}, {&*assembly});
}

TailSummary average_tails(const std::vector<FlowReport>& reports) {
  TailSummary out;
  Nanos p99_sum{}, p999_sum{};
  std::int64_t count = 0;
  for (const auto& r : reports) {
    p99_sum += r.p99;
    p999_sum += r.p999;
    out.drops += r.drops;
    ++count;
  }
  if (count > 0) {
    out.p99 = p99_sum / count;
    out.p999 = p999_sum / count;
  }
  return out;
}

}  // namespace ceio::harness
