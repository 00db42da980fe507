#include "harness/experiment.h"

#include <algorithm>
#include <stdexcept>

#include "apps/echo.h"
#include "apps/kv_store.h"
#include "apps/linefs.h"
#include "apps/raw_rdma.h"
#include "apps/vxlan.h"
#include "config/config_ops.h"
#include "harness/sharded_testbed.h"

namespace ceio::harness {

bool is_bypass_app(const std::string& app) { return app == "linefs" || app == "rdma"; }

bool is_known_app(const std::string& app) {
  return app == "kv" || app == "echo" || app == "vxlan" || app == "linefs" ||
         app == "rdma" || app == "thrasher";
}

Application* make_app(Testbed& bed, const std::string& app) {
  if (app == "kv") return &bed.make_kv_store();
  if (app == "echo") return &bed.make_echo();
  if (app == "vxlan") return &bed.make_vxlan();
  if (app == "linefs") return &bed.make_linefs();
  if (app == "rdma") return &bed.make_raw_rdma();
  if (app == "thrasher") return &bed.make_thrasher();
  return nullptr;
}

FlowConfig flow_config(FlowId id, const WorkloadSpec& w) {
  const bool bypass = is_bypass_app(w.app);
  FlowConfig fc;
  fc.id = id;
  fc.kind = bypass ? FlowKind::kCpuBypass : FlowKind::kCpuInvolved;
  fc.packet_size = bypass ? std::max<Bytes>(w.packet_size, 2 * kKiB) : w.packet_size;
  if (w.message_pkts > 0) {
    fc.message_pkts = w.message_pkts;
  } else if (bypass) {
    fc.message_pkts = static_cast<std::uint32_t>(
        std::max<std::int64_t>(kKiB * w.chunk_kb / fc.packet_size, 1));
  } else {
    fc.message_pkts = 1;
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

void settle_and_measure(Testbed& bed, Nanos warmup, Nanos measure) {
  bed.run_for(warmup);
  bed.reset_measurement();
  bed.run_for(measure);
}

RunResult collect_result(Testbed& bed) {
  RunResult out;
  out.flows = bed.all_reports();
  out.aggregate_mpps = bed.aggregate_mpps();
  out.aggregate_gbps = bed.aggregate_gbps();
  out.aggregate_message_gbps = bed.aggregate_message_gbps();
  out.llc_miss_rate = bed.llc_miss_rate();
  out.premature_evictions = bed.llc().stats().premature_evictions;
  out.dram_utilization = bed.dram().utilization(bed.now());
  if (auto* ceio = bed.ceio()) {
    const auto& rs = ceio->runtime_stats();
    out.has_ceio = true;
    out.ceio_total_credits = ceio->credits().total();
    out.ceio_to_slow = rs.credit_switches_to_slow;
    out.ceio_to_fast = rs.switches_back_to_fast;
    out.ceio_cca_triggers = rs.cca_triggers;
    out.ceio_reclaims = rs.inactive_reclaims;
  }
  return out;
}

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
  if (spec.tenant.enabled) {
    const tenant::TenantConfig* roles[] = {&spec.tenant.lc, &spec.tenant.bw,
                                           &spec.tenant.ant};
    for (const auto* role : roles) {
      if (role->enabled && !is_known_app(role->app)) {
        throw std::invalid_argument("unknown tenant app '" + role->app + "'");
      }
    }
    if (spec.testbed.sim.domains > 1) return run_sharded_experiment(spec);
    Testbed bed(spec.testbed);
    tenant::TenantAssembly assembly(bed, spec.tenant, spec.controller);
    for (const auto& e : assembly.roster()) {
      const WorkloadSpec w = tenant_workload(e.cfg);
      for (FlowId id = e.first_flow; id <= e.last_flow; ++id) {
        bed.add_flow(flow_config(id, w), assembly.app_of_flow(id));
      }
    }
    measure_window(bed, spec, trace_prefix, &assembly);
    RunResult out = collect_result(bed);
    out.tenants = tenant_flow_reports(assembly.roster(), out.flows);
    for (std::size_t t = 0; t < out.tenants.size(); ++t) {
      assembly.fill_llc_fields(out.tenants[t], t);
    }
    out.way_repartitions = assembly.repartitions();
    return out;
  }
  if (!is_known_app(spec.workload.app)) {
    throw std::invalid_argument("unknown app '" + spec.workload.app + "'");
  }
  if (spec.testbed.sim.domains > 1) return run_sharded_experiment(spec);
  Testbed bed(spec.testbed);
  Application* app = make_app(bed, spec.workload.app);
  for (FlowId id = 1; id <= static_cast<FlowId>(spec.workload.flows); ++id) {
    bed.add_flow(flow_config(id, spec.workload), *app);
  }
  measure_window(bed, spec, trace_prefix);
  return collect_result(bed);
}

double aggregate_mpps(const std::vector<FlowReport>& reports, std::optional<FlowKind> kind) {
  double sum = 0.0;
  for (const auto& r : reports) {
    if (!kind || r.kind == *kind) sum += r.mpps;
  }
  return sum;
}

double aggregate_gbps(const std::vector<FlowReport>& reports, std::optional<FlowKind> kind) {
  double sum = 0.0;
  for (const auto& r : reports) {
    if (!kind || r.kind == *kind) sum += r.gbps;
  }
  return sum;
}

double aggregate_message_gbps(const std::vector<FlowReport>& reports,
                              std::optional<FlowKind> kind) {
  double sum = 0.0;
  for (const auto& r : reports) {
    if (!kind || r.kind == *kind) sum += r.message_gbps;
  }
  return sum;
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
