#include "bench/scenarios.h"

#include <algorithm>

#include "harness/experiment.h"

namespace ceio::bench {
namespace {

using harness::ExperimentSpec;
using harness::WorkloadSpec;

WorkloadSpec involved_workload(const ScenarioConfig& cfg) {
  WorkloadSpec w;
  w.app = "kv";
  w.packet_size = cfg.packet_size;
  w.offered_rate = gbps(cfg.offered_gbps_per_flow);
  return w;
}

WorkloadSpec bypass_workload(const ScenarioConfig& cfg) {
  WorkloadSpec w;
  w.app = "linefs";
  w.packet_size = 2 * kKiB;  // 1 MiB chunks (LineFS write granularity)
  w.offered_rate = gbps(cfg.offered_gbps_per_flow);
  return w;
}

TestbedConfig testbed_config(SystemKind system, std::uint64_t seed) {
  TestbedConfig tc;
  tc.system = system;
  tc.seed = seed;
  return tc;
}

PhaseResult measure_phase(Testbed& bed, const ScenarioConfig& cfg, int involved, int bypass,
                          double reference_mpps) {
  harness::settle_and_measure(bed, cfg.phase_warmup, cfg.phase_length - cfg.phase_warmup);
  PhaseResult out;
  out.involved_flows = involved;
  out.bypass_flows = bypass;
  out.involved_mpps = bed.aggregate_mpps(FlowKind::kCpuInvolved);
  out.bypass_gbps = bed.aggregate_message_gbps(FlowKind::kCpuBypass);
  out.miss_rate = bed.llc_miss_rate();
  // "Expected" cannot exceed the ingress line rate for this packet size.
  const double line_mpps =
      bed.link().config().rate.count() / (static_cast<double>(cfg.packet_size.count()) * 8.0) / 1e6;
  out.expected_mpps = std::min(involved * reference_mpps, line_mpps);
  // Mean per-flow P99 over the involved flows (integer mean: deterministic).
  std::int64_t p99_sum = 0;
  std::int64_t p99_n = 0;
  for (const FlowReport& r : bed.all_reports()) {
    if (r.kind != FlowKind::kCpuInvolved || r.messages == 0) continue;
    p99_sum += r.p99.count();
    ++p99_n;
  }
  if (p99_n > 0) out.involved_p99 = Nanos{p99_sum / p99_n};
  return out;
}

}  // namespace

double single_core_reference_mpps(const ScenarioConfig& cfg) {
  ExperimentSpec spec;
  spec.testbed = testbed_config(SystemKind::kShring, cfg.seed);
  spec.workload = involved_workload(cfg);
  spec.workload.flows = 1;
  spec.warmup = millis(2);
  spec.measure = millis(4);
  const harness::RunResult run = harness::run_experiment(spec);
  return harness::aggregate_mpps(run.flows, FlowKind::kCpuInvolved);
}

std::vector<PhaseResult> run_dynamic_distribution(SystemKind system,
                                                  const ScenarioConfig& cfg) {
  TestbedConfig tc = testbed_config(system, cfg.seed);
  return run_dynamic_distribution(tc, cfg);
}

std::vector<PhaseResult> run_dynamic_distribution(const TestbedConfig& tc,
                                                  const ScenarioConfig& cfg) {
  const double reference = single_core_reference_mpps(cfg);
  Testbed bed(tc);
  auto& kv = bed.make_kv_store();
  auto& dfs = bed.make_linefs();

  const int n = cfg.initial_involved_flows;
  for (FlowId id = 1; id <= static_cast<FlowId>(n); ++id) {
    bed.add_flow(harness::flow_config(id, involved_workload(cfg)), kv);
  }
  std::vector<PhaseResult> results;
  int involved = n;
  int bypass = 0;
  results.push_back(measure_phase(bed, cfg, involved, bypass, reference));
  for (int phase = 1; phase < cfg.phases && involved >= 2; ++phase) {
    // Replace two CPU-involved flows with two CPU-bypass flows.
    const FlowId victim_a = static_cast<FlowId>(involved);
    const FlowId victim_b = static_cast<FlowId>(involved - 1);
    bed.remove_flow(victim_a);
    bed.remove_flow(victim_b);
    involved -= 2;
    bed.add_flow(harness::flow_config(static_cast<FlowId>(100 + 2 * phase), bypass_workload(cfg)),
                 dfs);
    bed.add_flow(harness::flow_config(static_cast<FlowId>(101 + 2 * phase), bypass_workload(cfg)),
                 dfs);
    bypass += 2;
    results.push_back(measure_phase(bed, cfg, involved, bypass, reference));
  }
  return results;
}

std::vector<PhaseResult> run_network_burst(SystemKind system, const ScenarioConfig& cfg) {
  const double reference = single_core_reference_mpps(cfg);
  Testbed bed(testbed_config(system, cfg.seed));
  auto& kv = bed.make_kv_store();

  const int n = cfg.initial_involved_flows;
  for (FlowId id = 1; id <= static_cast<FlowId>(n); ++id) {
    bed.add_flow(harness::flow_config(id, involved_workload(cfg)), kv);
  }
  std::vector<PhaseResult> results;
  int involved = n;
  results.push_back(measure_phase(bed, cfg, involved, 0, reference));
  for (int phase = 1; phase < cfg.phases; ++phase) {
    // Two additional burst flows arrive, each with its own core.
    bed.add_flow(harness::flow_config(static_cast<FlowId>(200 + 2 * phase), involved_workload(cfg)),
                 kv);
    bed.add_flow(harness::flow_config(static_cast<FlowId>(201 + 2 * phase), involved_workload(cfg)),
                 kv);
    involved += 2;
    results.push_back(measure_phase(bed, cfg, involved, 0, reference));
  }
  return results;
}

const char* to_string(AppSetup setup) {
  switch (setup) {
    case AppSetup::kErpcDpdk:
      return "eRPC(DPDK)";
    case AppSetup::kErpcRdma:
      return "eRPC(RDMA)";
    case AppSetup::kLinefs:
      return "LineFS(RDMA)";
  }
  return "?";
}

StaticResult run_static(SystemKind system, AppSetup setup, Bytes packet_size,
                        const ScenarioConfig& cfg) {
  ExperimentSpec spec;
  spec.testbed = testbed_config(system, cfg.seed);
  if (setup == AppSetup::kErpcRdma) {
    // RDMA transport: thinner per-packet driver path than DPDK's ethdev.
    spec.testbed.cpu.per_packet_cost = Nanos{50};
  }
  spec.workload = involved_workload(cfg);
  spec.workload.flows = cfg.initial_involved_flows;
  spec.workload.packet_size = packet_size;
  if (setup == AppSetup::kLinefs) {
    // LineFS over RDMA always moves MTU-sized wire packets; the sweep
    // parameter scales the *chunk* (I/O) size, 64x the nominal packet
    // size (8-64 KiB chunks). Per-chunk working sets at this scale are
    // what an LLC-managed datapath can keep resident for the replication
    // worker — the effect Figure 9c measures. (The dynamic scenarios use
    // 1 MiB chunks, whose whole point is to flush the cache.)
    spec.workload.app = "linefs";
    spec.workload.packet_size = 2 * kKiB;
    spec.workload.chunk_kb = packet_size * 64 / kKiB;
  }
  spec.warmup = millis(2);
  spec.measure = millis(5);
  const harness::RunResult run = harness::run_experiment(spec);

  StaticResult out;
  out.mpps = run.aggregate_mpps;
  out.gbps = setup == AppSetup::kLinefs ? run.aggregate_message_gbps : run.aggregate_gbps;
  out.miss_rate = run.llc_miss_rate;
  const harness::TailSummary tails = harness::average_tails(run.flows);
  out.p99 = tails.p99;
  out.p999 = tails.p999;
  out.drops = tails.drops;
  return out;
}

StaticResult run_echo_latency(SystemKind system, int flows, double offered_gbps,
                              Bytes packet_size, int closed_loop_outstanding) {
  ExperimentSpec spec;
  spec.testbed = testbed_config(system, 1);
  spec.workload.app = "echo";
  spec.workload.flows = flows;
  spec.workload.packet_size = packet_size;
  spec.workload.offered_rate = gbps(offered_gbps);
  spec.workload.closed_loop = closed_loop_outstanding;
  spec.warmup = millis(2);
  spec.measure = millis(5);
  const harness::RunResult run = harness::run_experiment(spec);

  StaticResult out;
  out.mpps = run.aggregate_mpps;
  out.gbps = run.aggregate_gbps;
  out.miss_rate = run.llc_miss_rate;
  const harness::TailSummary tails = harness::average_tails(run.flows);
  out.p99 = tails.p99;
  out.p999 = tails.p999;
  out.drops = tails.drops;
  return out;
}

void force_slow_path(TestbedConfig& tc) {
  // Zero credits: the controller immediately steers the flow to on-NIC
  // memory, so every byte takes NIC -> on-NIC DRAM -> PCIe -> host. The
  // token bucket would hand the flow fresh credits on its next packet;
  // disabling traffic-triggered reactivation keeps it exiled.
  tc.ceio_auto_credits = false;
  tc.ceio.total_credits = 0;
  tc.ceio.reactivations_per_sec = 0.0;
}

FlowConfig rdma_message_flow(Bytes message, int outstanding) {
  FlowConfig fc;
  fc.id = 1;
  fc.kind = FlowKind::kCpuBypass;
  fc.packet_size = std::min<Bytes>(message, 2 * kKiB);
  fc.message_pkts =
      static_cast<std::uint32_t>((message + fc.packet_size - Bytes{1}) / fc.packet_size);
  fc.offered_rate = gbps(200.0);
  fc.closed_loop_outstanding = outstanding;
  return fc;
}

}  // namespace ceio::bench
