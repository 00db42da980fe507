// Figure 10 — end-to-end I/O performance of CEIO vs Baseline/HostCC/ShRing
// under (a) dynamic flow distribution and (b) network burst.
//
// The time-series section also records itself through the telemetry
// subsystem and writes fig10_dynamic.timeseries.csv (gauge snapshots) plus
// fig10_dynamic.trace.json (Perfetto) next to the working directory.
#include <cstdio>
#include <string>

#include "bench/scenarios.h"
#include "common/stats.h"
#include "harness/experiment.h"
#include "telemetry/telemetry.h"

using namespace ceio;
using namespace ceio::bench;

namespace {

constexpr SystemKind kSystems[] = {SystemKind::kLegacy, SystemKind::kHostcc,
                                   SystemKind::kShring, SystemKind::kCeio};

void print_scenario(const char* title,
                    std::vector<PhaseResult> (*runner)(SystemKind, const ScenarioConfig&)) {
  std::printf("\n%s\n", title);
  const ScenarioConfig cfg;
  std::vector<std::vector<PhaseResult>> results;
  for (const SystemKind system : kSystems) results.push_back(runner(system, cfg));

  TablePrinter table({"phase", "involved", "Expected", "Baseline", "HostCC", "ShRing",
                      "CEIO", "CEIO miss%"});
  const auto& ceio_r = results[3];
  for (std::size_t i = 0; i < ceio_r.size(); ++i) {
    table.add_row({std::to_string(i), std::to_string(ceio_r[i].involved_flows),
                   TablePrinter::fmt(ceio_r[i].expected_mpps),
                   TablePrinter::fmt(results[0][i].involved_mpps),
                   TablePrinter::fmt(results[1][i].involved_mpps),
                   TablePrinter::fmt(results[2][i].involved_mpps),
                   TablePrinter::fmt(results[3][i].involved_mpps),
                   TablePrinter::fmt(ceio_r[i].miss_rate * 100.0, 1)});
  }
  table.print();

  double best_speedup_hostcc = 0.0, best_speedup_shring = 0.0;
  for (std::size_t i = 0; i < ceio_r.size(); ++i) {
    if (results[1][i].involved_mpps > 0) {
      best_speedup_hostcc =
          std::max(best_speedup_hostcc, ceio_r[i].involved_mpps / results[1][i].involved_mpps);
    }
    if (results[2][i].involved_mpps > 0) {
      best_speedup_shring =
          std::max(best_speedup_shring, ceio_r[i].involved_mpps / results[2][i].involved_mpps);
    }
  }
  std::printf("CEIO speedup: up to %.2fx vs HostCC, up to %.2fx vs ShRing\n",
              best_speedup_hostcc, best_speedup_shring);
}

// The governed comparison: the same dynamic-distribution schedule under the
// online governor (policy.governor=reactive) against the static actuator
// bundles the governor would otherwise have to be pinned to. "calm" is the
// paper's stock CEIO configuration (best while the mix is involved-heavy);
// "squeeze" pins the whole run to the pressure bundle (best once the bypass
// streamers dominate). The reactive governor has to beat whichever static
// choice ends up better on aggregate goodput or tail latency.
void print_governed() {
  std::printf("\n(c) Online datapath governor vs static configs (dynamic distribution)\n");
  const ScenarioConfig cfg;

  TestbedConfig calm;
  calm.system = SystemKind::kCeio;

  TestbedConfig squeeze;
  squeeze.system = SystemKind::kCeio;
  squeeze.policy.governor = policy::GovernorMode::kStatic;
  squeeze.policy.static_credit_scale = 0.70;
  squeeze.policy.static_bypass_slow = true;

  TestbedConfig governed;
  governed.system = SystemKind::kCeio;
  governed.policy.governor = policy::GovernorMode::kReactive;

  const auto r_calm = run_dynamic_distribution(calm, cfg);
  const auto r_squeeze = run_dynamic_distribution(squeeze, cfg);
  const auto r_gov = run_dynamic_distribution(governed, cfg);

  TablePrinter table({"phase", "involved", "static-calm Mpps", "static-squeeze Mpps",
                      "governed Mpps", "calm P99(us)", "squeeze P99(us)", "gov P99(us)"});
  double sum_calm = 0.0, sum_squeeze = 0.0, sum_gov = 0.0;
  double p99_calm = 0.0, p99_squeeze = 0.0, p99_gov = 0.0;
  for (std::size_t i = 0; i < r_gov.size(); ++i) {
    table.add_row({std::to_string(i), std::to_string(r_gov[i].involved_flows),
                   TablePrinter::fmt(r_calm[i].involved_mpps),
                   TablePrinter::fmt(r_squeeze[i].involved_mpps),
                   TablePrinter::fmt(r_gov[i].involved_mpps),
                   TablePrinter::fmt(to_micros(r_calm[i].involved_p99), 1),
                   TablePrinter::fmt(to_micros(r_squeeze[i].involved_p99), 1),
                   TablePrinter::fmt(to_micros(r_gov[i].involved_p99), 1)});
    sum_calm += r_calm[i].involved_mpps;
    sum_squeeze += r_squeeze[i].involved_mpps;
    sum_gov += r_gov[i].involved_mpps;
    p99_calm += to_micros(r_calm[i].involved_p99);
    p99_squeeze += to_micros(r_squeeze[i].involved_p99);
    p99_gov += to_micros(r_gov[i].involved_p99);
  }
  table.print();

  const double n = static_cast<double>(r_gov.size());
  const double best_static_mpps = std::max(sum_calm, sum_squeeze);
  const double best_static_p99 = std::min(p99_calm, p99_squeeze);
  std::printf("aggregate involved goodput: calm %.2f, squeeze %.2f, governed %.2f Mpps\n",
              sum_calm, sum_squeeze, sum_gov);
  std::printf("mean involved P99: calm %.1f, squeeze %.1f, governed %.1f us\n",
              p99_calm / n, p99_squeeze / n, p99_gov / n);
  std::printf("governor vs best static: %+.1f%% goodput, %+.1f%% P99\n",
              best_static_mpps > 0 ? 100.0 * (sum_gov - best_static_mpps) / best_static_mpps
                                   : 0.0,
              best_static_p99 > 0 ? 100.0 * (p99_gov - best_static_p99) / best_static_p99
                                  : 0.0);
}

}  // namespace

/// Returns false when the recording cannot be written.
bool print_timeseries() {
  // The paper's Figure 10 plots a time series; sample CEIO through the
  // dynamic-distribution schedule at 500 us resolution.
  std::printf("\nCEIO time series, dynamic flow distribution (500us samples):\n");
  TestbedConfig tc;
  tc.system = SystemKind::kCeio;
  tc.telemetry.sample_interval = micros(100);
  Testbed bed(tc);
  auto& kv = bed.make_kv_store();
  auto& dfs = bed.make_linefs();
  harness::WorkloadSpec rpc;  // kv @ 512 B, 25 G/flow (the WorkloadSpec defaults)
  harness::WorkloadSpec chunks;
  chunks.app = "linefs";
  chunks.packet_size = 2 * kKiB;  // 1 MiB chunks (the chunk_kb default)
  for (FlowId id = 1; id <= 8; ++id) {
    bed.add_flow(harness::flow_config(id, rpc), kv);
  }
  // Record the same schedule through the telemetry subsystem: gauge
  // snapshots every 100 us, exported below for offline plotting.
  Telemetry& tele = bed.enable_telemetry();
  tele.start_sampling();

  int involved = 8;
  TablePrinter table({"t(ms)", "involved", "rpc Mpps", "dfs Gbps", "miss%"});
  for (int phase = 0; phase < 4; ++phase) {
    for (const auto& s : bed.run_sampling(millis(3), micros(500))) {
      table.add_row({TablePrinter::fmt(to_millis(s.t), 1), std::to_string(involved),
                     TablePrinter::fmt(s.involved_mpps), TablePrinter::fmt(s.bypass_gbps),
                     TablePrinter::fmt(s.miss_rate * 100.0, 1)});
    }
    if (phase == 3 || involved < 2) break;
    bed.remove_flow(static_cast<FlowId>(involved));
    bed.remove_flow(static_cast<FlowId>(involved - 1));
    involved -= 2;
    for (int j = 0; j < 2; ++j) {
      bed.add_flow(harness::flow_config(static_cast<FlowId>(100 + 2 * phase + j), chunks), dfs);
    }
  }
  table.print();

  tele.set_enabled(false);
  std::string error;
  if (!tele.write_files("fig10_dynamic", &error)) {
    std::fprintf(stderr, "fig10_dynamic: %s\n", error.c_str());
    return false;
  }
  std::printf("telemetry: %zu gauge samples -> fig10_dynamic.timeseries.csv, "
              "%zu trace events -> fig10_dynamic.trace.json\n",
              tele.sampler().rows(), tele.trace().size());
  return true;
}

int main() {
  std::printf("=== Figure 10: I/O performance in dynamic network conditions ===\n");
  print_scenario("(a) Dynamic flow distribution", &run_dynamic_distribution);
  print_scenario("(b) Network burst", &run_network_burst);
  print_governed();
  return print_timeseries() ? 0 : 1;
}
