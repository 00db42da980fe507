// Table 4 — throughput (Mpps) of CPU-involved flows in mixed I/O deployments
// (eRPC + LineFS on the same server) at involved:bypass ratios 3:1, 1:1 and
// 1:3, for the Baseline, CEIO without the fast/slow-path optimisations
// (no async drain, no phase-exclusive ordering), and full CEIO.
#include <cstdio>

#include "bench/scenarios.h"
#include "common/stats.h"
#include "harness/experiment.h"

using namespace ceio;
using namespace ceio::bench;

namespace {

double run_mixed(SystemKind system, int involved, int bypass, bool optimizations) {
  TestbedConfig tc;
  tc.system = system;
  if (system == SystemKind::kCeio && !optimizations) {
    tc.ceio.async_drain = false;
    tc.ceio.phase_exclusive = false;
  }
  Testbed bed(tc);
  auto& kv = bed.make_kv_store();
  auto& dfs = bed.make_linefs();
  harness::WorkloadSpec rpc;  // kv @ 512 B (WorkloadSpec defaults)
  rpc.offered_rate = gbps(200.0 / 8.0);
  harness::WorkloadSpec chunks;
  chunks.app = "linefs";
  chunks.packet_size = 2 * kKiB;  // 1 MiB chunks (the chunk_kb default)
  chunks.offered_rate = gbps(200.0 / 8.0);
  FlowId next = 1;
  for (int i = 0; i < involved; ++i) bed.add_flow(harness::flow_config(next++, rpc), kv);
  for (int i = 0; i < bypass; ++i) bed.add_flow(harness::flow_config(next++, chunks), dfs);
  harness::settle_and_measure(bed, millis(2), millis(5));
  return bed.aggregate_mpps(FlowKind::kCpuInvolved);
}

}  // namespace

int main() {
  std::printf("=== Table 4: mixed I/O flows (8 total), CPU-involved throughput ===\n");
  TablePrinter table({"ratio", "Baseline(Mpps)", "CEIO w/o opt", "CEIO", "w/o opt speedup",
                      "CEIO speedup"});
  const std::pair<int, int> ratios[] = {{6, 2}, {4, 4}, {2, 6}};
  const char* labels[] = {"3:1", "1:1", "1:3"};
  int i = 0;
  for (const auto& [involved, bypass] : ratios) {
    const double base = run_mixed(SystemKind::kLegacy, involved, bypass, true);
    const double plain = run_mixed(SystemKind::kCeio, involved, bypass, false);
    const double full = run_mixed(SystemKind::kCeio, involved, bypass, true);
    auto speed = [&](double v) {
      return base > 0 ? TablePrinter::fmt(v / base, 2) + "x" : std::string("-");
    };
    table.add_row({labels[i++], TablePrinter::fmt(base, 3), TablePrinter::fmt(plain, 3),
                   TablePrinter::fmt(full, 3), speed(plain), speed(full)});
  }
  table.print();
  std::printf("expected shape: full CEIO > CEIO w/o optimisations > Baseline at every\n"
              "ratio (paper: 1.94x/1.82x/1.71x full vs 1.53x/1.38x/1.16x without).\n");
  return 0;
}
