// Ablation — §6.4 future-work suggestion: "future NIC architectures
// [should] allocate CPU-attached SRAM (such as those in the CXL
// architecture), bypassing the internal PCIe switch, to further reduce
// synchronization overhead in CEIO's slow path."
//
// We model that NIC by removing the internal-switch traversal and giving the
// elastic buffer an SRAM-class access latency, then re-run the Figure 11
// forced-slow-path sweep and the Table 3 ping-pong latencies.
#include <cstdio>

#include "apps/raw_rdma.h"
#include "bench/scenarios.h"
#include "common/stats.h"
#include "harness/experiment.h"
#include "harness/scenario_registry.h"

using namespace ceio;
using namespace ceio::bench;

namespace {

TestbedConfig slow_path_config(bool cxl) {
  TestbedConfig tc;
  tc.system = SystemKind::kCeio;
  force_slow_path(tc);
  // The `cxl-slowpath` preset carries the CPU-attached-SRAM latencies as
  // plain `nic_mem.*` values.
  if (cxl) {
    tc.nic_mem =
        harness::ScenarioRegistry::instance().find("cxl-slowpath")->spec.testbed.nic_mem;
  }
  return tc;
}

double run_bw(bool cxl, Bytes message) {
  Testbed bed(slow_path_config(cxl));
  auto& app = bed.make_raw_rdma();
  bed.add_flow(rdma_message_flow(message, 32), app);
  harness::settle_and_measure(bed, millis(2), millis(3));
  return bed.aggregate_gbps();
}

Nanos run_lat(bool cxl, Bytes message) {
  Testbed bed(slow_path_config(cxl));
  auto& app = bed.make_raw_rdma();
  bed.add_flow(rdma_message_flow(message, /*outstanding=*/1), app);
  harness::settle_and_measure(bed, millis(1), millis(3));
  return bed.source(1)->latency().p50();
}

}  // namespace

int main() {
  std::printf("=== Ablation: CEIO slow path on CXL-attached SRAM (paper 6.4) ===\n\n");
  TablePrinter bw({"msg size", "BF3 onboard DRAM (Gbps)", "CXL SRAM (Gbps)", "gain"});
  for (const Bytes message : {Bytes{512}, Bytes{1024}, 2 * kKiB, 4 * kKiB}) {
    const double dram = run_bw(false, message);
    const double sram = run_bw(true, message);
    bw.add_row({std::to_string(message.count()) + "B", TablePrinter::fmt(dram),
                TablePrinter::fmt(sram),
                dram > 0 ? TablePrinter::fmt(sram / dram, 2) + "x" : "-"});
  }
  bw.print();

  std::printf("\n");
  TablePrinter lat({"msg size", "BF3 slow path (us)", "CXL slow path (us)", "reduction"});
  for (const Bytes message : {Bytes{64}, Bytes{1024}, Bytes{4096}}) {
    const Nanos dram = run_lat(false, message);
    const Nanos sram = run_lat(true, message);
    lat.add_row({std::to_string(message.count()) + "B", TablePrinter::fmt(to_micros(dram), 2),
                 TablePrinter::fmt(to_micros(sram), 2),
                 sram > Nanos{0} ? TablePrinter::fmt(static_cast<double>(dram) /
                                                  static_cast<double>(sram),
                                              2) +
                                "x"
                          : "-"});
  }
  lat.print();
  std::printf("\nexpected: removing the internal PCIe switch + SRAM-class access closes\n"
              "most of the small-message slow-path gap the paper measures in Fig 11.\n");
  return 0;
}
