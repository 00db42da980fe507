// Ablation — lazy credit release vs Multiple Priority Queues (paper §4.1).
//
// The paper considers steering flows by PIAS-style priority decay and rejects
// it: "CPU-involved flows are not always short (e.g., continuous RPC
// requests)" — under MPQ a long-lived RPC stream decays to low priority and
// is exiled to the slow path, while CEIO's lazy credit release keeps it on
// the fast path because its credits replenish as fast as the CPU consumes.
// Both policies run over the *same* elastic architecture here, so the only
// difference measured is the steering decision.
#include <cstdio>

#include "bench/scenarios.h"
#include "common/stats.h"
#include "harness/experiment.h"

using namespace ceio;
using namespace ceio::bench;

namespace {

struct Row {
  double involved_mpps;
  double miss;
  std::int64_t slow_pkts;
};

Row run(SteerPolicy policy, bool with_bypass) {
  TestbedConfig tc;
  tc.system = SystemKind::kCeio;
  tc.ceio.policy = policy;
  Testbed bed(tc);
  auto& kv = bed.make_kv_store();
  auto& dfs = bed.make_linefs();
  harness::WorkloadSpec rpc;  // kv @ 512 B, 25 G/flow (the WorkloadSpec defaults)
  harness::WorkloadSpec chunks;
  chunks.app = "linefs";
  chunks.packet_size = 2 * kKiB;  // 1 MiB chunks (the chunk_kb default)
  const int involved = with_bypass ? 4 : 8;
  for (FlowId id = 1; id <= static_cast<FlowId>(involved); ++id) {
    bed.add_flow(harness::flow_config(id, rpc), kv);
  }
  if (with_bypass) {
    for (FlowId id = 100; id < 104; ++id) {
      bed.add_flow(harness::flow_config(id, chunks), dfs);
    }
  }
  harness::settle_and_measure(bed, millis(2), millis(4));
  Row out{};
  out.involved_mpps = bed.aggregate_mpps(FlowKind::kCpuInvolved);
  out.miss = bed.llc_miss_rate();
  for (FlowId id = 1; id <= static_cast<FlowId>(involved); ++id) {
    const auto* st =
        static_cast<DatapathBase&>(static_cast<IoDatapath&>(bed.datapath())).flow_stats(id);
    if (st != nullptr) out.slow_pkts += st->slow_path_pkts;
  }
  return out;
}

}  // namespace

int main() {
  std::printf("=== Ablation: lazy credit release vs MPQ/PIAS steering (paper 4.1) ===\n\n");
  TablePrinter table({"scenario", "policy", "involved Mpps", "miss%",
                      "involved slow-path pkts"});
  for (const bool with_bypass : {false, true}) {
    const char* scenario = with_bypass ? "4 RPC + 4 DFS" : "8 RPC (continuous)";
    for (const SteerPolicy policy : {SteerPolicy::kCreditBased, SteerPolicy::kMpqPias}) {
      const Row r = run(policy, with_bypass);
      table.add_row({scenario,
                     policy == SteerPolicy::kCreditBased ? "credits (CEIO)" : "MPQ (PIAS)",
                     TablePrinter::fmt(r.involved_mpps),
                     TablePrinter::fmt(r.miss * 100.0, 1),
                     std::to_string(r.slow_pkts)});
    }
  }
  table.print();
  std::printf("\nexpected: continuous RPC flows decay below MPQ's fast levels and ride\n"
              "the slow path (large slow-path packet counts, lower throughput); lazy\n"
              "credit release keeps them fast because consumption replenishes credits.\n");
  return 0;
}
