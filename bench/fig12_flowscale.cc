// Figure 12 — aggregate throughput of CEIO with a 512 B echo workload in
// RDMA UD mode as the number of flows grows, for several destination-churn
// time slots. 16 flows send concurrently; each slot the active set is
// re-drawn at random. CEIO's active-flow strategy sustains throughput until
// the churn rate overruns the controller's reactivation capacity, after
// which flows fall to slow-path performance — the paper's observation.
//
// The bench takes no options. Flow counts past this table, churn-free and
// sharded, run through `ceio_sim --scenario flowscale-1m`.
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/stats.h"
#include "harness/experiment.h"

using namespace ceio;

namespace {

constexpr int kActive = 16;
constexpr Nanos kSlots[] = {micros(100), micros(500), millis(1), millis(10)};

/// One cell of the table: `flows` echo flows on the paper's Figure 12
/// receiver (CEIO, memory bounded for the 4K-flow column), kActive of them
/// sending at a time. Each slot runs, stops the active set, redraws it and
/// starts the new set; measurement starts after a quarter of the slots.
double run_churn(int flows, Nanos slot) {
  TestbedConfig tc;
  tc.system = SystemKind::kCeio;
  tc.ceio.fast_ring_entries = 256;       // bound memory at 4K flows
  tc.ceio.inactive_timeout = millis(2);  // scaled from the paper's testbed
  harness::WorkloadSpec echo;
  echo.app = "echo";
  echo.offered_rate = gbps(200.0 / kActive);  // the active set splits line rate

  Testbed bed(tc);
  Application* app = harness::make_app(bed, echo.app);
  std::vector<FlowId> ids;
  for (FlowId id = 1; id <= static_cast<FlowId>(flows); ++id) {
    bed.add_flow(harness::flow_config(id, echo), *app);
    ids.push_back(id);
  }
  for (const FlowId id : ids) bed.source(id)->stop();  // activated per slot below

  Rng slot_rng(42);
  auto pick_active = [&]() {
    std::vector<FlowId> shuffled = ids;
    slot_rng.shuffle(shuffled);
    shuffled.resize(std::min<std::size_t>(kActive, shuffled.size()));
    return shuffled;
  };

  std::vector<FlowId> active = pick_active();
  for (const FlowId id : active) bed.source(id)->start();

  const int total_slots = std::max<int>(8, static_cast<int>(millis(4) / slot));
  const int warmup_slots = total_slots / 4;
  Nanos t{0};
  for (int s = 0; s < total_slots; ++s) {
    if (s == warmup_slots) bed.reset_measurement();
    t += slot;
    bed.run_until(t);
    for (const FlowId id : active) bed.source(id)->stop();
    active = pick_active();
    for (const FlowId id : active) bed.source(id)->start();
  }
  return bed.aggregate_gbps();
}

}  // namespace

int main() {
  std::printf("=== Figure 12: aggregate throughput vs flow count (512B echo, UD) ===\n");
  std::vector<std::string> headers{"flows"};
  for (const Nanos slot : kSlots) {
    headers.push_back("slot " + std::to_string(slot / Nanos{1000}) + "us (Gbps)");
  }
  TablePrinter table(headers);
  for (const int flows : {16, 64, 256, 1024, 4096}) {
    std::vector<std::string> row{std::to_string(flows)};
    for (const Nanos slot : kSlots) row.push_back(TablePrinter::fmt(run_churn(flows, slot)));
    table.add_row(row);
  }
  table.print();
  std::printf("expected shape: stable for slow churn (>=1ms); throughput decays toward\n"
              "slow-path performance at 100-500us slots beyond ~1K flows.\n");
  return 0;
}
