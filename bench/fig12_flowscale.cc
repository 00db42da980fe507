// Figure 12 — aggregate throughput of CEIO with a 512 B echo workload in
// RDMA UD mode as the number of flows grows, for several destination-churn
// time slots. 16 flows send concurrently; each slot the active set is
// re-drawn at random. CEIO's active-flow strategy sustains throughput until
// the churn rate overruns the controller's reactivation capacity, after
// which flows fall to slow-path performance — the paper's observation.
//
// The base experiment is a reflective ExperimentSpec, so every knob is
// addressable from the command line:
//
//   fig12_flowscale                              # the paper's churn table
//   fig12_flowscale --flows=1024,16384           # custom flow-count axis
//   fig12_flowscale --set sim.domains=4 --set sim.shards=4
//   fig12_flowscale --scenario=flowscale-1m      # 2^20 flows, sharded
//
// With sim.domains > 1 each run goes through the sharded harness
// (ShardedTestbed); sim.shards picks the worker-thread count and never
// changes the numbers.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "common/stats.h"
#include "config/config_ops.h"
#include "harness/experiment.h"
#include "harness/scenario_registry.h"
#include "harness/sharded_testbed.h"

using namespace ceio;

namespace {

constexpr int kActive = 16;
constexpr Nanos kSlots[] = {micros(100), micros(500), millis(1), millis(10)};

[[noreturn]] void fail(const std::string& message) {
  std::fprintf(stderr, "fig12_flowscale: %s\n", message.c_str());
  std::exit(2);
}

/// The paper's Figure 12 receiver: CEIO with memory bounded for the 4K-flow
/// column and echo traffic splitting line rate across the active set.
harness::ExperimentSpec default_spec() {
  harness::ExperimentSpec spec;
  spec.testbed.system = SystemKind::kCeio;
  spec.testbed.ceio.fast_ring_entries = 256;       // bound memory at 4K flows
  spec.testbed.ceio.inactive_timeout = millis(2);  // scaled from the paper's testbed
  spec.workload.app = "echo";
  spec.workload.offered_rate = gbps(200.0 / kActive);
  return spec;
}

/// Churn driver over either harness: `sources` hands out FlowSource* by id,
/// `advance` runs global simulated time, `reset` starts the measurement
/// window. One slot = run, stop the active set, redraw, start the new set.
template <class Bed>
double run_churn(Bed& bed, int flows, Nanos slot) {
  std::vector<FlowId> ids;
  for (FlowId id = 1; id <= static_cast<FlowId>(flows); ++id) {
    ids.push_back(id);
    bed.source(id)->stop();  // activated per slot below
  }

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

/// Thin adapter so the single-domain Testbed matches ShardedTestbed's churn
/// surface (absolute-deadline run, collected aggregate).
struct LocalBed {
  explicit LocalBed(const harness::ExperimentSpec& spec) : bed(spec.testbed) {
    Application* app = harness::make_app(bed, spec.workload.app);
    harness::for_each_flow(spec, [&](const FlowConfig& fc) { bed.add_flow(fc, *app); });
  }
  FlowSource* source(FlowId id) { return bed.source(id); }
  void reset_measurement() { bed.reset_measurement(); }
  void run_until(Nanos t) { bed.run_until(t); }
  double aggregate_gbps() { return bed.aggregate_gbps(); }
  Testbed bed;
};

struct ShardedBed {
  explicit ShardedBed(const harness::ExperimentSpec& spec) : bed(spec) {}
  FlowSource* source(FlowId id) { return bed.source(id); }
  void reset_measurement() { bed.reset_measurement(); }
  void run_until(Nanos t) { bed.run_until(t); }
  double aggregate_gbps() { return bed.collect().aggregate_gbps; }
  harness::ShardedTestbed bed;
};

double run_scale(const harness::ExperimentSpec& base, int flows, Nanos slot) {
  harness::ExperimentSpec spec = base;
  spec.workload.flows = flows;
  if (spec.testbed.sim.domains > 1) {
    ShardedBed bed(spec);
    return run_churn(bed, flows, slot);
  }
  LocalBed bed(spec);
  return run_churn(bed, flows, slot);
}

std::vector<int> parse_flow_counts(const std::string& csv) {
  std::vector<int> out;
  std::size_t pos = 0;
  while (pos < csv.size()) {
    const std::size_t comma = csv.find(',', pos);
    const std::string tok = csv.substr(pos, comma == std::string::npos ? csv.npos : comma - pos);
    const int n = std::atoi(tok.c_str());
    if (n < 1) fail("--flows expects a comma list of positive counts, got '" + csv + "'");
    out.push_back(n);
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  if (out.empty()) fail("--flows expects at least one count");
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  harness::ExperimentSpec spec = default_spec();
  std::vector<int> flow_counts = {16, 64, 256, 1024, 4096};
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value_of = [&](const char* name) -> std::string {
      const std::size_t len = std::strlen(name);
      if (arg.compare(0, len, name) != 0) return {};
      if (arg.size() > len && arg[len] == '=') return arg.substr(len + 1);
      if (arg.size() == len && i + 1 < argc) return argv[++i];
      return {};
    };
    if (arg.rfind("--scenario", 0) == 0) {
      const std::string name = value_of("--scenario");
      const auto* s = harness::ScenarioRegistry::instance().find(name);
      if (s == nullptr) fail("unknown scenario '" + name + "'");
      spec = s->spec;
      flow_counts = {spec.workload.flows};
    } else if (arg.rfind("--set", 0) == 0) {
      const std::string kv = value_of("--set");
      const std::size_t eq = kv.find('=');
      if (eq == std::string::npos) fail("--set expects KEY=VALUE, got '" + kv + "'");
      std::string error;
      if (!config::set(spec, kv.substr(0, eq), kv.substr(eq + 1), &error)) fail(error);
    } else if (arg.rfind("--flows", 0) == 0) {
      flow_counts = parse_flow_counts(value_of("--flows"));
    } else {
      fail("unknown option '" + arg + "' (supported: --scenario, --set, --flows)");
    }
  }

  std::printf("=== Figure 12: aggregate throughput vs flow count (512B echo, UD) ===\n");
  if (spec.testbed.sim.domains > 1) {
    std::printf("sharded: %d event domains, %d worker shards\n", spec.testbed.sim.domains,
                spec.testbed.sim.shards);
  }
  std::vector<std::string> headers{"flows"};
  for (const Nanos slot : kSlots) {
    headers.push_back("slot " + std::to_string(slot / Nanos{1000}) + "us (Gbps)");
  }
  TablePrinter table(headers);
  for (const int flows : flow_counts) {
    std::vector<std::string> row{std::to_string(flows)};
    for (const Nanos slot : kSlots) {
      row.push_back(TablePrinter::fmt(run_scale(spec, flows, slot)));
    }
    table.add_row(row);
  }
  table.print();
  std::printf("expected shape: stable for slow churn (>=1ms); throughput decays toward\n"
              "slow-path performance at 100-500us slots beyond ~1K flows.\n");
  return 0;
}
