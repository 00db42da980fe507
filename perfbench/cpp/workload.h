// One benchmark workload, driven through the simulator's public harness API.
//
// A workload is a reflected ExperimentSpec (a registered scenario plus
// `key = value` overrides, exactly what `ceio_sim --scenario --set` accepts).
// `Run` replays the canonical
// sequence of `harness::run_experiment` step by step — construct the
// Testbed / TenantAssembly / ShardedTestbed, make the application, add the
// flows, warm up, reset the measurement, measure, collect — so the caller can
// time each call and read every layer's public counters between calls. It
// touches no private member: a refactor behind those calls needs no change
// here, and the self-test pins the replica to `run_experiment` byte for byte.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "harness/experiment.h"
#include "harness/sharded_testbed.h"

namespace perfbench {

struct WorkloadDef {
  std::string name;  // why each exists: BENCHMARK.json and README.md
  std::string scenario;   // registered starting point; empty = spec defaults
  std::string overrides;  // `key = value` lines applied on top
  // Applied on top of `overrides` for the sharded variant the traced run
  // measures beside the workload; empty = none.
  std::string sharded;
};

const std::vector<WorkloadDef>& workloads();
/// nullptr for an unknown name.
const WorkloadDef* find_workload(const std::string& name);

/// The workload's spec (or, with `sharded`, its sharded variant) with `seed`
/// applied. Throws std::invalid_argument when the scenario or an override
/// does not parse.
ceio::harness::ExperimentSpec make_spec(const WorkloadDef& w, std::uint64_t seed,
                                        bool sharded = false);

/// Every layer's public counters at one instant, summed over event domains.
/// Most are cumulative; the LLC and flow-source counters restart at
/// reset_measurement(). Either way `b - a` over a window is that window's
/// work, which is how every count metric is defined.
struct Counters {
  std::int64_t sim_events = 0;
  std::int64_t sim_pending_max = 0;  // largest single-domain queue seen
  std::int64_t llc_ddio_writes = 0, llc_cpu_hits = 0, llc_cpu_misses = 0;
  std::int64_t llc_premature = 0, llc_writebacks = 0;
  std::int64_t dram_requests = 0, mc_iio_stalls = 0, iio_rejects = 0;
  std::int64_t cpu_packets = 0, cpu_busy_ns = 0, cpu_stall_ns = 0;
  std::int64_t dma_writes = 0, dma_reads = 0, dma_writes_done = 0, dma_reads_done = 0;
  std::int64_t dma_read_queue_peak = 0;
  std::int64_t pcie_up_bytes = 0, pcie_down_bytes = 0;
  std::int64_t nic_rx_packets = 0, nicmem_writes = 0, nicmem_reads = 0;
  std::int64_t nicmem_peak_bytes = 0, nicmem_alloc_failures = 0;
  std::int64_t link_packets = 0, link_drops = 0, link_ecn = 0;
  std::int64_t src_sent = 0, src_delivered = 0, src_dropped = 0;
  std::int64_t ceio_to_slow = 0, ceio_to_fast = 0, ceio_reclaims = 0;
  std::int64_t ceio_reactivations = 0, ceio_cca = 0;
  std::int64_t path_fast = 0, path_slow = 0;
  std::int64_t kv_ops = 0, echo_echoed = 0, linefs_chunks = 0, thrasher_processed = 0;
  std::int64_t governor_changes = 0, way_ticks = 0, way_repartitions = 0;
  std::int64_t shard_epochs = 0, shard_spills = 0;
  std::vector<std::int64_t> domain_events;  // per-domain executed()
};

/// Per-flow sender counters, read to check packet conservation.
struct SourceTally {
  std::int64_t sent = 0, delivered = 0, dropped = 0;
};

class Run {
 public:
  explicit Run(const ceio::harness::ExperimentSpec& spec);
  ~Run();
  Run(const Run&) = delete;
  Run& operator=(const Run&) = delete;

  // The canonical sequence, one public call (or loop of calls) each.
  void construct();  // Testbed (+ TenantAssembly) or the whole ShardedTestbed
  void make_app();   // no-op for tenant and sharded runs (their ctors make apps)
  void add_flows();  // no-op for sharded runs (the ctor adds flows)
  void run_until(ceio::Nanos deadline);
  void reset_measurement();
  ceio::harness::RunResult collect();

  Counters counters();
  std::vector<SourceTally> source_tallies();
  /// False when some domain's DMA engine completed more than it issued.
  bool dma_ledger_ok();

  const ceio::harness::ExperimentSpec& spec() const { return spec_; }
  bool sharded() const { return spec_.testbed.sim.domains > 1; }
  int flow_count() const;
  /// CEIO credit budget of domain 0 (or of tenant 0): sizes the isolated
  /// credit-controller timings.
  std::int64_t ceio_total_credits();
  ceio::Nanos lookahead() const;

 private:
  std::vector<ceio::Testbed*> beds();
  const ceio::FlowSource* source(ceio::FlowId id);

  ceio::harness::ExperimentSpec spec_;
  std::unique_ptr<ceio::Testbed> bed_;
  std::unique_ptr<ceio::tenant::TenantAssembly> assembly_;
  std::unique_ptr<ceio::harness::ShardedTestbed> sharded_;
  ceio::Application* app_ = nullptr;
};

/// Canonical text of everything a run reports (per-flow rows, aggregates,
/// tenant rows), doubles in hex so equal text means bit-equal results.
std::string serialize(const ceio::harness::RunResult& r);
/// FNV-1a 64 of `text`, as 16 hex digits.
std::string digest(const std::string& text);

}  // namespace perfbench
