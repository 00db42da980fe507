// Sharded deployment harness: one simulated deployment partitioned into
// `sim.domains` independent receiver slices, advanced in parallel by
// `sim.shards` worker threads (sim/shard_coordinator.h).
//
// Partitioning. Each domain d is one port/NUMA slice of a multi-port
// deployment: a complete single-domain Testbed (its own ingress link,
// LLC/DRAM/IIO, memory controller, PCIe/DMA, NIC, RMT and datapath) seeded
// derive_seed(seed, d), holding the flows f with (f-1) % domains == d. A
// flow lives whole in its slice: its FlowSource sends on the slice's link,
// and its arrival stream is keyed on (run seed, flow id), exactly as in a
// single-domain run. Each slice owns its LLC, so each CEIO slice keeps the
// Eq.-1 C_total its own DDIO ways give it.
//
// Slices share no state and exchange no messages. A slice built alone as
// that Testbed reports every one of its flows exactly as the sharded run
// does, and the coordinator needs no epoch boundary inside a run: each
// run_until is one dispatch per domain.
//
// One deployment path. Slices are built by the single-domain code (Testbed,
// make_app or TenantAssembly, Testbed::add_flow), flows come from the one
// spec enumeration (for_each_flow) and reports from the one collector
// (collect_domains). So domain d's Testbed sees exactly its flows
// (flow_ids(), core(), source(), governor gauges, audit invariants).
//
// Determinism. Reports for shards=1 and shards=N are byte-identical at fixed
// sim.domains (the same contract the sweep runner gives --jobs, and what
// the check.sh shards gate enforces): each slice's run depends only on its
// own construction. Changing sim.domains is a *scenario* change (different
// partitioning, ports and per-slice RNG streams) and legitimately changes
// results.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/units.h"
#include "harness/experiment.h"
#include "sim/shard_coordinator.h"

namespace ceio {
class FlowSource;
class Testbed;
}  // namespace ceio

namespace ceio::harness {

class DomainSlice;

class ShardedTestbed {
 public:
  /// Builds every slice and its flows from `spec`. Requires sim.domains >= 2
  /// and a known app; throws std::invalid_argument otherwise.
  explicit ShardedTestbed(const ExperimentSpec& spec);
  ~ShardedTestbed();

  ShardedTestbed(const ShardedTestbed&) = delete;
  ShardedTestbed& operator=(const ShardedTestbed&) = delete;

  /// Advances every domain to `deadline` (absolute simulated time).
  void run_until(Nanos deadline);
  /// Clears per-flow meters and per-domain host stats at the current time;
  /// reports cover the window from this call to now().
  void reset_measurement();
  Nanos now() const;

  /// Same shape as the single-domain runner's result: per-flow reports in id
  /// order, aggregates in the same summation order, host stats merged over
  /// domains in domain order.
  RunResult collect() const;

  // ---- Introspection (tests, benches) ----
  int domains() const { return static_cast<int>(slices_.size()); }
  int shards() const;
  /// The coordinator's epoch length: the spec's horizon (warmup + measure).
  /// Slices exchange nothing, so no delay bounds how far one may run ahead;
  /// the horizon is a finite stand-in that makes each run_until up to it
  /// one dispatch.
  Nanos lookahead() const;
  std::uint64_t epochs_completed() const;
  Testbed& bed(int domain);
  /// Flow `id`'s source, in its slice's Testbed; nullptr for an unknown id.
  FlowSource* source(FlowId id);
  /// Always 0: slices exchange nothing. Kept for callers that report it.
  std::uint64_t mailbox_spills() const;

 private:
  std::vector<std::unique_ptr<DomainSlice>> slices_;
  FlowId flows_ = 0;  // flow ids 1..flows_

  std::unique_ptr<ShardCoordinator> coordinator_;  // after slices_: dies first
};

/// The sharded counterpart of run_experiment's canonical loop: build, warm
/// up, reset, measure, collect. run_experiment dispatches here when
/// spec.testbed.sim.domains > 1.
RunResult run_sharded_experiment(const ExperimentSpec& spec);

}  // namespace ceio::harness
