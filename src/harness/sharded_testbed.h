// Sharded deployment harness: one simulated deployment partitioned into
// `sim.domains` conservative-lookahead event domains (sim/shard_coordinator.h),
// advanced by `sim.shards` worker threads.
//
// Partitioning. Each domain d is a complete vertical receiver slice — its own
// Testbed with LLC/DRAM/IIO, memory controller, PCIe/DMA, NIC, RMT and
// datapath — modelling one port/NUMA slice of a multi-port deployment. Flow
// f's receiver stack (RX rings, pinned core, app state) lives in domain
// g = (f-1) % domains; its sender (FlowSource, DCTCP state) lives in the ring
// neighbour s = (g+1) % domains, which owns one egress NetworkLink toward g.
// The link's queue, ECN marking and drops stay in the sender's domain; its
// propagation delay is spent as cross-domain channel transit and is exactly
// the conservative lookahead.
//
// Channels (one per-epoch channel, sim/epoch_channel.h, per ordered pair per
// type; both carry exactly one net.propagation of delay, which is the
// lookahead for every system):
//   packets   s -> (s-1) % domains   PacketBurst batches with per-packet
//             arrival stamps
//   feedback  g -> (g+1) % domains   delivered / dropped / host-congestion /
//             message-complete
//
// Host resources are per slice. Each slice owns its LLC, so each CEIO slice
// keeps the Eq.-1 C_total its own DDIO ways give it, exactly as a
// single-domain run (and every tenant-mode slice) does; no domain arbitrates
// another's budget.
//
// One deployment path. Each domain's Testbed, applications and tenant
// assembly are built by the single-domain code; a flow is the same sender
// half (make_flow_source) and receiver half (Testbed::add_receiver) that
// Testbed::add_flow puts on one bed, here split over two; flows come from
// the one spec enumeration (for_each_flow) and reports from the one
// collector (collect_domains). So domain g's Testbed sees exactly its flows
// (flow_ids(), core(), governor gauges, audit invariants).
//
// Determinism. Bitwise: reports for shards=1 and shards=N are byte-identical
// at fixed sim.domains (the same contract the sweep runner gives --jobs, and
// what the check.sh shards gate enforces). Ingredients: deterministic
// channel merge order by (arrival, source domain, sender seq); per-flow
// arrival streams keyed on (run seed, flow id), as in a single-domain run;
// per-domain RNG streams via derive_seed(seed, domain) for everything else
// (e.g. the KV store's population); and a phase schedule that depends only
// on the domain count and the lookahead. Changing sim.domains is a
// *scenario* change (different partitioning, ports and per-domain streams)
// and legitimately changes results.
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
  /// Builds the full deployment (domains, channels, flows) from `spec`.
  /// Requires sim.domains >= 2 and a known app; throws std::invalid_argument
  /// otherwise, or when net.propagation (the lookahead) is not positive.
  explicit ShardedTestbed(const ExperimentSpec& spec);
  ~ShardedTestbed();

  ShardedTestbed(const ShardedTestbed&) = delete;
  ShardedTestbed& operator=(const ShardedTestbed&) = delete;

  /// Advances every domain to `deadline` (absolute, global simulated time).
  void run_until(Nanos deadline);
  /// Clears per-flow meters and per-domain host stats at the current global
  /// time; reports cover the window from this call to now().
  void reset_measurement();
  Nanos now() const;

  /// Same shape as the single-domain runner's result: per-flow reports in id
  /// order, aggregates in the same summation order, host stats merged over
  /// domains in domain order.
  RunResult collect() const;
  FlowReport report(FlowId id) const;

  // ---- Introspection (tests, benches) ----
  int domains() const { return static_cast<int>(slices_.size()); }
  int shards() const;
  Nanos lookahead() const;
  std::uint64_t epochs_completed() const;
  Testbed& bed(int domain);
  /// The sender-side FlowSource (lives in domain (recv+1) % domains).
  FlowSource* source(FlowId id);
  /// Always 0: per-epoch channels grow instead of spilling. Kept for
  /// callers that report it.
  std::uint64_t mailbox_spills() const;

 private:
  friend class DomainSlice;

  std::vector<std::unique_ptr<DomainSlice>> slices_;
  std::vector<FlowSource*> flows_;  // sender halves; index = flow id - 1
  Nanos measure_start_{0};

  std::unique_ptr<ShardCoordinator> coordinator_;  // after slices_: dies first
};

/// The sharded counterpart of run_experiment's canonical loop: build, warm
/// up, reset, measure, collect. run_experiment dispatches here when
/// spec.testbed.sim.domains > 1.
RunResult run_sharded_experiment(const ExperimentSpec& spec);

}  // namespace ceio::harness
