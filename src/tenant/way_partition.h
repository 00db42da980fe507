// WayPartitionController: the runtime DDIO way arbiter.
//
// Periodically samples per-tenant pressure gauges (premature-eviction rate
// and ring backlog — the observables IOCA's contention detector uses) and
// decides whether to grow the most-pressured tenant's exclusive slice by one
// DDIO way: out of the shared pool while one exists, then from the
// least-pressured tenant that can spare a way. A priority ladder, a donor
// guard and a grant hold keep the decisions from flapping. The decision
// function stays pure (state in, decision out) so tests drive it on
// synthetic gauge traces without a simulation; the event-scheduler wiring
// lives in TenantAssembly.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "tenant/tenant_config.h"

namespace ceio::tenant {

/// One tenant's gauge snapshot at a controller tick.
struct TenantGaugeSample {
  /// Cumulative premature evictions (the controller differentiates).
  std::int64_t premature_evictions = 0;
  /// Ring / slow-path backlog in packets.
  std::int64_t ring_backlog = 0;
  /// Operator-declared pressure weight (TenantConfig::priority).
  double priority = 1.0;
};

/// The outcome of one tick. `ways` always holds the (possibly unchanged)
/// per-tenant exclusive way counts; `changed` says whether a way actually
/// moved. `from == kSharedPool` marks a carve-out from the shared pool.
struct WayDecision {
  static constexpr std::size_t kSharedPool = static_cast<std::size_t>(-1);
  bool changed = false;
  std::size_t from = 0;
  std::size_t to = 0;
  std::vector<int> ways;
};

class WayPartitionController {
 public:
  /// `initial_ways` are the tenants' exclusive slices; `total_io_ways` is the
  /// whole DDIO partition width — the difference is the shared pool the
  /// reactive policy carves exclusive ways out of first.
  WayPartitionController(const WayControllerConfig& config, std::vector<int> initial_ways,
                         int total_io_ways);

  /// One decision tick over the tenants' current gauges. Pure with respect
  /// to the simulation: only controller-internal state (way vector, last
  /// premature counters, hold timers) advances.
  WayDecision decide(const std::vector<TenantGaugeSample>& samples);

  const std::vector<int>& ways() const { return ways_; }
  /// Ways still in the shared pool (not yet carved into a slice).
  int shared_ways() const { return shared_; }
  std::int64_t repartitions() const { return repartitions_; }
  std::int64_t tick_count() const { return tick_count_; }
  const WayControllerConfig& config() const { return config_; }

 private:
  WayControllerConfig config_;
  std::vector<int> ways_;
  int shared_ = 0;
  std::vector<std::int64_t> last_evictions_;
  /// Tick index until which each tenant's latest grant is pinned.
  std::vector<std::int64_t> hold_until_;
  std::int64_t tick_count_ = 0;
  std::int64_t repartitions_ = 0;
};

}  // namespace ceio::tenant
