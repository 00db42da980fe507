// Isolated per-operation costs of single layers, timed against each layer's
// public API and sized by what a real run of the workload did (its queue
// depth, LLC geometry, flow count, credit budget and domain layout). These
// are the scheduler/LLC/flow-table cases of bench/perf_core and the
// RMT/credit/Algorithm 1/SW-ring cases of bench/micro_substrates, attached
// to the run they are meant to explain.
#pragma once

#include <cstddef>
#include <cstdint>

#include "common/units.h"
#include "host/cache.h"

namespace perfbench {

struct LayerSizing {
  std::size_t pending = 1024;  // sim.pending_max of the run
  ceio::LlcConfig llc;
  std::size_t flows = 16;
  std::int64_t credits = 3000;  // C_total of one CEIO instance
  int domains = 1;
  int shards = 1;
  ceio::Nanos lookahead{0};  // 0: single-domain run, no barrier case
};

/// Host nanoseconds per operation; each is the least of several timed
/// repetitions.
struct LayerCosts {
  double sched_wheel_ns = 0;   // schedule + fire, delays inside the wheel span
  double sched_heap_ns = 0;    // schedule + fire, delays beyond it (heap tier)
  double sched_cancel_ns = 0;  // schedule/cancel/fire mix, per operation
  double llc_hit_ns = 0;       // cpu_read of a resident buffer
  double llc_miss_ns = 0;      // cpu_read of a cold buffer (fill + evict)
  double llc_premature_ns = 0; // ddio_write into a flooded DDIO partition
  double flow_dense_ns = 0;    // FlowTable::find, ids 1..N
  double flow_sparse_ns = 0;   // FlowTable::find, ids 61 apart
  double rmt_steer_ns = 0;     // RmtEngine::steer over N rules
  double credit_ns = 0;        // CreditController consume + release
  double alg1_ns = 0;          // Algorithm 1: one flow arrival + its departure
  double swring_ns = 0;        // SwRing note_steered + consumed
  double barrier_ns = 0;       // ShardCoordinator epoch over no-op domains
};

LayerCosts measure_layer_costs(const LayerSizing& sizing);

}  // namespace perfbench
