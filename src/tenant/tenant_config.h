// Multi-tenant co-location configs: three tenant roles sharing one host
// (latency-critical KV, bandwidth-hog DFS streamer, antagonist thrasher)
// plus the DDIO way-partition controller that arbitrates between them.
//
// Pure data + reflection-friendly structs: this header keeps its includes to
// common/units.h so config/schema.h can register everything without pulling
// the tenant runtime into every config consumer.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/units.h"

namespace ceio::tenant {

/// How the WayPartitionController manages the DDIO ways.
///  - kStatic:  the boot-time split is never changed (the paper's default,
///              and the baseline the isolation figure compares against); no
///              controller tick is scheduled.
///  - kReactive: IOCA-style contention-reactive — one way migrates per tick
///              from the least- to the most-pressured tenant.
enum class PartitionPolicy { kStatic, kReactive };

const char* to_string(PartitionPolicy policy);

/// One tenant: an application plus its flow shape and DDIO slice.
struct TenantConfig {
  bool enabled = true;
  /// kv | echo | vxlan | linefs | rdma | thrasher.
  std::string app = "kv";
  int flows = 4;
  BitsPerSec offered_rate = gbps(10.0);
  Bytes packet_size{512};
  /// Bypass message size in KiB (linefs/rdma); ignored for involved apps.
  std::int64_t chunk_kb = 1024;
  /// Poisson interarrivals (bursty open-loop load; what makes a lean DDIO
  /// slice overflow on queue spikes).
  bool poisson = false;
  /// Initial DDIO ways for this tenant (the controller may move them).
  int ddio_ways = 2;
  /// Pressure weight for the reactive controller. Operators declare which
  /// tenants are latency-critical (IOCA's SLO classes): the controller
  /// multiplies the tenant's premature-eviction pressure by this, so a
  /// high-priority victim out-bids an antagonist whose (self-inflicted)
  /// eviction count is numerically larger.
  double priority = 1.0;
};

/// The fixed three-role roster. DDIO ways no tenant claims exclusively stay
/// in the shared pool every tenant's way mask overlaps — the default split
/// below claims nothing, i.e. uncontrolled DDIO co-location, which is the
/// baseline the isolation figure degrades and the reactive controller then
/// carves exclusive slices out of.
struct TenantSetConfig {
  bool enabled = false;
  TenantConfig lc;   // latency-critical
  TenantConfig bw;   // bandwidth-hog
  TenantConfig ant;  // antagonist

  TenantSetConfig() {
    lc.app = "kv";
    lc.flows = 4;
    // Near the KV cores' saturation point: bursty arrivals back the queues
    // up into the tens of microseconds, which is what leaves DMAed requests
    // unread long enough for neighbor churn to evict them.
    lc.offered_rate = gbps(16.5);
    lc.poisson = true;
    lc.ddio_ways = 0;
    lc.priority = 8.0;
    bw.app = "linefs";
    bw.flows = 2;
    bw.offered_rate = gbps(30.0);
    bw.packet_size = Bytes{2 * kKiB};
    // One exclusive way keeps the streamer's DMA cached even after the
    // controller carves the whole shared pool away (min_ways floors it).
    bw.ddio_ways = 1;
    ant.app = "thrasher";
    ant.flows = 2;
    ant.offered_rate = gbps(20.0);
    ant.ddio_ways = 0;
  }
};

/// The runtime way-partition controller (rides the EventScheduler).
struct WayControllerConfig {
  PartitionPolicy policy = PartitionPolicy::kStatic;
  /// Telemetry poll + decision period.
  Nanos interval = micros(50);
  /// No tenant is ever squeezed below this many ways.
  int min_ways = 1;
  /// kReactive: minimum pressure gap (premature evictions per tick, backlog
  /// weighted in) between winner and donor before a way moves.
  double react_threshold = 8.0;
  /// kReactive: a tenant may only donate a way while its own pressure is at
  /// or below this. Protects an actively-suffering tenant from being raided
  /// by a louder one — without it a thrasher whose pressure never drains
  /// (its evictions are self-inflicted churn) steals a way every tick and
  /// the partition oscillates.
  double donor_max_pressure = 1.0;
  /// kReactive: ticks a freshly granted way is pinned before its holder may
  /// be asked to donate again. A satisfied winner's pressure drops to zero,
  /// which would immediately re-qualify it as the cheapest donor for an
  /// insatiable tenant (a thrasher's pressure never drains no matter how
  /// many ways it gets) — the hold breaks that drain-steal cycle.
  int grant_hold_ticks = 200;
  /// kReactive: weight of ring backlog relative to premature evictions.
  /// Zero by default: bulk tenants hold large *structural* backlogs that say
  /// nothing about cache pressure; the premature-evict rate is the signal.
  double backlog_weight = 0.0;
};

/// Per-tenant slice of a RunResult (harness report extension).
struct TenantReport {
  std::string name;
  std::string app;
  int flows = 0;
  int ddio_ways = 0;
  double mpps = 0.0;
  double gbps = 0.0;          // display metric (lint: allow-raw-unit-param)
  double message_gbps = 0.0;  // display metric (lint: allow-raw-unit-param)
  Nanos p50{0}, p99{0}, p999{0};
  std::int64_t messages = 0;
  std::int64_t drops = 0;
  std::int64_t ddio_occupancy = 0;
  std::int64_t ddio_capacity = 0;
  std::int64_t premature_evictions = 0;
  /// DDIO writes sent uncached because the tenant reaches no DDIO way.
  std::int64_t budget_bypasses = 0;
  std::int64_t ceio_total_credits = 0;  // 0 for non-CEIO systems
};

}  // namespace ceio::tenant
