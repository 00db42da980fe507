// Simulation-engine partitioning knobs (reflected as `sim.*`).
//
// `domains` is the *logical* decomposition of one deployment into
// conservative-lookahead event domains: it is part of the scenario (it
// decides how flows, NIC ports and per-domain host slices are partitioned)
// and changing it changes results, exactly like changing the flow count.
// `shards` is the *execution* knob: how many worker threads advance those
// domains. Results are bit-identical for every shards value — the same
// contract the sweep runner gives `--jobs` — which is what the check.sh
// shards=4-vs-1 gate enforces. There is nothing else to tune: every
// cross-domain channel carries one `net.propagation` of delay, which is the
// coordinator's lookahead, and channels grow as needed.
#pragma once

namespace ceio {

struct SimConfig {
  /// Logical event domains the deployment is partitioned into (1 = the
  /// classic single-scheduler testbed; sharding machinery engages at >= 2).
  int domains = 1;
  /// Worker threads advancing the domains (clamped to `domains`). Never
  /// affects results, only wall-clock.
  int shards = 1;
};

}  // namespace ceio
