// Simulation-engine partitioning knobs (reflected as `sim.*`).
//
// `domains` is the *logical* decomposition of one deployment into
// independent receiver slices, one single-domain Testbed each, flow f in
// slice (f-1) % domains (harness/sharded_testbed.h). It is part of the
// scenario (it decides how flows, NIC ports and host slices are
// partitioned, and seeds each slice's own RNG stream), so changing it
// changes results, exactly like changing the flow count. `shards` is the
// *execution* knob: how many worker threads advance those slices. Slices
// share nothing, so results are bit-identical for every shards value — the
// same contract the sweep runner gives `--jobs` — which is what the
// check.sh shards=4-vs-1 gate enforces. There is nothing else to tune.
#pragma once

namespace ceio {

struct SimConfig {
  /// Receiver slices the deployment is partitioned into (1 = the classic
  /// single-scheduler testbed; the sharded harness engages at >= 2).
  int domains = 1;
  /// Worker threads advancing the slices (clamped to `domains`). Never
  /// affects results, only wall-clock.
  int shards = 1;
};

}  // namespace ceio
