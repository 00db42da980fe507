// Conservative-lookahead epoch coordinator for sharded simulation.
//
// One simulated deployment is partitioned into event domains, each with its
// own EventScheduler. Domains interact only through timestamped messages
// whose delivery delay equals the *lookahead* L (the network propagation).
// The coordinator advances all domains in epochs of length L: a message
// sent during epoch k arrives during epoch k+1, so every message a domain
// must inject at the start of epoch k+1 was sent, and sits in its per-epoch
// channel (sim/epoch_channel.h), when epoch k ends. Each epoch is one
// dispatch per domain, between two barriers:
//
//   drain  the domain merges its inbound channels' previous-epoch slots
//          deterministically (by (arrival, source domain, sender seq)) and
//          injects them into its local scheduler;
//   run    it executes its scheduler up to the epoch end, then flushes
//          partially filled outgoing bursts so they cross at the boundary.
//
// A domain's drain may overlap other domains' runs of the same epoch: those
// runs write the current epoch's slots, the drain reads the previous
// epoch's. Mid-epoch, a thread touches only its own domains' state plus the
// producer slots of outgoing channels — there is no shared mutable state, so
// results are bit-identical at any worker-thread count: the phase schedule
// depends only on the domain count and L, and each domain's execution is a
// pure function of its own event stream. shards=1 runs the identical phase
// sequence inline on the calling thread.
#pragma once

#include <barrier>
#include <cstdint>
#include <thread>
#include <vector>

#include "common/units.h"

namespace ceio {

/// One event domain as the coordinator sees it. Implementations live in the
/// harness (ShardedTestbed). The contract: drain_phase touches only the
/// domain's inbound channels' previous-epoch slots and its local scheduler,
/// and may run while other domains run the same epoch; run_phase touches
/// only local state plus the current-epoch slots of outgoing channels.
class ShardDomain {
 public:
  virtual ~ShardDomain() = default;

  /// Epoch start, once per epoch: merge the messages sent to this domain
  /// during the previous epoch with arrival < `epoch_end` into the local
  /// scheduler (deterministic order).
  virtual void drain_phase(Nanos epoch_end) = 0;

  /// Executes local events up to `stop`. `at_epoch_end` is true when `stop`
  /// closes the epoch: the domain must then flush partial outgoing bursts
  /// (producer side only — consumers read them in the next epoch).
  virtual void run_phase(Nanos stop, bool at_epoch_end) = 0;
};

class ShardCoordinator {
 public:
  /// `lookahead` must be strictly positive (a zero-lookahead channel would
  /// allow same-instant cross-domain causality and deadlock the epoch
  /// scheme); throws std::invalid_argument otherwise. `shards` is clamped
  /// to [1, domains.size()]; domain d runs on worker d % shards.
  ShardCoordinator(std::vector<ShardDomain*> domains, Nanos lookahead, int shards);
  ~ShardCoordinator();

  ShardCoordinator(const ShardCoordinator&) = delete;
  ShardCoordinator& operator=(const ShardCoordinator&) = delete;

  /// Advances every domain to `deadline` (absolute). Partial epochs are
  /// supported: stopping mid-epoch (to reset measurement, say) and resuming
  /// later executes the exact event sequence of an uninterrupted run.
  void run_until(Nanos deadline);

  Nanos now() const { return now_; }
  std::uint64_t epochs_completed() const { return epochs_; }
  Nanos lookahead() const { return lookahead_; }
  int shards() const { return shards_; }

 private:
  /// One dispatch: drain (at an epoch's start) then run every domain.
  struct Step {
    bool drain = false;
    Nanos epoch_end{0};
    Nanos stop{0};
  };

  /// Runs `step` over every domain, split across the workers (worker w takes
  /// domains w, w+shards, w+2*shards, ... in ascending order). The calling
  /// thread acts as worker 0; returns after all workers finish.
  void parallel(const Step& step);
  void apply(int worker, const Step& step);
  void worker_loop(int worker);

  std::vector<ShardDomain*> domains_;
  Nanos lookahead_;
  int shards_;

  Nanos now_{0};
  Nanos epoch_start_{0};
  bool drained_ = false;  // current epoch's drain phase already ran
  std::uint64_t epochs_ = 0;

  // Worker pool (only when shards_ > 1): a start barrier publishes the
  // pending step, an end barrier signals completion. Both include the
  // calling thread.
  std::vector<std::thread> workers_;
  std::barrier<> start_;
  std::barrier<> end_;
  Step pending_;
  bool stopping_ = false;
};

}  // namespace ceio
