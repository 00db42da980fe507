// Epoch coordinator for sharded simulation.
//
// A sharded run is a set of event domains, each with its own EventScheduler.
// The coordinator advances them all to a deadline on `shards` worker
// threads, in epochs of length L (the lookahead): a dispatch never crosses
// an epoch boundary, each epoch opens with every domain's drain_phase, and
// every dispatch runs each domain's run_phase up to its stop time, between
// two barriers. The harness's slices (harness/sharded_testbed.h) exchange
// nothing, so it passes the run's horizon as L and each run_until is one
// dispatch; perfbench's barrier case times 5,000 idle epochs.
//
// Mid-dispatch, a worker touches only its own domains' state, so results
// are bit-identical at any worker-thread count: the phase schedule depends
// only on the domain count and L, and each domain's execution is a pure
// function of its own event stream. shards=1 runs the identical phase
// sequence inline on the calling thread.
#pragma once

#include <barrier>
#include <cstdint>
#include <thread>
#include <vector>

#include "common/units.h"

namespace ceio {

/// One event domain as the coordinator sees it (the harness's DomainSlice).
/// Both phases touch only the domain's own state.
class ShardDomain {
 public:
  virtual ~ShardDomain() = default;

  /// Epoch start, once per epoch, before that epoch's first run_phase; the
  /// epoch closes at `epoch_end`. Does nothing unless overridden.
  virtual void drain_phase(Nanos epoch_end) { (void)epoch_end; }

  /// Executes local events up to `stop`. `at_epoch_end` is true when `stop`
  /// closes the epoch.
  virtual void run_phase(Nanos stop, bool at_epoch_end) = 0;
};

class ShardCoordinator {
 public:
  /// `lookahead` (the epoch length) must be strictly positive, or epochs
  /// would never advance; throws std::invalid_argument otherwise, and for
  /// an empty `domains`. `shards` is clamped to [1, domains.size()]; domain
  /// d runs on worker d % shards.
  ShardCoordinator(std::vector<ShardDomain*> domains, Nanos lookahead, int shards);
  ~ShardCoordinator();

  ShardCoordinator(const ShardCoordinator&) = delete;
  ShardCoordinator& operator=(const ShardCoordinator&) = delete;

  /// Advances every domain to `deadline` (absolute), one dispatch per epoch
  /// the span touches. Partial epochs are supported: stopping mid-epoch (to
  /// reset measurement, say) and resuming later runs no second drain.
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
