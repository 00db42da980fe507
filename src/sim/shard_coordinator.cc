#include "sim/shard_coordinator.h"

#include <algorithm>
#include <stdexcept>

namespace ceio {

ShardCoordinator::ShardCoordinator(std::vector<ShardDomain*> domains,
                                   Nanos lookahead, int shards)
    : domains_(std::move(domains)),
      lookahead_(lookahead),
      shards_(std::clamp<int>(shards, 1, std::max<int>(1, static_cast<int>(domains_.size())))),
      start_(shards_),
      end_(shards_) {
  if (lookahead_ <= Nanos{0}) {
    throw std::invalid_argument(
        "ShardCoordinator: lookahead must be positive (a zero-delay "
        "cross-domain channel defeats conservative synchronization)");
  }
  if (domains_.empty()) {
    throw std::invalid_argument("ShardCoordinator: no domains");
  }
  for (int w = 1; w < shards_; ++w) {
    workers_.emplace_back([this, w] { worker_loop(w); });
  }
}

ShardCoordinator::~ShardCoordinator() {
  if (!workers_.empty()) {
    stopping_ = true;
    start_.arrive_and_wait();
    for (auto& t : workers_) t.join();
  }
}

void ShardCoordinator::worker_loop(int worker) {
  for (;;) {
    start_.arrive_and_wait();
    if (stopping_) return;
    apply(worker, pending_);
    end_.arrive_and_wait();
  }
}

void ShardCoordinator::apply(int worker, const Step& step) {
  for (std::size_t d = static_cast<std::size_t>(worker); d < domains_.size();
       d += static_cast<std::size_t>(shards_)) {
    if (step.drain) domains_[d]->drain_phase(step.epoch_end);
    domains_[d]->run_phase(step.stop, /*at_epoch_end=*/step.stop == step.epoch_end);
  }
}

void ShardCoordinator::parallel(const Step& step) {
  if (workers_.empty()) {
    apply(0, step);
    return;
  }
  pending_ = step;
  start_.arrive_and_wait();
  apply(0, step);
  end_.arrive_and_wait();
}

void ShardCoordinator::run_until(Nanos deadline) {
  while (now_ < deadline) {
    const Nanos epoch_end = epoch_start_ + lookahead_;
    const Nanos stop = std::min(epoch_end, deadline);
    parallel(Step{!drained_, epoch_end, stop});
    drained_ = true;
    now_ = stop;
    if (stop == epoch_end) {
      epoch_start_ = epoch_end;
      drained_ = false;
      ++epochs_;
    }
  }
}

}  // namespace ceio
