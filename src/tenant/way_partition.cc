#include "tenant/way_partition.h"

#include <stdexcept>
#include <utility>

namespace ceio::tenant {

const char* to_string(PartitionPolicy policy) {
  switch (policy) {
    case PartitionPolicy::kStatic:
      return "static";
    case PartitionPolicy::kReactive:
      return "reactive";
  }
  return "?";
}

WayPartitionController::WayPartitionController(const WayControllerConfig& config,
                                               std::vector<int> initial_ways,
                                               int total_io_ways)
    : config_(config), ways_(std::move(initial_ways)) {
  if (ways_.empty()) throw std::invalid_argument("controller needs at least one tenant");
  int claimed = 0;
  for (const int w : ways_) claimed += w;
  if (claimed > total_io_ways) {
    throw std::invalid_argument("tenant way shares exceed the DDIO partition");
  }
  shared_ = total_io_ways - claimed;
  last_evictions_.assign(ways_.size(), 0);
  hold_until_.assign(ways_.size(), 0);
}

WayDecision WayPartitionController::decide(const std::vector<TenantGaugeSample>& samples) {
  if (samples.size() != ways_.size()) {
    throw std::invalid_argument("gauge sample count does not match tenant count");
  }
  WayDecision out;
  out.ways = ways_;
  ++tick_count_;

  // Pressure per tenant this tick: fresh premature evictions plus weighted
  // backlog, scaled by the tenant's declared priority. Differentiating the
  // cumulative counter makes the signal a rate, so a tenant that suffered
  // long ago but is now quiet donates; the priority weight is what lets a
  // latency-critical victim out-bid an antagonist whose raw eviction count
  // is larger but self-inflicted.
  std::vector<double> pressure(samples.size(), 0.0);
  for (std::size_t t = 0; t < samples.size(); ++t) {
    const std::int64_t delta = samples[t].premature_evictions - last_evictions_[t];
    last_evictions_[t] = samples[t].premature_evictions;
    pressure[t] =
        samples[t].priority *
        (static_cast<double>(delta) +
         config_.backlog_weight * static_cast<double>(samples[t].ring_backlog));
  }
  // kStatic leaves the boot-time split alone (TenantAssembly never ticks
  // it; tests drive decide() directly).
  if (config_.policy != PartitionPolicy::kReactive) return out;

  // IOCA-style: grow the most-pressured tenant's exclusive slice by one way
  // per tick — out of the shared pool while one exists (isolating the tenant
  // from its neighbors' churn), then from the least-pressured tenant that
  // can spare a way. Only act when the gap is worth the churn.
  std::size_t winner = 0;
  for (std::size_t t = 1; t < pressure.size(); ++t) {
    if (pressure[t] > pressure[winner]) winner = t;
  }
  if (shared_ > 0) {
    if (pressure[winner] < config_.react_threshold) return out;
    --shared_;
    ++ways_[winner];
    ++repartitions_;
    hold_until_[winner] = tick_count_ + config_.grant_hold_ticks;
    out.changed = true;
    out.from = WayDecision::kSharedPool;
    out.to = winner;
    out.ways = ways_;
    return out;
  }
  // Pairwise migration once the pool is gone. Ways only flow *up* the
  // priority ladder: a donor must not outrank the winner, so an antagonist
  // can never raid the latency-critical tenant and no drain-steal cycle can
  // form across priority classes. Between equal priorities the donor must be
  // idle (pressure under donor_max_pressure) and off grant-hold — raiding a
  // peer that is itself suffering just makes it the next tick's winner and
  // the partition oscillates way-for-way forever. A higher-priority winner
  // ignores both guards: it may reclaim from a lower class at any time (e.g.
  // ways an antagonist grabbed in the warmup race, before the victim's
  // queues had built up any pressure).
  std::size_t donor = samples.size();
  for (std::size_t t = 0; t < pressure.size(); ++t) {
    if (t == winner || ways_[t] <= config_.min_ways) continue;
    if (samples[t].priority > samples[winner].priority) continue;
    if (samples[t].priority >= samples[winner].priority) {
      if (pressure[t] > config_.donor_max_pressure) continue;
      if (tick_count_ < hold_until_[t]) continue;
    }
    if (donor == samples.size() || pressure[t] < pressure[donor]) donor = t;
  }
  if (donor == samples.size()) return out;
  if (pressure[winner] - pressure[donor] < config_.react_threshold) return out;

  --ways_[donor];
  ++ways_[winner];
  ++repartitions_;
  hold_until_[winner] = tick_count_ + config_.grant_hold_ticks;
  out.changed = true;
  out.from = donor;
  out.to = winner;
  out.ways = ways_;
  return out;
}

}  // namespace ceio::tenant
