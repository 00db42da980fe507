#include "policy/governor.h"

#include <algorithm>

#include "ceio/ceio_datapath.h"

namespace ceio::policy {

const char* to_string(GovernorMode mode) {
  switch (mode) {
    case GovernorMode::kOff:
      return "off";
    case GovernorMode::kStatic:
      return "static";
    case GovernorMode::kReactive:
      return "reactive";
  }
  return "?";
}

const char* to_string(GovernorTier tier) {
  switch (tier) {
    case GovernorTier::kCalm:
      return "calm";
    case GovernorTier::kWatch:
      return "watch";
    case GovernorTier::kSqueeze:
      return "squeeze";
  }
  return "?";
}

DatapathGovernor::DatapathGovernor(const PolicyConfig& config) : config_(config) {}

GovernorDecision DatapathGovernor::bundle_for(GovernorTier tier) const {
  GovernorDecision d;
  d.tier = tier;
  switch (tier) {
    case GovernorTier::kCalm:
      break;
    case GovernorTier::kWatch:
      d.credit_scale = config_.watch_credit_scale;
      break;
    case GovernorTier::kSqueeze:
      d.credit_scale = config_.squeeze_credit_scale;
      d.bypass_slow = config_.squeeze_bypass_slow;
      d.landed_cap_scale = config_.squeeze_landed_scale;
      break;
  }
  return d;
}

GovernorDecision DatapathGovernor::decide(const GovernorSample& sample) {
  ++tick_count_;

  // Differentiate the cumulative counters. Harness measurement resets can
  // rewind them mid-run; the clamp turns that into one quiet sample.
  const std::int64_t delta_evict =
      std::max<std::int64_t>(sample.premature_evictions - last_evictions_, 0);
  last_evictions_ = sample.premature_evictions;
  const std::int64_t delta_starve =
      std::max<std::int64_t>(sample.credit_starvations - last_starvations_, 0);
  last_starvations_ = sample.credit_starvations;

  if (config_.governor == GovernorMode::kStatic) {
    GovernorDecision d;
    d.tier = GovernorTier::kCalm;
    d.credit_scale = config_.static_credit_scale;
    d.bypass_slow = config_.static_bypass_slow;
    d.changed = first_tick_;
    if (d.changed) ++changes_;
    first_tick_ = false;
    last_ = d;
    return d;
  }

  const std::int64_t backlog = sample.ring_backlog + sample.slow_backlog;
  const bool hot = static_cast<double>(delta_evict) >= config_.evict_threshold ||
                   static_cast<double>(backlog) >= config_.backlog_threshold ||
                   static_cast<double>(delta_starve) >= config_.starvation_threshold;

  if (hot) {
    ++hot_streak_;
    cool_streak_ = 0;
  } else {
    ++cool_streak_;
    hot_streak_ = 0;
  }

  GovernorTier want = tier_;
  if (hot_streak_ >= config_.escalate_ticks && tier_ != GovernorTier::kSqueeze) {
    want = tier_ == GovernorTier::kCalm ? GovernorTier::kWatch : GovernorTier::kSqueeze;
  } else if (cool_streak_ >= config_.relax_ticks && tier_ != GovernorTier::kCalm) {
    want = tier_ == GovernorTier::kSqueeze ? GovernorTier::kWatch : GovernorTier::kCalm;
  }

  bool moved = false;
  if (want != tier_) {
    // Escalation under sustained pressure is never blocked; de-escalation
    // respects the grant hold so a brief lull cannot flap the actuators.
    if (want > tier_ || tick_count_ >= hold_until_) {
      tier_ = want;
      hold_until_ = tick_count_ + config_.grant_hold_ticks;
      hot_streak_ = 0;
      cool_streak_ = 0;
      moved = true;
      ++changes_;
    }
  }

  GovernorDecision d = bundle_for(tier_);
  d.changed = moved || first_tick_;
  if (first_tick_ && !moved) ++changes_;
  first_tick_ = false;
  last_ = d;
  return d;
}

void apply_decision(const GovernorDecision& decision, CeioDatapath& ceio) {
  ceio.set_credit_scale(decision.credit_scale);
  ceio.set_bypass_slow(decision.bypass_slow);
  ceio.set_landed_scale(decision.landed_cap_scale);
}

}  // namespace ceio::policy
