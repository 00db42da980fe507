// DatapathGovernor: an online controller that retunes a live CEIO datapath.
//
// The paper's CEIO configuration (credit budget, bypass steering, landing
// windows) is static, so on dynamic flow schedules any single setting is
// wrong for part of the run. The governor watches telemetry deltas —
// premature-evict rate, ring and slow-path backlog, credit starvation — and
// walks a small tier ladder (calm -> watch -> squeeze), mapping each tier to
// a bundle of CEIO actuator values. Stability comes from
// escalation/relaxation streaks plus a grant hold: a tier changes only after
// `escalate_ticks` consecutive hot samples (or `relax_ticks` cool ones), and
// a fresh decision is pinned against de-escalation for `grant_hold_ticks`,
// so oscillating input cannot flap the actuators.
//
// decide() is pure (sample in, decision out; only controller-internal state
// advances) and every gauge it consumes is domain-local, so per-domain
// governors in sharded runs make bitwise-identical decisions at any shard
// count.
#pragma once

#include <cstdint>

#include "common/units.h"

namespace ceio {
class CeioDatapath;
}

namespace ceio::policy {

/// Governor operating mode (`policy.governor` dotted key).
enum class GovernorMode {
  kOff,       // governor not constructed; zero scheduled events
  kStatic,    // apply the static_* actuator bundle once, never adapt
  kReactive,  // pressure-driven tier ladder (IOCA-style)
};

const char* to_string(GovernorMode mode);

/// Decision tiers, in escalation order.
enum class GovernorTier { kCalm = 0, kWatch = 1, kSqueeze = 2 };

const char* to_string(GovernorTier tier);

struct PolicyConfig {
  GovernorMode governor = GovernorMode::kOff;
  /// Decision-tick cadence on the event scheduler.
  Nanos interval = micros(20);

  // -- hot-sample criteria (per-tick deltas / instantaneous gauges) --
  /// Fresh premature evictions per tick regarded as cache pressure.
  double evict_threshold = 24.0;
  /// Ring + slow backlog (packets) regarded as consumer overrun.
  double backlog_threshold = 256.0;
  /// Fresh credit-starvation steering flips per tick regarded as pressure.
  double starvation_threshold = 2.0;

  // -- stability rules --
  int escalate_ticks = 3;  // consecutive hot samples before escalating
  int relax_ticks = 8;     // consecutive cool samples before relaxing
  /// Ticks a fresh tier change is pinned against de-escalation.
  std::int64_t grant_hold_ticks = 25;

  // -- tier actuator bundles --
  double watch_credit_scale = 0.85;
  double squeeze_credit_scale = 0.70;
  /// Squeeze: exile CPU-bypass flows (bulk DMA) to the slow path so the
  /// DDIO ways serve the latency-critical involved flows.
  bool squeeze_bypass_slow = true;
  /// Squeeze: shrink the slow-path landing windows to this fraction.
  double squeeze_landed_scale = 0.5;

  // -- static mode bundle --
  double static_credit_scale = 1.0;
  bool static_bypass_slow = false;
};

/// Domain-local gauge snapshot one governor tick consumes. Counters marked
/// cumulative are differentiated internally (deltas clamped at zero, so a
/// measurement reset between ticks reads as one quiet sample, not garbage).
struct GovernorSample {
  std::int64_t premature_evictions = 0;  // cumulative
  std::int64_t ring_backlog = 0;         // instantaneous, packets
  std::int64_t slow_backlog = 0;         // instantaneous, packets
  std::int64_t credit_starvations = 0;   // cumulative
};

/// One tick's actuator bundle. `changed` marks ticks where the tier moved
/// (the caller re-applies and traces only then).
struct GovernorDecision {
  bool changed = false;
  GovernorTier tier = GovernorTier::kCalm;
  double credit_scale = 1.0;
  /// Exile CPU-bypass flows to the slow path (false: the controller steers).
  bool bypass_slow = false;
  double landed_cap_scale = 1.0;
};

class DatapathGovernor {
 public:
  explicit DatapathGovernor(const PolicyConfig& config);

  /// One decision tick. Pure with respect to the simulation.
  GovernorDecision decide(const GovernorSample& sample);

  GovernorTier tier() const { return tier_; }
  const GovernorDecision& last_decision() const { return last_; }
  /// Number of ticks whose decision differed from the previous one.
  std::int64_t decision_changes() const { return changes_; }
  std::int64_t tick_count() const { return tick_count_; }
  const PolicyConfig& config() const { return config_; }

 private:
  GovernorDecision bundle_for(GovernorTier tier) const;

  PolicyConfig config_;
  GovernorTier tier_ = GovernorTier::kCalm;
  std::int64_t tick_count_ = 0;
  /// Tick index until which the latest tier change is pinned against
  /// de-escalation.
  std::int64_t hold_until_ = 0;
  std::int64_t last_evictions_ = 0;
  std::int64_t last_starvations_ = 0;
  int hot_streak_ = 0;
  int cool_streak_ = 0;
  bool first_tick_ = true;
  GovernorDecision last_;
  std::int64_t changes_ = 0;
};

/// Pushes a decision into CEIO's actuators. Lives here so every raw
/// actuator call stays inside src/policy/ — the `raw-actuator` lint rule
/// keeps it that way.
void apply_decision(const GovernorDecision& decision, CeioDatapath& ceio);

}  // namespace ceio::policy
