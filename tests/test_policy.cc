// Tests for the policy layer (src/policy/): the DatapathGovernor's tier
// ladder, hysteresis and grant hold, the PolicyHost actuators it drives on
// every datapath backend, and the governor wired into the testbed. The way
// partitioner's arbitration rules are tested in test_tenant.cc.
#include <gtest/gtest.h>

#include <cmath>

#include "apps/echo.h"
#include "apps/kv_store.h"
#include "apps/linefs.h"
#include "iopath/testbed.h"
#include "policy/governor.h"

namespace ceio {
namespace {

using policy::DatapathGovernor;
using policy::FlowPathOverride;
using policy::GovernorDecision;
using policy::GovernorMode;
using policy::GovernorSample;
using policy::GovernorTier;
using policy::PolicyConfig;

// ---- DatapathGovernor -------------------------------------------------------

PolicyConfig reactive_config() {
  PolicyConfig c;
  c.governor = GovernorMode::kReactive;
  c.escalate_ticks = 3;
  c.relax_ticks = 4;
  c.grant_hold_ticks = 6;
  return c;
}

GovernorSample hot_sample(std::int64_t cumulative_evictions) {
  GovernorSample s;
  s.premature_evictions = cumulative_evictions;
  s.ring_backlog = 1024;  // over backlog_threshold on its own
  return s;
}

GovernorSample cool_sample(std::int64_t cumulative_evictions) {
  GovernorSample s;
  s.premature_evictions = cumulative_evictions;
  return s;
}

TEST(DatapathGovernor, FirstTickIsChangedCalm) {
  DatapathGovernor gov(reactive_config());
  const GovernorDecision d = gov.decide(cool_sample(0));
  EXPECT_TRUE(d.changed);  // callers apply the baseline bundle once
  EXPECT_EQ(d.tier, GovernorTier::kCalm);
  EXPECT_EQ(d.credit_scale, 1.0);
  EXPECT_EQ(d.bypass_path, FlowPathOverride::kAuto);
}

TEST(DatapathGovernor, EscalatesAfterStreakNotBefore) {
  DatapathGovernor gov(reactive_config());
  EXPECT_EQ(gov.decide(hot_sample(0)).tier, GovernorTier::kCalm);
  EXPECT_EQ(gov.decide(hot_sample(0)).tier, GovernorTier::kCalm);
  const GovernorDecision d = gov.decide(hot_sample(0));  // 3rd hot tick
  EXPECT_TRUE(d.changed);
  EXPECT_EQ(d.tier, GovernorTier::kWatch);
  EXPECT_EQ(d.credit_scale, gov.config().watch_credit_scale);
}

TEST(DatapathGovernor, WalksLadderToSqueezeAndBack) {
  DatapathGovernor gov(reactive_config());
  for (int i = 0; i < 3; ++i) gov.decide(hot_sample(0));
  EXPECT_EQ(gov.tier(), GovernorTier::kWatch);
  // Escalation is never held back: the next hot streak steps up while the
  // watch grant's hold (6 ticks) is still running.
  for (int i = 0; i < 3; ++i) gov.decide(hot_sample(0));
  EXPECT_EQ(gov.tier(), GovernorTier::kSqueeze);
  EXPECT_EQ(gov.last_decision().bypass_path, FlowPathOverride::kForceSlow);
  EXPECT_EQ(gov.last_decision().credit_scale, gov.config().squeeze_credit_scale);
  // Cool off: the relax streak (4 ticks) is met first, but the squeeze
  // grant's hold pins the tier until its 6 ticks run out.
  int ticks_to_watch = 0;
  while (gov.tier() != GovernorTier::kWatch && ticks_to_watch < 64) {
    gov.decide(cool_sample(0));
    ++ticks_to_watch;
  }
  EXPECT_EQ(gov.tier(), GovernorTier::kWatch);
  EXPECT_EQ(ticks_to_watch, gov.config().grant_hold_ticks);
  while (gov.tier() != GovernorTier::kCalm) gov.decide(cool_sample(0));
  EXPECT_EQ(gov.last_decision().credit_scale, 1.0);
  EXPECT_EQ(gov.last_decision().bypass_path, FlowPathOverride::kAuto);
}

TEST(DatapathGovernor, OscillatingInputDoesNotFlap) {
  DatapathGovernor gov(reactive_config());
  // Alternate hot/cool every tick: neither streak ever reaches its
  // threshold, so after the first-tick baseline nothing changes.
  for (int i = 0; i < 100; ++i) {
    gov.decide((i & 1) ? hot_sample(0) : cool_sample(0));
  }
  EXPECT_EQ(gov.tier(), GovernorTier::kCalm);
  EXPECT_EQ(gov.decision_changes(), 1);  // the first-tick baseline only
}

TEST(DatapathGovernor, CumulativeCounterResetReadsQuiet) {
  PolicyConfig cfg = reactive_config();
  DatapathGovernor gov(cfg);
  GovernorSample s;
  s.premature_evictions = 1'000'000;
  gov.decide(s);
  // A measurement reset rewinds the cumulative counter; the delta clamps to
  // zero instead of going negative or spiking.
  s.premature_evictions = 0;
  const GovernorDecision d = gov.decide(s);
  EXPECT_EQ(d.tier, GovernorTier::kCalm);
  EXPECT_EQ(gov.tier(), GovernorTier::kCalm);
}

TEST(DatapathGovernor, StaticModeAppliesBundleOnce) {
  PolicyConfig cfg;
  cfg.governor = GovernorMode::kStatic;
  cfg.static_credit_scale = 0.5;
  cfg.static_bypass_slow = true;
  DatapathGovernor gov(cfg);
  const GovernorDecision first = gov.decide(hot_sample(0));
  EXPECT_TRUE(first.changed);
  EXPECT_EQ(first.credit_scale, 0.5);
  EXPECT_EQ(first.bypass_path, FlowPathOverride::kForceSlow);
  for (int i = 0; i < 20; ++i) {
    EXPECT_FALSE(gov.decide(hot_sample(1'000 * i)).changed);
  }
  EXPECT_EQ(gov.decision_changes(), 1);
}

// ---- PolicyHost actuator round-trips ---------------------------------------

TEST(PolicyHost, DefaultsAreNeutralOnEveryBackend) {
  for (const SystemKind system : {SystemKind::kLegacy, SystemKind::kHostcc,
                                  SystemKind::kShring, SystemKind::kCeio}) {
    TestbedConfig cfg;
    cfg.system = system;
    Testbed bed(cfg);
    EXPECT_EQ(bed.datapath().credit_scale(), 1.0) << to_string(system);
  }
}

TEST(PolicyHost, KindOverrideCoversLaterFlows) {
  Testbed bed(TestbedConfig{});
  CeioDatapath* ceio = bed.ceio();
  ASSERT_NE(ceio, nullptr);
  auto& echo = bed.make_echo();
  ceio->set_kind_path(FlowKind::kCpuInvolved, FlowPathOverride::kForceSlow);

  // Flows registered after a kind override inherit it (dynamic schedules add
  // flows while the governor is steering); the other kind is left alone.
  FlowConfig involved;
  involved.id = 1;
  involved.kind = FlowKind::kCpuInvolved;
  bed.add_flow(involved, echo);
  FlowConfig bypass;
  bypass.id = 2;
  bypass.kind = FlowKind::kCpuBypass;
  bed.add_flow(bypass, echo);
  EXPECT_TRUE(ceio->in_slow_mode(1));
  EXPECT_FALSE(ceio->in_slow_mode(2));
  EXPECT_EQ(ceio->runtime_stats().credit_switches_to_slow, 1);
}

TEST(PolicyHost, CeioCreditScaleComposesWithBudget) {
  TestbedConfig cfg;
  cfg.system = SystemKind::kCeio;
  Testbed bed(cfg);
  CeioDatapath* ceio = bed.ceio();
  ASSERT_NE(ceio, nullptr);
  const std::int64_t base = ceio->credits().total();
  ceio->set_credit_scale(0.5);
  EXPECT_EQ(ceio->credit_scale(), 0.5);
  EXPECT_EQ(ceio->credits().total(), std::llround(base * 0.5));
  // A budget reset (sharded arbitration path) composes with the scale...
  ceio->set_total_credits(1000);  // lint: allow-raw-actuator
  EXPECT_EQ(ceio->credits().total(), 500);
  // ...and scale 1.0 restores the base budget exactly.
  ceio->set_credit_scale(1.0);
  EXPECT_EQ(ceio->credits().total(), 1000);
}

TEST(PolicyHost, CeioLandedCapsRoundTrip) {
  TestbedConfig cfg;
  cfg.system = SystemKind::kCeio;
  Testbed bed(cfg);
  CeioDatapath* ceio = bed.ceio();
  ASSERT_NE(ceio, nullptr);
  ceio->set_landed_caps(16, 24);
  EXPECT_EQ(ceio->config().landed_cap, 16u);
  EXPECT_EQ(ceio->config().bypass_landed_cap, 24u);
}

TEST(PolicyHost, CeioForcedPathSwitchesImmediately) {
  TestbedConfig cfg;
  cfg.system = SystemKind::kCeio;
  Testbed bed(cfg);
  auto& dfs = bed.make_linefs();
  FlowConfig fc;
  fc.id = 1;
  fc.kind = FlowKind::kCpuBypass;
  fc.packet_size = 2 * kKiB;
  fc.message_pkts = 16;
  bed.add_flow(fc, dfs);

  CeioDatapath* ceio = bed.ceio();
  ASSERT_NE(ceio, nullptr);
  EXPECT_FALSE(ceio->in_slow_mode(1));
  ceio->set_kind_path(FlowKind::kCpuBypass, FlowPathOverride::kForceSlow);
  EXPECT_TRUE(ceio->in_slow_mode(1));
  EXPECT_EQ(ceio->runtime_stats().credit_switches_to_slow, 1);
  // Re-applying the same override is a no-op, not a second transition.
  ceio->set_kind_path(FlowKind::kCpuBypass, FlowPathOverride::kForceSlow);
  EXPECT_TRUE(ceio->in_slow_mode(1));
  EXPECT_EQ(ceio->runtime_stats().credit_switches_to_slow, 1);
}

// ---- Governor wired into the testbed ---------------------------------------

TEST(GovernorTestbed, OffSchedulesNothing) {
  Testbed bed(TestbedConfig{});  // policy.governor defaults to kOff
  EXPECT_EQ(bed.governor(), nullptr);
}

TEST(GovernorTestbed, ReactiveGovernorTicksAndApplies) {
  TestbedConfig cfg;
  cfg.system = SystemKind::kCeio;
  cfg.policy.governor = GovernorMode::kReactive;
  Testbed bed(cfg);
  ASSERT_NE(bed.governor(), nullptr);
  auto& kv = bed.make_kv_store();
  for (FlowId id = 1; id <= 8; ++id) {
    FlowConfig fc;
    fc.id = id;
    fc.offered_rate = gbps(25.0);
    bed.add_flow(fc, kv);
  }
  bed.run_for(millis(1));
  // 20 us cadence over 1 ms => ~50 decision ticks.
  EXPECT_GE(bed.governor()->tick_count(), 40);
  // The first-tick baseline always counts as one applied decision.
  EXPECT_GE(bed.governor()->decision_changes(), 1);
}

TEST(GovernorTestbed, StaticBundleReachesActuators) {
  TestbedConfig cfg;
  cfg.system = SystemKind::kCeio;
  cfg.policy.governor = GovernorMode::kStatic;
  cfg.policy.static_credit_scale = 0.5;
  Testbed bed(cfg);
  bed.run_for(micros(50));  // past the first 20 us governor tick
  EXPECT_EQ(bed.ceio()->credit_scale(), 0.5);
}

}  // namespace
}  // namespace ceio
