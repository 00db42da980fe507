// Tests for the policy layer (src/policy/): the DatapathGovernor's tier
// ladder, hysteresis and grant hold, the CEIO actuators it drives, and the
// governor wired into the testbed (which refuses it on any other system).
// The way partitioner's arbitration rules are tested in test_tenant.cc.
#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

#include "apps/echo.h"
#include "apps/kv_store.h"
#include "apps/linefs.h"
#include "iopath/testbed.h"
#include "policy/governor.h"

namespace ceio {
namespace {

using policy::DatapathGovernor;
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
  EXPECT_FALSE(d.bypass_slow);
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
  EXPECT_TRUE(gov.last_decision().bypass_slow);
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
  EXPECT_FALSE(gov.last_decision().bypass_slow);
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
  EXPECT_TRUE(first.bypass_slow);
  for (int i = 0; i < 20; ++i) {
    EXPECT_FALSE(gov.decide(hot_sample(1'000 * i)).changed);
  }
  EXPECT_EQ(gov.decision_changes(), 1);
}

// ---- CEIO actuator round-trips ---------------------------------------------

TEST(CeioActuators, BypassExileCoversLaterFlows) {
  Testbed bed(TestbedConfig{});
  CeioDatapath* ceio = bed.ceio();
  ASSERT_NE(ceio, nullptr);
  ceio->set_bypass_slow(true);

  // Flows registered under the exile inherit it (dynamic schedules add flows
  // while the governor is steering); CPU-involved flows are left alone.
  FlowConfig involved;
  involved.id = 1;
  involved.kind = FlowKind::kCpuInvolved;
  bed.add_flow(involved, bed.make_echo());
  FlowConfig bypass;
  bypass.id = 2;
  bypass.kind = FlowKind::kCpuBypass;
  bed.add_flow(bypass, bed.make_linefs());
  EXPECT_FALSE(ceio->in_slow_mode(1));
  EXPECT_TRUE(ceio->in_slow_mode(2));
  EXPECT_EQ(ceio->runtime_stats().credit_switches_to_slow, 1);
}

TEST(CeioActuators, CreditScaleComposesWithBudget) {
  TestbedConfig cfg;
  cfg.system = SystemKind::kCeio;
  Testbed bed(cfg);
  CeioDatapath* ceio = bed.ceio();
  ASSERT_NE(ceio, nullptr);
  const std::int64_t base = ceio->credits().total();
  ceio->set_credit_scale(0.5);
  EXPECT_EQ(ceio->credit_scale(), 0.5);
  EXPECT_EQ(ceio->credits().total(), std::llround(base * 0.5));
  // A budget reset (the tenant way partitioner's path) composes with the
  // scale...
  ceio->set_total_credits(1000);  // lint: allow-raw-actuator
  EXPECT_EQ(ceio->credits().total(), 500);
  // ...and scale 1.0 restores the base budget exactly.
  ceio->set_credit_scale(1.0);
  EXPECT_EQ(ceio->credits().total(), 1000);
}

TEST(CeioActuators, LandedScaleRoundTrip) {
  TestbedConfig cfg;
  cfg.system = SystemKind::kCeio;
  cfg.ceio_auto_credits = false;
  cfg.ceio.landed_cap = 101;
  Testbed bed(cfg);
  CeioDatapath* ceio = bed.ceio();
  ASSERT_NE(ceio, nullptr);
  // Scales apply to the configured caps, never to the last scaled value.
  ceio->set_landed_scale(0.5);
  EXPECT_EQ(ceio->config().landed_cap, 51u);  // llround(50.5)
  ceio->set_landed_scale(0.5);
  EXPECT_EQ(ceio->config().landed_cap, 51u);
  ceio->set_landed_scale(0.01);
  EXPECT_EQ(ceio->config().landed_cap, 8u);  // the floor
  // Scale 1.0 restores the configured caps exactly.
  ceio->set_landed_scale(1.0);
  EXPECT_EQ(ceio->config().landed_cap, 101u);
}

TEST(CeioActuators, BypassExileSwitchesImmediately) {
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
  ceio->set_bypass_slow(true);
  EXPECT_TRUE(ceio->in_slow_mode(1));
  EXPECT_EQ(ceio->runtime_stats().credit_switches_to_slow, 1);
  // Re-applying the exile is a no-op, not a second transition.
  ceio->set_bypass_slow(true);
  EXPECT_TRUE(ceio->in_slow_mode(1));
  EXPECT_EQ(ceio->runtime_stats().credit_switches_to_slow, 1);
  // Lifting it hands the flow back to the controller poll, which readmits
  // it to the fast path once its balance recovers.
  ceio->set_bypass_slow(false);
  EXPECT_TRUE(ceio->in_slow_mode(1));
  bed.run_for(micros(10));
  EXPECT_FALSE(ceio->in_slow_mode(1));
  EXPECT_EQ(ceio->runtime_stats().switches_back_to_fast, 1);
}

// ---- Governor wired into the testbed ---------------------------------------

TEST(GovernorTestbed, OffSchedulesNothing) {
  Testbed bed(TestbedConfig{});  // policy.governor defaults to kOff
  EXPECT_EQ(bed.governor(), nullptr);
}

TEST(GovernorTestbed, RefusesSystemsWithoutCeio) {
  for (const SystemKind system :
       {SystemKind::kLegacy, SystemKind::kHostcc, SystemKind::kShring}) {
    for (const GovernorMode mode : {GovernorMode::kStatic, GovernorMode::kReactive}) {
      TestbedConfig cfg;
      cfg.system = system;
      cfg.policy.governor = mode;
      EXPECT_THROW(Testbed{cfg}, std::invalid_argument) << to_string(system);
    }
    TestbedConfig off;
    off.system = system;
    EXPECT_NO_THROW(Testbed{off}) << to_string(system);
  }
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
