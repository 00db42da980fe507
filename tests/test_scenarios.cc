// Cross-system scenario tests: randomized churn chaos, DDIO-way sweeps and
// time-series sampling — the robustness layer above the per-module suites.
#include <gtest/gtest.h>

#include "apps/echo.h"
#include "apps/kv_store.h"
#include "apps/linefs.h"
#include "apps/vxlan.h"
#include "audit/model_auditor.h"
#include "iopath/testbed.h"
#include "report_digest.h"

namespace ceio {
namespace {

FlowConfig involved(FlowId id, double rate_gbps = 20.0) {
  FlowConfig fc;
  fc.id = id;
  fc.kind = FlowKind::kCpuInvolved;
  fc.packet_size = Bytes{512};
  fc.offered_rate = gbps(rate_gbps);
  return fc;
}

FlowConfig bypass(FlowId id, double rate_gbps = 20.0) {
  FlowConfig fc;
  fc.id = id;
  fc.kind = FlowKind::kCpuBypass;
  fc.packet_size = 2 * kKiB;
  fc.message_pkts = 256;
  fc.offered_rate = gbps(rate_gbps);
  return fc;
}

// Randomized add/remove/start/stop churn on `system`, then a settled
// measurement window whose per-flow reports land in `reports`. Asserts
// basic accounting (CEIO credit conservation) at every step, and that the
// invariant pack stays silent throughout.
void run_churn(SystemKind system, std::uint64_t seed, std::vector<FlowReport>* reports) {
  TestbedConfig cfg;
  cfg.system = system;
  cfg.seed = seed;
  cfg.ceio.inactive_timeout = millis(1);
  Testbed bed(cfg);
  ModelAuditor& auditor = bed.enable_audit(micros(20));
  auto& kv = bed.make_kv_store();
  auto& dfs = bed.make_linefs();
  Rng rng(seed * 7919 + 13);

  std::vector<FlowId> live;
  FlowId next_id = 1;
  for (int step = 0; step < 30; ++step) {
    const auto op = rng.uniform(0, 3);
    switch (op) {
      case 0: {  // add a flow (involved or bypass)
        const FlowId id = next_id++;
        if (rng.chance(0.7)) {
          bed.add_flow(involved(id, rng.uniform_real(5.0, 25.0)), kv);
        } else {
          bed.add_flow(bypass(id, rng.uniform_real(5.0, 25.0)), dfs);
        }
        live.push_back(id);
        break;
      }
      case 1: {  // remove a flow
        if (live.size() <= 1) break;
        const auto idx = static_cast<std::size_t>(
            rng.uniform(0, static_cast<std::int64_t>(live.size()) - 1));
        bed.remove_flow(live[idx]);
        live.erase(live.begin() + static_cast<std::ptrdiff_t>(idx));
        break;
      }
      case 2: {  // pause/resume a flow
        if (live.empty()) break;
        const FlowId id = live[static_cast<std::size_t>(
            rng.uniform(0, static_cast<std::int64_t>(live.size()) - 1))];
        if (auto* src = bed.source(id)) {
          if (src->active()) {
            src->stop();
          } else {
            src->start();
          }
        }
        break;
      }
      default:
        break;
    }
    bed.run_for(micros(static_cast<double>(rng.uniform(50, 400))));

    if (system == SystemKind::kCeio) {
      const auto& credits = bed.ceio()->credits();
      // Conservation: outstanding consumption is bounded (nothing leaks).
      const auto outstanding = credits.total() - credits.balance_sum();
      ASSERT_GE(outstanding, -512) << "step " << step;
      ASSERT_LE(outstanding, credits.total() + 4'096) << "step " << step;
    }
  }
  // Let the system settle and verify it is still moving packets.
  for (const FlowId id : live) {
    if (auto* src = bed.source(id)) {
      if (!src->active()) src->start();
    }
  }
  bed.run_for(millis(1));
  bed.reset_measurement();
  bed.run_for(millis(1));
  *reports = bed.all_reports();
  EXPECT_TRUE(auditor.ok()) << auditor.summary();
}

// Property: under randomized add/remove/start/stop churn across every
// system, the testbed keeps delivering packets and never violates basic
// accounting (non-negative counters, CEIO credit conservation).
class ScenarioChaos
    : public ::testing::TestWithParam<std::tuple<SystemKind, std::uint64_t>> {};

TEST_P(ScenarioChaos, SurvivesChurn) {
  const auto [system, seed] = GetParam();
  std::vector<FlowReport> reports;
  run_churn(system, seed, &reports);
  EXPECT_GT(aggregate_mpps(reports), 0.0);
}

// Stopped and restarted sources leave voided rollovers on the DCTCP window
// stream, and removed flows shift the CEIO poll positions: every report must
// still match, bit for bit, the one-event-per-item execution these digests
// (tests/report_digest.h) were recorded from, one per system and seed.
TEST_P(ScenarioChaos, CoalescingInvisibleUnderChurn) {
  const auto [system, seed] = GetParam();
  struct Pinned {
    SystemKind system;
    std::uint64_t seed;
    std::int64_t messages;
    std::uint64_t digest;
  };
  static constexpr Pinned kPinned[] = {
      {SystemKind::kLegacy, 1, 9763, 0x1802db5e653f31e2ull},
      {SystemKind::kLegacy, 2, 4086, 0x9c3c1bb2eb1a1ac1ull},
      {SystemKind::kLegacy, 3, 11183, 0xdc51acd2b881a340ull},
      {SystemKind::kHostcc, 1, 9762, 0x79326b3d66ce12d6ull},
      {SystemKind::kHostcc, 2, 4086, 0x9c3c1bb2eb1a1ac1ull},
      {SystemKind::kHostcc, 3, 11256, 0xd42b5cbe4f385580ull},
      {SystemKind::kShring, 1, 8684, 0x6880f04a662ff8d3ull},
      {SystemKind::kShring, 2, 4086, 0xd19f73199f47bb75ull},
      {SystemKind::kShring, 3, 13859, 0xf3da4747a42f69d7ull},
      {SystemKind::kCeio, 1, 11173, 0x4766cb0610b8b0f9ull},
      {SystemKind::kCeio, 2, 3690, 0x7e3af9719ac020b8ull},
      {SystemKind::kCeio, 3, 14829, 0x5be0a2fa0884d415ull},
  };
  std::vector<FlowReport> reports;
  run_churn(system, seed, &reports);
  ASSERT_FALSE(reports.empty());
  const Pinned* pinned = nullptr;
  for (const Pinned& p : kPinned) {
    if (p.system == system && p.seed == seed) pinned = &p;
  }
  ASSERT_NE(pinned, nullptr);
  EXPECT_EQ(total_messages(reports), pinned->messages);
  EXPECT_EQ(report_digest(reports), pinned->digest);
}

INSTANTIATE_TEST_SUITE_P(
    SystemsAndSeeds, ScenarioChaos,
    ::testing::Combine(::testing::Values(SystemKind::kLegacy, SystemKind::kHostcc,
                                         SystemKind::kShring, SystemKind::kCeio),
                       ::testing::Values(1u, 2u, 3u)),
    [](const auto& tpi) {
      return std::string(to_string(std::get<0>(tpi.param))) + "_seed" +
             std::to_string(std::get<1>(tpi.param));
    });

// Property: CEIO's miss rate stays low for any DDIO configuration (credits
// are derived from the configured ways, Eq. 1), while the baseline's miss
// rate grows as the DDIO partition shrinks.
class DdioWaysSweep : public ::testing::TestWithParam<int> {};

TEST_P(DdioWaysSweep, CeioTracksConfiguredPartition) {
  const int ways = GetParam();
  auto run = [&](SystemKind system) {
    TestbedConfig cfg;
    cfg.system = system;
    cfg.llc.ddio_ways = ways;
    Testbed bed(cfg);
    auto& kv = bed.make_kv_store();
    for (FlowId id = 1; id <= 8; ++id) bed.add_flow(involved(id, 25.0), kv);
    bed.run_for(millis(2));
    bed.reset_measurement();
    bed.run_for(millis(3));
    return bed.llc_miss_rate();
  };
  // The controller's poll-lag overshoot is a fixed packet count, so it is
  // proportionally larger against a tiny partition: allow a looser bound at
  // 2 ways (1024 buffers) than at 4+.
  EXPECT_LT(run(SystemKind::kCeio), ways <= 2 ? 0.2 : 0.12) << "ways=" << ways;
  EXPECT_GT(run(SystemKind::kLegacy), 0.5) << "ways=" << ways;
}

INSTANTIATE_TEST_SUITE_P(Ways, DdioWaysSweep, ::testing::Values(2, 4, 6, 8));

TEST(Timeseries, SamplingTracksFlowChanges) {
  TestbedConfig cfg;
  cfg.system = SystemKind::kCeio;
  Testbed bed(cfg);
  auto& echo = bed.make_echo();
  bed.add_flow(involved(1, 10.0), echo);
  auto first = bed.run_sampling(millis(1), micros(250));
  ASSERT_EQ(first.size(), 4u);
  for (const auto& s : first) EXPECT_GT(s.involved_mpps, 0.0);
  // Double the flows: the sampled series must step up.
  bed.add_flow(involved(2, 10.0), echo);
  auto second = bed.run_sampling(millis(1), micros(250));
  EXPECT_GT(second.back().involved_mpps, first.back().involved_mpps * 1.5);
  // Timestamps are strictly increasing at the sampling interval.
  for (std::size_t i = 1; i < second.size(); ++i) {
    EXPECT_EQ(second[i].t - second[i - 1].t, micros(250));
  }
}

TEST(Timeseries, MissRatePerWindowIsIndependent) {
  TestbedConfig cfg;
  cfg.system = SystemKind::kLegacy;
  Testbed bed(cfg);
  auto& kv = bed.make_kv_store();
  for (FlowId id = 1; id <= 8; ++id) bed.add_flow(involved(id, 25.0), kv);
  auto series = bed.run_sampling(millis(3), millis(1));
  ASSERT_EQ(series.size(), 3u);
  // Once thrash sets in, every window reports it (per-window stats reset).
  EXPECT_GT(series.back().miss_rate, 0.5);
}

}  // namespace
}  // namespace ceio
