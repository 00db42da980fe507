// Cross-system scenario tests: randomized churn chaos, DDIO-way sweeps and
// time-series sampling — the robustness layer above the per-module suites.
#include <gtest/gtest.h>

#include "apps/echo.h"
#include "apps/kv_store.h"
#include "apps/linefs.h"
#include "apps/vxlan.h"
#include "audit/model_auditor.h"
#include "iopath/testbed.h"

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
void run_churn(SystemKind system, std::uint64_t seed, bool coalesce,
               std::vector<FlowReport>* reports) {
  TestbedConfig cfg;
  cfg.system = system;
  cfg.seed = seed;
  cfg.ceio.inactive_timeout = millis(1);
  Testbed bed(cfg);
  bed.sched().set_coalescing(coalesce);
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
  run_churn(system, seed, /*coalesce=*/true, &reports);
  EXPECT_GT(aggregate_mpps(reports), 0.0);
}

// Stopped and restarted sources leave voided rollovers on the DCTCP window
// stream, and removed flows shift the CEIO poll positions: with inline
// burst drains off (one scheduler event per item) every report must still
// match bit for bit.
TEST_P(ScenarioChaos, CoalescingInvisibleUnderChurn) {
  const auto [system, seed] = GetParam();
  std::vector<FlowReport> burst;
  std::vector<FlowReport> per_item;
  run_churn(system, seed, /*coalesce=*/true, &burst);
  run_churn(system, seed, /*coalesce=*/false, &per_item);
  ASSERT_FALSE(burst.empty());
  ASSERT_EQ(burst.size(), per_item.size());
  for (std::size_t i = 0; i < burst.size(); ++i) {
    EXPECT_EQ(burst[i].id, per_item[i].id);
    EXPECT_EQ(burst[i].messages, per_item[i].messages) << "flow " << burst[i].id;
    EXPECT_EQ(burst[i].drops, per_item[i].drops) << "flow " << burst[i].id;
    EXPECT_EQ(burst[i].mpps, per_item[i].mpps) << "flow " << burst[i].id;
    EXPECT_EQ(burst[i].gbps, per_item[i].gbps) << "flow " << burst[i].id;
    EXPECT_EQ(burst[i].message_gbps, per_item[i].message_gbps) << "flow " << burst[i].id;
    EXPECT_EQ(burst[i].p50, per_item[i].p50) << "flow " << burst[i].id;
    EXPECT_EQ(burst[i].p99, per_item[i].p99) << "flow " << burst[i].id;
    EXPECT_EQ(burst[i].p999, per_item[i].p999) << "flow " << burst[i].id;
  }
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
