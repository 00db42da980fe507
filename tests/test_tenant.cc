// Multi-tenant subsystem tests: the LLC's shared-pool way partition and
// per-tenant accounting, the roster, the WayPartitionController's decision
// logic on synthetic gauge traces, and the harness-level contracts (tenant
// experiment smoke, controller-off identity at zero contention, sharded
// byte-reproducibility, the audited tenant invariants).
#include <gtest/gtest.h>

#include <stdexcept>

#include "audit/model_auditor.h"
#include "harness/experiment.h"
#include "host/cache.h"
#include "tenant/tenant_bed.h"
#include "tenant/way_partition.h"

namespace ceio {
namespace {

using harness::ExperimentSpec;
using harness::RunResult;
using tenant::PartitionPolicy;
using tenant::TenantGaugeSample;
using tenant::TenantSetConfig;
using tenant::WayControllerConfig;
using tenant::WayDecision;
using tenant::WayPartitionController;

// ---------- LLC way partition: shared pool + attribution ----------

/// One-set cache (total == ways * buffer) so eviction order is fully
/// deterministic: 4 ways, 2 of them DDIO.
LlcConfig one_set_config() {
  LlcConfig cfg;
  cfg.total_bytes = 8 * kKiB;
  cfg.ways = 4;
  cfg.ddio_ways = 2;
  cfg.buffer_bytes = 2 * kKiB;
  return cfg;
}

TEST(TenantLlc, SharedPoolIsTheUnclaimedRemainder) {
  LlcModel llc(one_set_config());
  llc.set_tenant_ways({1, 0});
  EXPECT_EQ(llc.tenant_count(), 2u);
  EXPECT_EQ(llc.shared_io_ways(), 1u);
  // Capacity = exclusive slice + shared pool; capacities overlap on the pool.
  EXPECT_EQ(llc.tenant_way_capacity(0), 2u);
  EXPECT_EQ(llc.tenant_way_capacity(1), 1u);

  LlcModel all_shared(one_set_config());
  all_shared.set_tenant_ways({0, 0});
  EXPECT_EQ(all_shared.shared_io_ways(), 2u);
  EXPECT_EQ(all_shared.tenant_way_capacity(0), 2u);
  EXPECT_EQ(all_shared.tenant_way_capacity(1), 2u);
}

TEST(TenantLlc, OversubscribedSlicesThrow) {
  LlcModel llc(one_set_config());
  EXPECT_THROW(llc.set_tenant_ways({2, 1}), std::invalid_argument);
}

TEST(TenantLlc, OccupanciesSumToGlobalAndRespectCapacity) {
  LlcModel llc(one_set_config());
  llc.set_tenant_ways({1, 1});
  llc.add_tenant_range(100, 200, 0);
  llc.add_tenant_range(200, 300, 1);
  llc.ddio_write(100, Bytes{2 * kKiB});
  llc.ddio_write(200, Bytes{2 * kKiB});
  EXPECT_EQ(llc.tenant_ddio_occupancy(0), 1u);
  EXPECT_EQ(llc.tenant_ddio_occupancy(1), 1u);
  EXPECT_EQ(llc.tenant_ddio_occupancy(0) + llc.tenant_ddio_occupancy(1),
            llc.ddio_occupancy());
  EXPECT_LE(llc.tenant_ddio_occupancy(0), llc.tenant_way_capacity(0));
}

TEST(TenantLlc, ExclusiveSliceShieldsNeighborChurn) {
  // Tenant 0 owns 1 exclusive way and parks an unread line there; tenant 1
  // (also 1 exclusive way, no shared pool) churns — tenant 0's line must
  // survive arbitrarily many neighbor fills.
  LlcModel llc(one_set_config());
  llc.set_tenant_ways({1, 1});
  llc.add_tenant_range(100, 200, 0);
  llc.add_tenant_range(200, 300, 1);
  llc.ddio_write(100, Bytes{2 * kKiB});
  for (BufferId id = 200; id < 240; ++id) llc.ddio_write(id, Bytes{2 * kKiB});
  EXPECT_TRUE(llc.resident(100));
  EXPECT_EQ(llc.tenant_stats(0).premature_evictions, 0);
  EXPECT_GT(llc.tenant_stats(1).evictions, 0);
}

TEST(TenantLlc, SharedPoolEvictionIsChargedToTheVictim) {
  // Nobody claims a slice: both tenants allocate from the 2-way shared pool.
  // Tenant 1's churn evicts tenant 0's unread line, and the premature
  // eviction lands on tenant 0's gauge (the contention signal the reactive
  // controller keys on).
  LlcModel llc(one_set_config());
  llc.set_tenant_ways({0, 0});
  llc.add_tenant_range(100, 200, 0);
  llc.add_tenant_range(200, 300, 1);
  llc.ddio_write(100, Bytes{2 * kKiB});
  llc.ddio_write(200, Bytes{2 * kKiB});
  llc.ddio_write(201, Bytes{2 * kKiB});  // pool is 2-way: evicts LRU = id 100
  EXPECT_FALSE(llc.resident(100));
  EXPECT_EQ(llc.tenant_stats(0).premature_evictions, 1);
  EXPECT_EQ(llc.tenant_stats(1).premature_evictions, 0);
  EXPECT_EQ(llc.tenant_ddio_occupancy(0), 0u);
  EXPECT_EQ(llc.tenant_ddio_occupancy(1), 2u);
}

TEST(TenantLlc, ZeroWaysAndEmptyPoolBypassesUncached) {
  LlcModel llc(one_set_config());
  llc.set_tenant_ways({2, 0});  // tenant 1: no slice, no shared pool
  llc.add_tenant_range(100, 200, 0);
  llc.add_tenant_range(200, 300, 1);
  const auto ev = llc.ddio_write(200, Bytes{2 * kKiB});
  EXPECT_FALSE(ev.happened);
  EXPECT_FALSE(llc.resident(200));
  EXPECT_EQ(llc.tenant_stats(1).budget_bypasses, 1);
}

TEST(TenantLlc, RemaskingTransfersResidentLinesWithTheirWays) {
  // Growing tenant 0's slice from 1 to 2 ways absorbs the way the shared
  // pool held — together with whatever line was resident in it.
  LlcModel llc(one_set_config());
  llc.set_tenant_ways({1, 0});
  llc.add_tenant_range(100, 200, 0);
  llc.ddio_write(100, Bytes{2 * kKiB});
  llc.ddio_write(101, Bytes{2 * kKiB});  // lands in the shared way
  EXPECT_EQ(llc.tenant_ddio_occupancy(0), 2u);
  llc.set_tenant_ways({2, 0});
  EXPECT_EQ(llc.shared_io_ways(), 0u);
  EXPECT_EQ(llc.tenant_ddio_occupancy(0), 2u);
  EXPECT_TRUE(llc.resident(100));
  EXPECT_TRUE(llc.resident(101));
}

// ---------- Roster ----------

TEST(TenantRoster, AssignsContiguousFlowBlocksAndKeepsLeftoverShared) {
  TenantSetConfig set;  // lc 4 flows / bw 2 / ant 2; slices 0/1/0 of 6 ways
  const auto roster = tenant::tenant_roster(set, 6);
  ASSERT_EQ(roster.size(), 3u);
  EXPECT_EQ(roster[0].name, "lc");
  EXPECT_EQ(roster[0].first_flow, FlowId{1});
  EXPECT_EQ(roster[0].last_flow, FlowId{4});
  EXPECT_EQ(roster[1].first_flow, FlowId{5});
  EXPECT_EQ(roster[1].last_flow, FlowId{6});
  EXPECT_EQ(roster[2].last_flow, FlowId{8});
  // Configured slices pass through untouched — the 5 unclaimed ways stay in
  // the shared pool instead of being distributed.
  EXPECT_EQ(roster[0].ways + roster[1].ways + roster[2].ways, 1);
}

TEST(TenantRoster, RejectsOversubscriptionAndEmptyRoster) {
  TenantSetConfig set;
  set.lc.ddio_ways = 4;
  set.bw.ddio_ways = 2;
  set.ant.ddio_ways = 1;
  EXPECT_THROW(tenant::tenant_roster(set, 6), std::invalid_argument);
  TenantSetConfig none;
  none.lc.enabled = none.bw.enabled = none.ant.enabled = false;
  EXPECT_THROW(tenant::tenant_roster(none, 6), std::invalid_argument);
}

// ---------- WayPartitionController on synthetic gauge traces ----------

std::vector<TenantGaugeSample> gauges(std::vector<std::int64_t> prem,
                                      std::vector<double> priority = {}) {
  std::vector<TenantGaugeSample> out(prem.size());
  for (std::size_t t = 0; t < prem.size(); ++t) {
    out[t].premature_evictions = prem[t];
    out[t].priority = priority.empty() ? 1.0 : priority[t];
  }
  return out;
}

WayControllerConfig reactive_config() {
  WayControllerConfig cfg;
  cfg.policy = PartitionPolicy::kReactive;
  cfg.react_threshold = 8.0;
  return cfg;
}

TEST(WayController, StaticPolicyNeverMoves) {
  WayControllerConfig cfg;
  cfg.policy = PartitionPolicy::kStatic;
  WayPartitionController ctl(cfg, {2, 2}, 4);
  const auto d = ctl.decide(gauges({1'000, 0}));
  EXPECT_FALSE(d.changed);
  EXPECT_EQ(ctl.repartitions(), 0);
}

TEST(WayController, CarvesFromSharedPoolUnderPressure) {
  WayPartitionController ctl(reactive_config(), {0, 0}, 4);
  EXPECT_EQ(ctl.shared_ways(), 4);
  const auto d = ctl.decide(gauges({100, 0}));
  ASSERT_TRUE(d.changed);
  EXPECT_EQ(d.from, WayDecision::kSharedPool);
  EXPECT_EQ(d.to, 0u);
  EXPECT_EQ(d.ways[0], 1);
  EXPECT_EQ(ctl.shared_ways(), 3);
  EXPECT_EQ(ctl.repartitions(), 1);
}

TEST(WayController, BelowThresholdIsANoOp) {
  WayPartitionController ctl(reactive_config(), {0, 0}, 4);
  EXPECT_FALSE(ctl.decide(gauges({5, 0})).changed);  // 5 < threshold 8
  // Quiet ticks move nothing either, but every one of them is counted.
  for (int tick = 1; tick < 50; ++tick) EXPECT_FALSE(ctl.decide(gauges({5, 0})).changed);
  EXPECT_EQ(ctl.shared_ways(), 4);
  EXPECT_EQ(ctl.repartitions(), 0);
  EXPECT_EQ(ctl.tick_count(), 50);
}

TEST(WayController, PressureIsARateNotACumulativeCount) {
  // The same cumulative counter presented twice means zero fresh evictions:
  // the second tick must not move anything.
  WayPartitionController ctl(reactive_config(), {0, 0}, 4);
  EXPECT_TRUE(ctl.decide(gauges({100, 0})).changed);
  EXPECT_FALSE(ctl.decide(gauges({100, 0})).changed);
}

TEST(WayController, PriorityOutbidsRawEvictionCount) {
  // Tenant 0: 20 evictions at priority 8 (pressure 160). Tenant 1: 100
  // at priority 1. The declared latency-critical tenant wins the carve.
  WayPartitionController ctl(reactive_config(), {0, 0}, 4);
  const auto d = ctl.decide(gauges({20, 100}, {8.0, 1.0}));
  ASSERT_TRUE(d.changed);
  EXPECT_EQ(d.to, 0u);
}

TEST(WayController, PairwiseMigrationTakesFromTheIdleTenant) {
  auto cfg = reactive_config();
  cfg.min_ways = 1;
  WayPartitionController ctl(cfg, {2, 2}, 4);  // no shared pool
  const auto d = ctl.decide(gauges({100, 0}));
  ASSERT_TRUE(d.changed);
  EXPECT_EQ(d.from, 1u);
  EXPECT_EQ(d.to, 0u);
  EXPECT_EQ(d.ways[0], 3);
  EXPECT_EQ(d.ways[1], 1);
}

TEST(WayController, MinWaysFloorsTheDonor) {
  auto cfg = reactive_config();
  cfg.min_ways = 1;
  WayPartitionController ctl(cfg, {3, 1}, 4);
  EXPECT_FALSE(ctl.decide(gauges({100, 0})).changed);  // donor already at floor
}

TEST(WayController, SufferingPeerIsNotRaided) {
  // Both tenants pressured at equal priority: the donor guard
  // (donor_max_pressure) refuses to raid the quieter-but-still-suffering
  // peer, which would only swap who wins the next tick.
  WayPartitionController ctl(reactive_config(), {2, 2}, 4);
  EXPECT_FALSE(ctl.decide(gauges({100, 50})).changed);
}

TEST(WayController, WaysOnlyFlowUpThePriorityLadder) {
  // The low-priority tenant is pressured, the high-priority one idle — but
  // an antagonist must never raid the latency-critical tenant's slice.
  WayPartitionController ctl(reactive_config(), {2, 2}, 4);
  EXPECT_FALSE(ctl.decide(gauges({0, 100}, {8.0, 1.0})).changed);
  // The reverse direction moves even through the donor's grant hold.
  const auto d = ctl.decide(gauges({100, 100}, {8.0, 1.0}));
  ASSERT_TRUE(d.changed);
  EXPECT_EQ(d.from, 1u);
  EXPECT_EQ(d.to, 0u);
}

TEST(WayController, GrantHoldBlocksEqualPriorityRaids) {
  auto cfg = reactive_config();
  cfg.grant_hold_ticks = 100;
  WayPartitionController ctl(cfg, {0, 0}, 4);
  // Tenant 0 wins carves until the pool is dry.
  for (int i = 0; i < 4; ++i) {
    EXPECT_TRUE(ctl.decide(gauges({(i + 1) * 100, 0})).changed);
  }
  EXPECT_EQ(ctl.shared_ways(), 0);
  EXPECT_EQ(ctl.ways()[0], 4);
  // Tenant 1 now pressured, tenant 0 idle — but tenant 0's grants are held.
  EXPECT_FALSE(ctl.decide(gauges({400, 100})).changed);
}

TEST(WayController, RejectsBadConstructionAndSampleCounts) {
  EXPECT_THROW(WayPartitionController(reactive_config(), {3, 2}, 4),
               std::invalid_argument);
  EXPECT_THROW(WayPartitionController(reactive_config(), {}, 4),
               std::invalid_argument);
  WayPartitionController ctl(reactive_config(), {1, 1}, 4);
  EXPECT_THROW(ctl.decide(gauges({0, 0, 0})), std::invalid_argument);
}

// ---------- Harness-level contracts ----------

/// A fast multi-tenant spec: the multitenant preset's shape with short
/// windows (the 3 MiB LLC keeps churn on the contention timescale).
ExperimentSpec tenant_spec() {
  ExperimentSpec spec;
  spec.testbed.system = SystemKind::kCeio;
  spec.testbed.llc.total_bytes = 3 * kMiB;
  spec.tenant.enabled = true;
  spec.warmup = micros(200);
  spec.measure = micros(500);
  return spec;
}

TEST(TenantExperiment, ProducesPerTenantReports) {
  auto spec = tenant_spec();
  const RunResult r = harness::run_experiment(spec);
  ASSERT_EQ(r.tenants.size(), 3u);
  EXPECT_EQ(r.tenants[0].name, "lc");
  EXPECT_EQ(r.tenants[1].name, "bw");
  EXPECT_EQ(r.tenants[2].name, "ant");
  EXPECT_EQ(r.tenants[0].flows, 4);
  EXPECT_GT(r.tenants[0].mpps, 0.0);
  EXPECT_GT(r.tenants[0].ddio_capacity, 0);
  EXPECT_GT(r.tenants[0].ceio_total_credits, 0);
  EXPECT_EQ(r.way_repartitions, 0);  // controller off
  // 8 per-flow rows under the same ids the roster assigned.
  ASSERT_EQ(r.flows.size(), 8u);
}

TEST(TenantExperiment, ControllerIsInertAtZeroContention) {
  // Only the latency-critical tenant, paced and far from saturation: the
  // controller has nothing to react to, so running it must reproduce the
  // controller-off results bit for bit (its ticks read gauges but schedule
  // no state changes).
  auto spec = tenant_spec();
  spec.tenant.lc.poisson = false;
  spec.tenant.lc.offered_rate = gbps(8.0);
  spec.tenant.bw.enabled = false;
  spec.tenant.ant.enabled = false;
  const RunResult off = harness::run_experiment(spec);

  spec.controller.policy = PartitionPolicy::kReactive;
  const RunResult on = harness::run_experiment(spec);

  EXPECT_EQ(on.way_repartitions, 0);
  ASSERT_EQ(on.flows.size(), off.flows.size());
  for (std::size_t i = 0; i < on.flows.size(); ++i) {
    EXPECT_EQ(on.flows[i].mpps, off.flows[i].mpps);
    EXPECT_EQ(on.flows[i].p99, off.flows[i].p99);
    EXPECT_EQ(on.flows[i].messages, off.flows[i].messages);
  }
  ASSERT_EQ(on.tenants.size(), 1u);
  EXPECT_EQ(on.tenants[0].premature_evictions, off.tenants[0].premature_evictions);
  EXPECT_EQ(on.tenants[0].ddio_occupancy, off.tenants[0].ddio_occupancy);
}

void expect_identical(const RunResult& a, const RunResult& b) {
  ASSERT_EQ(a.flows.size(), b.flows.size());
  for (std::size_t i = 0; i < a.flows.size(); ++i) {
    EXPECT_EQ(a.flows[i].mpps, b.flows[i].mpps) << "flow " << i;
    EXPECT_EQ(a.flows[i].p50, b.flows[i].p50) << "flow " << i;
    EXPECT_EQ(a.flows[i].p99, b.flows[i].p99) << "flow " << i;
    EXPECT_EQ(a.flows[i].messages, b.flows[i].messages) << "flow " << i;
    EXPECT_EQ(a.flows[i].drops, b.flows[i].drops) << "flow " << i;
  }
  ASSERT_EQ(a.tenants.size(), b.tenants.size());
  for (std::size_t t = 0; t < a.tenants.size(); ++t) {
    EXPECT_EQ(a.tenants[t].ddio_ways, b.tenants[t].ddio_ways) << "tenant " << t;
    EXPECT_EQ(a.tenants[t].ddio_occupancy, b.tenants[t].ddio_occupancy) << "tenant " << t;
    EXPECT_EQ(a.tenants[t].premature_evictions, b.tenants[t].premature_evictions)
        << "tenant " << t;
    EXPECT_EQ(a.tenants[t].budget_bypasses, b.tenants[t].budget_bypasses) << "tenant " << t;
  }
  EXPECT_EQ(a.way_repartitions, b.way_repartitions);
  EXPECT_EQ(a.premature_evictions, b.premature_evictions);
}

TEST(TenantExperiment, ShardWorkersNeverChangeTenantResults) {
  // sim.shards is a worker-thread count: at fixed domains, shards=1 and
  // shards=4 must produce byte-identical reports — with the tenant
  // assembly and the reactive controller live in every domain.
  auto spec = tenant_spec();
  spec.controller.policy = PartitionPolicy::kReactive;
  spec.testbed.sim.domains = 4;
  spec.testbed.sim.shards = 1;
  const RunResult serial = harness::run_experiment(spec);
  spec.testbed.sim.shards = 4;
  const RunResult parallel = harness::run_experiment(spec);
  expect_identical(serial, parallel);
}

TEST(TenantExperiment, AuditBindsTenantAndPerTenantCeioInvariants) {
  // The assembly replaces the testbed's datapath, so the standard pack loses
  // its CEIO families; the assembly binds the two tenant LLC invariants and
  // each tenant's CEIO families in their place.
  auto spec = tenant_spec();
  spec.controller.policy = PartitionPolicy::kReactive;
  TestbedConfig plain = spec.testbed;
  plain.system = SystemKind::kLegacy;
  Testbed reference(plain);
  const std::size_t model_wide = reference.enable_audit().invariant_count();

  Testbed bed(spec.testbed);
  bed.enable_audit(micros(20));
  tenant::TenantAssembly assembly(bed, spec.tenant, spec.controller);
  ASSERT_NE(bed.auditor(), nullptr);
  EXPECT_EQ(bed.auditor()->invariant_count(), model_wide + 2 + 3 * assembly.roster().size());

  harness::for_each_flow(spec, [&](const FlowConfig& fc) {
    bed.add_flow(fc, assembly.app_of_flow(fc.id));
  });
  bed.run_for(spec.warmup + spec.measure);
  EXPECT_GT(bed.auditor()->sweeps(), 30);
  EXPECT_TRUE(bed.auditor()->ok()) << bed.auditor()->summary();
}

}  // namespace
}  // namespace ceio
