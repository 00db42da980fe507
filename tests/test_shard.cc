// Tests for the sharded simulation stack: the per-epoch channel, the
// conservative-lookahead coordinator's epoch/barrier edge cases, per-domain
// seed derivation, the headline contract — shards=1 and shards=N runs are
// bitwise identical for CEIO and ShRing alike — and the one deployment path
// (per-flow arrival streams, per-domain flow tables and per-slice credit
// budgets match a single-domain run's).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "common/rng.h"
#include "harness/experiment.h"
#include "harness/scenario_registry.h"
#include "harness/sharded_testbed.h"
#include "iopath/testbed.h"
#include "net/flow_source.h"
#include "sim/epoch_channel.h"
#include "sim/shard_coordinator.h"

namespace ceio::harness {
namespace {

// ---------- per-epoch channel ----------

TEST(EpochChannel, ItemsCrossExactlyOneEpochInPushOrder) {
  EpochChannel<int> channel;
  const auto drain = [&](std::uint64_t epoch) {
    std::vector<int> got;
    channel.drain(epoch, [&](int& v) { got.push_back(v); });
    return got;
  };
  // In epoch k the producer pushes 10k, 10k+1 and 10k+2. The consumer's
  // epoch-k drain runs between the second and third push (a drain may
  // overlap the producer's run) and must see exactly epoch k-1's items.
  for (std::uint64_t k = 1; k <= 4; ++k) {
    const int base = 10 * static_cast<int>(k);
    channel.push(k, base);
    channel.push(k, base + 1);
    const std::vector<int> previous =
        k == 1 ? std::vector<int>{} : std::vector<int>{base - 10, base - 9, base - 8};
    EXPECT_EQ(drain(k), previous) << "epoch " << k;
    channel.push(k, base + 2);
  }
  EXPECT_EQ(drain(5), (std::vector<int>{40, 41, 42}));
  EXPECT_TRUE(drain(6).empty());
}

// ---------- coordinator edge cases ----------

class CountingDomain : public ShardDomain {
 public:
  void drain_phase(Nanos) override { ++drains; }
  void run_phase(Nanos stop, bool at_epoch_end) override {
    ++runs;
    last_stop = stop;
    if (at_epoch_end) ++flushes;
  }
  int drains = 0;
  int runs = 0;
  int flushes = 0;
  Nanos last_stop{0};
};

TEST(ShardCoordinator, RejectsZeroAndNegativeLookahead) {
  CountingDomain d;
  std::vector<ShardDomain*> domains{&d};
  EXPECT_THROW(ShardCoordinator(domains, Nanos{0}, 1), std::invalid_argument);
  EXPECT_THROW(ShardCoordinator(domains, Nanos{-5}, 1), std::invalid_argument);
  EXPECT_THROW(ShardCoordinator({}, Nanos{100}, 1), std::invalid_argument);
}

TEST(ShardCoordinator, EveryDomainRunsEveryEpochEvenWhenIdle) {
  // Domains with no events of their own still get drain+run each epoch —
  // an "empty" domain must keep pace or its inboxes would stall the merge.
  CountingDomain a, b, c;
  std::vector<ShardDomain*> domains{&a, &b, &c};
  ShardCoordinator coord(domains, Nanos{100}, 2);
  coord.run_until(Nanos{1000});
  EXPECT_EQ(coord.epochs_completed(), 10u);
  for (const auto* d : {&a, &b, &c}) {
    EXPECT_EQ(d->drains, 10);
    EXPECT_EQ(d->runs, 10);
    EXPECT_EQ(d->flushes, 10);
    EXPECT_EQ(d->last_stop, Nanos{1000});
  }
}

TEST(ShardCoordinator, MidEpochStopSplitsRunWithoutReDraining) {
  CountingDomain d;
  std::vector<ShardDomain*> domains{&d};
  ShardCoordinator coord(domains, Nanos{100}, 1);
  coord.run_until(Nanos{150});  // epoch 0 full + half of epoch 1
  EXPECT_EQ(d.drains, 2);
  EXPECT_EQ(d.runs, 2);
  EXPECT_EQ(d.flushes, 1);  // epoch 1 not closed yet
  EXPECT_EQ(coord.now(), Nanos{150});
  coord.run_until(Nanos{200});  // finish epoch 1: run only, no second drain
  EXPECT_EQ(d.drains, 2);
  EXPECT_EQ(d.runs, 3);
  EXPECT_EQ(d.flushes, 2);
  EXPECT_EQ(coord.epochs_completed(), 2u);
}

TEST(ShardCoordinator, ClampsShardsToDomainCount) {
  CountingDomain a, b;
  std::vector<ShardDomain*> domains{&a, &b};
  ShardCoordinator coord(domains, Nanos{10}, 64);
  EXPECT_EQ(coord.shards(), 2);
  coord.run_until(Nanos{10});
  EXPECT_EQ(a.runs, 1);
  EXPECT_EQ(b.runs, 1);
}

// ---------- per-domain seeds ----------

TEST(DeriveSeed, DomainStreamsAreIndependent) {
  const std::uint64_t base = 1;
  std::vector<std::uint64_t> seeds;
  for (std::uint64_t d = 0; d < 8; ++d) seeds.push_back(derive_seed(base, d));
  for (std::size_t i = 0; i < seeds.size(); ++i) {
    EXPECT_NE(seeds[i], base);
    for (std::size_t j = i + 1; j < seeds.size(); ++j) EXPECT_NE(seeds[i], seeds[j]);
  }
  // The first draws of sibling streams diverge immediately.
  Rng r0(seeds[0]), r1(seeds[1]);
  EXPECT_NE(r0.next_u64(), r1.next_u64());
}

// ---------- sharded experiment determinism ----------

ExperimentSpec sharded_spec(SystemKind system, const std::string& app, int domains) {
  ExperimentSpec spec;
  spec.testbed.system = system;
  spec.testbed.sim.domains = domains;
  spec.workload.app = app;
  spec.workload.flows = 13;  // not a multiple of the domain count
  spec.warmup = micros(150);  // deliberately not an epoch multiple
  spec.measure = micros(400);
  return spec;
}

void expect_identical(const RunResult& a, const RunResult& b) {
  ASSERT_EQ(a.flows.size(), b.flows.size());
  for (std::size_t i = 0; i < a.flows.size(); ++i) {
    const FlowReport& x = a.flows[i];
    const FlowReport& y = b.flows[i];
    EXPECT_EQ(x.id, y.id);
    EXPECT_EQ(x.mpps, y.mpps) << "flow " << x.id;
    EXPECT_EQ(x.gbps, y.gbps) << "flow " << x.id;
    EXPECT_EQ(x.message_gbps, y.message_gbps) << "flow " << x.id;
    EXPECT_EQ(x.p50, y.p50) << "flow " << x.id;
    EXPECT_EQ(x.p99, y.p99) << "flow " << x.id;
    EXPECT_EQ(x.p999, y.p999) << "flow " << x.id;
    EXPECT_EQ(x.messages, y.messages) << "flow " << x.id;
    EXPECT_EQ(x.drops, y.drops) << "flow " << x.id;
  }
  EXPECT_EQ(a.aggregate_mpps, b.aggregate_mpps);
  EXPECT_EQ(a.aggregate_gbps, b.aggregate_gbps);
  EXPECT_EQ(a.aggregate_message_gbps, b.aggregate_message_gbps);
  EXPECT_EQ(a.llc_miss_rate, b.llc_miss_rate);
  EXPECT_EQ(a.premature_evictions, b.premature_evictions);
  EXPECT_EQ(a.dram_utilization, b.dram_utilization);
  EXPECT_EQ(a.ceio_total_credits, b.ceio_total_credits);
  EXPECT_EQ(a.ceio_to_slow, b.ceio_to_slow);
  EXPECT_EQ(a.ceio_to_fast, b.ceio_to_fast);
  EXPECT_EQ(a.ceio_cca_triggers, b.ceio_cca_triggers);
  EXPECT_EQ(a.ceio_reclaims, b.ceio_reclaims);
}

TEST(ShardedExperiment, CeioBitwiseIdenticalAcrossShardCounts) {
  ExperimentSpec spec = sharded_spec(SystemKind::kCeio, "echo", 8);
  spec.testbed.sim.shards = 1;
  const RunResult one = run_experiment(spec);
  spec.testbed.sim.shards = 8;
  const RunResult eight = run_experiment(spec);
  expect_identical(one, eight);
  EXPECT_GT(one.aggregate_mpps, 0.0);
  EXPECT_TRUE(one.has_ceio);
}

TEST(ShardedExperiment, ShringBitwiseIdenticalAcrossShardCounts) {
  ExperimentSpec spec = sharded_spec(SystemKind::kShring, "kv", 8);
  spec.testbed.sim.shards = 1;
  const RunResult one = run_experiment(spec);
  spec.testbed.sim.shards = 8;
  const RunResult eight = run_experiment(spec);
  expect_identical(one, eight);
  EXPECT_GT(one.aggregate_mpps, 0.0);
  EXPECT_FALSE(one.has_ceio);
}

TEST(ShardedExperiment, FewerFlowsThanDomainsLeavesEmptyDomains) {
  // Domains 3..7 host no flows at all; their epochs are pure barrier
  // traffic and the run must still complete and deliver.
  ExperimentSpec spec = sharded_spec(SystemKind::kCeio, "echo", 8);
  spec.workload.flows = 2;
  spec.testbed.sim.shards = 4;
  const RunResult r = run_experiment(spec);
  ASSERT_EQ(r.flows.size(), 2u);
  EXPECT_GT(r.flows[0].mpps, 0.0);
  EXPECT_GT(r.flows[1].mpps, 0.0);
}

TEST(ShardedExperiment, PartialBurstsCrossEpochBoundaries) {
  // One low-rate flow: bursts never fill PacketBurst::kCapacity, so every
  // packet crosses domains via the epoch-end partial flush. If the flush
  // were missing, nothing would ever arrive.
  ExperimentSpec spec = sharded_spec(SystemKind::kCeio, "echo", 2);
  spec.workload.flows = 1;
  spec.workload.offered_rate = gbps(0.5);
  ShardedTestbed bed(spec);
  bed.run_until(spec.warmup);
  bed.reset_measurement();
  bed.run_until(spec.warmup + spec.measure);
  const RunResult r = bed.collect();
  ASSERT_EQ(r.flows.size(), 1u);
  EXPECT_GT(r.flows[0].mpps, 0.0);
  EXPECT_GT(bed.epochs_completed(), 0u);
}

TEST(ShardedExperiment, RequiresAtLeastTwoDomains) {
  ExperimentSpec spec = sharded_spec(SystemKind::kCeio, "echo", 2);
  spec.testbed.sim.domains = 1;
  EXPECT_THROW(ShardedTestbed bed(spec), std::invalid_argument);
}

TEST(ShardedExperiment, DomainCountIsAScenarioParameter) {
  // Changing sim.domains repartitions the deployment (different ports, RNG
  // streams): results are expected to differ — this guards against anyone
  // "optimising" domains into a transparent knob and breaking the
  // shards-vs-domains contract documented in sharded_testbed.h. A congested
  // KV run is sensitive to the per-domain RNG streams; an uncongested one
  // would deliver the identical offered rate under any partitioning.
  ExperimentSpec spec = sharded_spec(SystemKind::kShring, "kv", 4);
  const RunResult four = run_experiment(spec);
  spec.testbed.sim.domains = 8;
  const RunResult eight = run_experiment(spec);
  EXPECT_NE(four.aggregate_mpps, eight.aggregate_mpps);
}

// ---------- one deployment path ----------

TEST(ShardedPlacement, PoissonArrivalsDoNotDependOnDomainCount) {
  // A flow's arrival stream is keyed on (run seed, flow id) wherever its
  // sender half lives, so uncongested Poisson flows send the same packets at
  // any domain count.
  ExperimentSpec spec;
  spec.workload.app = "echo";
  spec.workload.flows = 8;
  spec.workload.offered_rate = gbps(1.0);
  spec.workload.poisson = true;
  const Nanos window = micros(200);

  Testbed single(spec.testbed);
  Application* app = make_app(single, spec.workload.app);
  std::vector<std::int64_t> sent;
  for (FlowId id = 1; id <= 8; ++id) single.add_flow(flow_config(id, spec.workload), *app);
  single.run_until(window);
  for (FlowId id = 1; id <= 8; ++id) sent.push_back(single.source(id)->stats().packets_sent);
  // Per-flow streams: the flows do not all draw the same gaps.
  EXPECT_NE(std::count(sent.begin(), sent.end(), sent.front()), 8);

  for (const int domains : {2, 4}) {
    spec.testbed.sim.domains = domains;
    ShardedTestbed sharded(spec);
    sharded.run_until(window);
    for (FlowId id = 1; id <= 8; ++id) {
      EXPECT_EQ(sharded.source(id)->stats().packets_sent, sent[id - 1])
          << "flow " << id << " at " << domains << " domains";
    }
  }
}

TEST(ShardedPlacement, EachDomainTestbedSeesExactlyItsFlows) {
  // Receiver halves register through the domain's own Testbed, so its flow
  // table — and with it the governor's gauges and the audit invariants —
  // holds exactly the flows f with (f-1) mod P == d.
  ExperimentSpec tenants = ScenarioRegistry::instance().find("multitenant-short")->spec;
  tenants.testbed.sim.domains = 3;
  for (const ExperimentSpec& spec : {sharded_spec(SystemKind::kCeio, "echo", 4), tenants}) {
    ShardedTestbed bed(spec);
    const auto P = static_cast<FlowId>(bed.domains());
    for (int d = 0; d < bed.domains(); ++d) {
      std::vector<FlowId> expected;
      for (FlowId f = 1; bed.source(f) != nullptr; ++f) {
        if ((f - 1) % P == static_cast<FlowId>(d)) expected.push_back(f);
      }
      EXPECT_FALSE(expected.empty());
      EXPECT_EQ(bed.bed(d).flow_ids(), expected) << "domain " << d;
      for (const FlowId f : expected) EXPECT_NE(bed.bed(d).core(f), nullptr) << "flow " << f;
    }
  }
}

TEST(ShardedPlacement, EachSliceKeepsItsOwnCredits) {
  // Every slice owns its LLC, so every CEIO slice keeps the Eq.-1 C_total its
  // own DDIO ways give it — also when most slices host no flow at all, and
  // long after the first few 100 us.
  ExperimentSpec spec = sharded_spec(SystemKind::kCeio, "kv", 4);
  spec.workload.flows = 2;
  spec.testbed.llc.ddio_ways = 1;
  ShardedTestbed sharded(spec);
  sharded.run_until(micros(550));

  Testbed single(spec.testbed);
  ASSERT_NE(single.ceio(), nullptr);
  const std::int64_t own = single.ceio()->credits().total();
  for (int d = 0; d < sharded.domains(); ++d) {
    ASSERT_NE(sharded.bed(d).ceio(), nullptr);
    EXPECT_EQ(sharded.bed(d).ceio()->credits().total(), own) << "domain " << d;
  }
}

}  // namespace
}  // namespace ceio::harness
