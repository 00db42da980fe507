// Tests for the experiment harness (src/harness/): canonical flow/workload
// wiring, ExperimentSpec reflection, the scenario registry, per-run seed
// derivation, and the sweep expansion + thread-pool determinism contract
// (rows byte-identical at every --jobs level).
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "common/rng.h"
#include "config/config_ops.h"
#include "harness/experiment.h"
#include "harness/scenario_registry.h"
#include "harness/sweep.h"

namespace ceio::harness {
namespace {

// A spec small enough that a sweep of a few runs stays fast in tests.
ExperimentSpec tiny_spec() {
  ExperimentSpec spec;
  spec.testbed.system = SystemKind::kCeio;
  spec.workload.flows = 2;
  spec.warmup = micros(100);
  spec.measure = micros(300);
  return spec;
}

// ---------- workload -> flow wiring ----------

TEST(FlowConfigFromWorkload, InvolvedDefaults) {
  WorkloadSpec w;  // kv
  const FlowConfig fc = flow_config(7, w);
  EXPECT_EQ(fc.id, 7u);
  EXPECT_EQ(fc.kind, FlowKind::kCpuInvolved);
  EXPECT_EQ(fc.packet_size, Bytes{512});
  EXPECT_EQ(fc.message_pkts, 1u);
  EXPECT_EQ(fc.offered_rate, gbps(25.0));
}

TEST(FlowConfigFromWorkload, BypassClampsPacketAndDerivesMessage) {
  WorkloadSpec w;
  w.app = "linefs";
  w.packet_size = Bytes{512};  // below the 2 KiB bypass minimum
  w.chunk_kb = 1024;
  const FlowConfig fc = flow_config(1, w);
  EXPECT_EQ(fc.kind, FlowKind::kCpuBypass);
  EXPECT_EQ(fc.packet_size, 2 * kKiB);
  EXPECT_EQ(fc.message_pkts, 512u);  // 1 MiB chunk / 2 KiB packets
}

TEST(Apps, KnownAndBypassClassification) {
  EXPECT_TRUE(is_known_app("kv"));
  EXPECT_TRUE(is_known_app("rdma"));
  EXPECT_FALSE(is_known_app("memcached"));
  EXPECT_TRUE(is_bypass_app("linefs"));
  EXPECT_FALSE(is_bypass_app("echo"));
}

// ---------- run_experiment ----------

TEST(RunExperiment, RejectsUnknownAppAndInvalidSpec) {
  ExperimentSpec spec = tiny_spec();
  spec.workload.app = "memcached";
  EXPECT_THROW(run_experiment(spec), std::invalid_argument);

  ExperimentSpec bad = tiny_spec();
  bad.measure = Nanos{0};  // below the reflected range
  EXPECT_THROW(run_experiment(bad), std::invalid_argument);
}

TEST(RunExperiment, ProducesOneReportPerFlow) {
  const RunResult run = run_experiment(tiny_spec());
  EXPECT_EQ(run.flows.size(), 2u);
  EXPECT_TRUE(run.has_ceio);
  EXPECT_GT(run.aggregate_mpps, 0.0);
}

TEST(Aggregates, KindFilteredSumsMatchManualSum) {
  const RunResult run = run_experiment(tiny_spec());
  double sum = 0.0;
  for (const auto& r : run.flows) sum += r.mpps;
  EXPECT_DOUBLE_EQ(aggregate_mpps(run.flows), sum);
  EXPECT_DOUBLE_EQ(aggregate_mpps(run.flows, FlowKind::kCpuInvolved) +
                       aggregate_mpps(run.flows, FlowKind::kCpuBypass),
                   sum);
}

// ---------- ExperimentSpec reflection ----------

TEST(ExperimentSpecReflection, TestbedKeysAreInlinedAtTopLevel) {
  ExperimentSpec spec;
  std::string err;
  ASSERT_TRUE(config::set(spec, "llc.ddio_ways", "4", &err)) << err;
  EXPECT_EQ(spec.testbed.llc.ddio_ways, 4);
  ASSERT_TRUE(config::set(spec, "workload.flows", "16", &err)) << err;
  EXPECT_EQ(spec.workload.flows, 16);
  ASSERT_TRUE(config::set(spec, "measure", "3ms", &err)) << err;
  EXPECT_EQ(spec.measure, millis(3));
  EXPECT_FALSE(config::set(spec, "testbed.llc.ddio_ways", "4", &err));
}

// ---------- seed derivation ----------

TEST(DeriveSeed, DeterministicAndDistinct) {
  EXPECT_EQ(derive_seed(1, 0), derive_seed(1, 0));
  EXPECT_NE(derive_seed(1, 0), derive_seed(1, 1));
  EXPECT_NE(derive_seed(1, 0), derive_seed(2, 0));
  EXPECT_NE(derive_seed(1, 0), std::uint64_t{1});  // not the base itself
}

// ---------- scenario registry ----------

TEST(ScenarioRegistry, PaperScenariosAreRegisteredAndValid) {
  auto& reg = ScenarioRegistry::instance();
  ASSERT_NE(reg.find("fig04-reference"), nullptr);
  ASSERT_NE(reg.find("fig09-erpc-kv"), nullptr);
  ASSERT_NE(reg.find("ceio-kv-short"), nullptr);
  EXPECT_EQ(reg.find("nonexistent"), nullptr);

  const auto all = reg.all();
  EXPECT_GE(all.size(), 6u);
  for (std::size_t i = 1; i < all.size(); ++i) {
    EXPECT_LT(all[i - 1]->name, all[i]->name);  // sorted by name
  }
  for (const auto* scenario : all) {
    std::vector<std::string> errors;
    EXPECT_TRUE(config::validate(scenario->spec, &errors))
        << scenario->name << ": " << (errors.empty() ? "" : errors.front());
    EXPECT_TRUE(is_known_app(scenario->spec.workload.app)) << scenario->name;
    EXPECT_FALSE(scenario->description.empty()) << scenario->name;
  }
}

// ---------- sweep expansion ----------

TEST(Sweep, ParseAxis) {
  SweepAxis axis;
  std::string err;
  ASSERT_TRUE(parse_axis("llc.ddio_ways=2,4,6", &axis, &err)) << err;
  EXPECT_EQ(axis.key, "llc.ddio_ways");
  ASSERT_EQ(axis.values.size(), 3u);
  EXPECT_EQ(axis.values[2], "6");
  EXPECT_FALSE(parse_axis("llc.ddio_ways", &axis, &err));
  EXPECT_FALSE(parse_axis("=2,4", &axis, &err));
}

TEST(Sweep, ExpandsCartesianProductLastAxisFastest) {
  const ExperimentSpec base = tiny_spec();
  const std::vector<SweepAxis> axes = {{"llc.ddio_ways", {"2", "4"}}, {"run", {"0", "1"}}};
  std::vector<ExperimentSpec> specs;
  std::vector<std::vector<std::pair<std::string, std::string>>> coords;
  std::string err;
  ASSERT_TRUE(expand_sweep(base, axes, &specs, &coords, &err)) << err;
  ASSERT_EQ(specs.size(), 4u);
  // Order: (2,run0) (2,run1) (4,run0) (4,run1).
  EXPECT_EQ(coords[0], (std::vector<std::pair<std::string, std::string>>{
                           {"llc.ddio_ways", "2"}, {"run", "0"}}));
  EXPECT_EQ(coords[3], (std::vector<std::pair<std::string, std::string>>{
                           {"llc.ddio_ways", "4"}, {"run", "1"}}));
  EXPECT_EQ(specs[2].testbed.llc.ddio_ways, 4);
  // The run axis swaps in derived seeds; plain axes leave the seed alone.
  EXPECT_EQ(specs[0].testbed.seed, derive_seed(base.testbed.seed, 0));
  EXPECT_EQ(specs[1].testbed.seed, derive_seed(base.testbed.seed, 1));
  EXPECT_EQ(specs[0].testbed.seed, specs[2].testbed.seed);
}

TEST(Sweep, ExpandRejectsBadKeysAndValues) {
  std::vector<ExperimentSpec> specs;
  std::vector<std::vector<std::pair<std::string, std::string>>> coords;
  std::string err;
  EXPECT_FALSE(expand_sweep(tiny_spec(), {{"llc.bogus", {"1"}}}, &specs, &coords, &err));
  EXPECT_NE(err.find("llc.bogus"), std::string::npos) << err;
  EXPECT_FALSE(expand_sweep(tiny_spec(), {{"llc.ddio_ways", {"many"}}}, &specs, &coords, &err));
}

// ---------- sweep determinism across jobs ----------

TEST(Sweep, RowsAreIdenticalAtEveryJobsLevel) {
  const ExperimentSpec base = tiny_spec();
  const std::vector<SweepAxis> axes = {{"llc.ddio_ways", {"2", "4"}}, {"run", {"0", "1"}}};
  const auto serial = run_sweep(base, axes, 1);
  const auto parallel = run_sweep(base, axes, 8);
  ASSERT_EQ(serial.size(), 4u);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].index, i);
    EXPECT_EQ(serial[i].coordinates, parallel[i].coordinates);
    // Bitwise-equal metrics: same spec, own Testbed, no shared state.
    EXPECT_EQ(serial[i].result.aggregate_mpps, parallel[i].result.aggregate_mpps);
    EXPECT_EQ(serial[i].result.aggregate_gbps, parallel[i].result.aggregate_gbps);
    EXPECT_EQ(serial[i].result.llc_miss_rate, parallel[i].result.llc_miss_rate);
    ASSERT_EQ(serial[i].result.flows.size(), parallel[i].result.flows.size());
    for (std::size_t f = 0; f < serial[i].result.flows.size(); ++f) {
      EXPECT_EQ(serial[i].result.flows[f].mpps, parallel[i].result.flows[f].mpps);
      EXPECT_EQ(serial[i].result.flows[f].p99, parallel[i].result.flows[f].p99);
    }
  }
}

}  // namespace
}  // namespace ceio::harness
