// Tests for the testbed harness itself: construction, flow lifecycle,
// measurement windows and reports.
#include <gtest/gtest.h>

#include "apps/echo.h"
#include "apps/kv_store.h"
#include "apps/linefs.h"
#include "config/config_ops.h"
#include "harness/experiment.h"
#include "iopath/testbed.h"
#include "report_digest.h"

namespace ceio {
namespace {

TEST(Testbed, ConstructsEverySystem) {
  for (const SystemKind system : {SystemKind::kLegacy, SystemKind::kHostcc,
                                  SystemKind::kShring, SystemKind::kCeio}) {
    TestbedConfig cfg;
    cfg.system = system;
    Testbed bed(cfg);
    EXPECT_STREQ(to_string(system), to_string(bed.config().system));
    EXPECT_EQ(bed.ceio() != nullptr, system == SystemKind::kCeio);
    EXPECT_EQ(bed.now(), Nanos{0});
  }
}

TEST(Testbed, FlowLifecycle) {
  Testbed bed(TestbedConfig{});
  auto& echo = bed.make_echo();
  FlowConfig fc;
  fc.id = 1;
  fc.offered_rate = gbps(5.0);
  bed.add_flow(fc, echo);
  EXPECT_NE(bed.source(1), nullptr);
  EXPECT_NE(bed.core(1), nullptr);
  EXPECT_EQ(bed.flow_ids(), std::vector<FlowId>{1});
  bed.remove_flow(1);
  EXPECT_EQ(bed.source(1), nullptr);
  EXPECT_TRUE(bed.flow_ids().empty());
  bed.remove_flow(1);  // double remove is safe
}

TEST(Testbed, DelayedStartTime) {
  Testbed bed(TestbedConfig{});
  auto& echo = bed.make_echo();
  FlowConfig fc;
  fc.id = 1;
  fc.offered_rate = gbps(10.0);
  fc.start_time = millis(1);
  bed.add_flow(fc, echo);
  bed.run_for(micros(900));
  EXPECT_EQ(bed.source(1)->stats().packets_sent, 0);
  bed.run_for(millis(1));
  EXPECT_GT(bed.source(1)->stats().packets_sent, 0);
}

TEST(Testbed, MeasurementWindowIsolation) {
  Testbed bed(TestbedConfig{});
  auto& echo = bed.make_echo();
  FlowConfig fc;
  fc.id = 1;
  fc.offered_rate = gbps(10.0);
  bed.add_flow(fc, echo);
  bed.run_for(millis(2));
  bed.reset_measurement();
  EXPECT_EQ(bed.report(1).messages, 0);
  bed.run_for(millis(1));
  const auto r = bed.report(1);
  EXPECT_GT(r.messages, 0);
  EXPECT_GT(r.mpps, 0.0);
  // Roughly 10G of 512B over the window.
  EXPECT_NEAR(r.gbps, 10.0, 1.5);
}

TEST(Testbed, ReportForUnknownFlowIsEmpty) {
  Testbed bed(TestbedConfig{});
  const auto r = bed.report(999);
  EXPECT_EQ(r.mpps, 0.0);
  EXPECT_EQ(r.messages, 0);
}

TEST(Testbed, AggregatesFilterByKind) {
  Testbed bed(TestbedConfig{});
  auto& echo = bed.make_echo();
  auto& dfs = bed.make_linefs();
  FlowConfig inv;
  inv.id = 1;
  inv.offered_rate = gbps(10.0);
  bed.add_flow(inv, echo);
  FlowConfig byp;
  byp.id = 2;
  byp.kind = FlowKind::kCpuBypass;
  byp.packet_size = 2 * kKiB;
  byp.message_pkts = 32;
  byp.offered_rate = gbps(10.0);
  bed.add_flow(byp, dfs);
  bed.run_for(millis(2));
  bed.reset_measurement();
  bed.run_for(millis(2));
  const double involved = bed.aggregate_mpps(FlowKind::kCpuInvolved);
  const double bypass = bed.aggregate_mpps(FlowKind::kCpuBypass);
  const double all = bed.aggregate_mpps();
  EXPECT_GT(involved, 0.0);
  EXPECT_GT(bypass, 0.0);
  EXPECT_NEAR(all, involved + bypass, 1e-9);
  EXPECT_GT(bed.aggregate_message_gbps(FlowKind::kCpuBypass), 0.0);
}

TEST(Testbed, DeterministicForSeed) {
  auto run = [](std::uint64_t seed) {
    TestbedConfig cfg;
    cfg.seed = seed;
    Testbed bed(cfg);
    auto& kv = bed.make_kv_store();
    FlowConfig fc;
    fc.id = 1;
    fc.offered_rate = gbps(25.0);
    bed.add_flow(fc, kv);
    bed.run_for(millis(2));
    return bed.source(1)->stats().packets_delivered;
  };
  EXPECT_EQ(run(5), run(5));
}

TEST(Testbed, RunUntilAdvancesClock) {
  Testbed bed(TestbedConfig{});
  bed.run_until(millis(3));
  EXPECT_EQ(bed.now(), millis(3));
  bed.run_for(millis(1));
  EXPECT_EQ(bed.now(), millis(4));
}

// Stream items run at exactly the times one scheduler event per packet
// gave them. Each pinned digest (tests/report_digest.h) covers every field
// of every flow's report, recorded from that one-event-per-item execution:
// every latency percentile comes from the same per-message samples, every
// counter from the same delivery sequence.
TEST(Testbed, BurstCoalescingPreservesEveryTimestamp) {
  auto run = [](SystemKind system) {
    TestbedConfig cfg;
    cfg.system = system;
    cfg.seed = 11;
    Testbed bed(cfg);
    auto& kv = bed.make_kv_store();
    for (FlowId id = 1; id <= 4; ++id) {
      FlowConfig fc;
      fc.id = id;
      fc.offered_rate = gbps(25.0);
      bed.add_flow(fc, kv);
    }
    bed.run_for(millis(1));
    bed.reset_measurement();
    bed.run_for(millis(2));
    std::vector<FlowReport> out;
    for (FlowId id = 1; id <= 4; ++id) out.push_back(bed.report(id));
    return out;
  };
  const auto ceio = run(SystemKind::kCeio);
  EXPECT_EQ(total_messages(ceio), 29045);
  EXPECT_EQ(report_digest(ceio), 0xfb61c4117df265ccull);
  const auto shring = run(SystemKind::kShring);
  EXPECT_EQ(total_messages(shring), 27990);
  EXPECT_EQ(report_digest(shring), 0x58c20a0523f01f35ull);
}

// The same contract at scale: 1,024 Poisson echo flows on CEIO with a full
// scan window. Every DCTCP window, the rollovers of all flows started
// together fall due at one instant on the window stream, and the
// controller poll jumps between armed flows across 1,024 positions; every
// report field must match the one-event-per-item run bit for bit.
TEST(Testbed, BurstCoalescingPreservesPoissonEchoAtScale) {
  harness::ExperimentSpec spec;
  std::string error;
  ASSERT_TRUE(config::apply_text(spec,
                                 "workload.app = echo\n"
                                 "workload.flows = 1024\n"
                                 "workload.offered_rate = 0.04Gbps\n"
                                 "workload.poisson = true\n"
                                 "ceio.fast_ring_entries = 16\n"
                                 "ceio.poll_scan_limit = 4096\n"
                                 "ceio.inactive_timeout = 200us\n",
                                 &error))
      << error;
  Testbed bed(spec.testbed);
  Application* app = make_app(bed, spec.workload.app);
  harness::for_each_flow(spec, [&](const FlowConfig& fc) { bed.add_flow(fc, *app); });
  harness::settle_and_measure(bed, micros(250), micros(500));
  const auto reports = bed.all_reports();
  ASSERT_EQ(reports.size(), 1024u);
  EXPECT_EQ(total_messages(reports), 4963);
  EXPECT_EQ(report_digest(reports), 0x6b800603b857d2b4ull);
}

}  // namespace
}  // namespace ceio
