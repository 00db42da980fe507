// Tests for the model auditor (src/audit/): the auditor mechanics, a
// fault-injection test per standard invariant (corrupt the observed state,
// assert the right invariant fires with the right layer/name/time), genuine
// white-box injections where a model exposes a seam, and healthy end-to-end
// runs on every system where the full pack must stay silent.
#include <gtest/gtest.h>

#include "apps/echo.h"
#include "apps/linefs.h"
#include "audit/invariants.h"
#include "audit/model_auditor.h"
#include "ceio/credit_controller.h"
#include "config/config_ops.h"
#include "harness/experiment.h"
#include "iopath/testbed.h"

namespace ceio {
namespace {

// ---------- ModelAuditor mechanics ----------

TEST(ModelAuditor, RecordsOnlyFailingChecks) {
  ModelAuditor a;
  a.register_invariant("l1", "always-ok", [](Nanos) { return std::nullopt; });
  a.register_invariant("l2", "always-bad",
                       [](Nanos) { return std::optional<std::string>("broken"); });
  EXPECT_EQ(a.check_all(Nanos{42}), 1u);
  ASSERT_EQ(a.violations().size(), 1u);
  EXPECT_EQ(a.violations()[0].layer, "l2");
  EXPECT_EQ(a.violations()[0].name, "always-bad");
  EXPECT_EQ(a.violations()[0].detail, "broken");
  EXPECT_EQ(a.violations()[0].at, Nanos{42});
  EXPECT_FALSE(a.ok());
  EXPECT_EQ(a.sweeps(), 1);
}

TEST(ModelAuditor, RecordingSaturatesPerInvariant) {
  ModelAuditor a;
  a.register_invariant("l", "bad", [](Nanos) { return std::optional<std::string>("x"); });
  for (int i = 0; i < 100; ++i) a.check_all(Nanos{i});
  EXPECT_EQ(a.violations().size(),
            static_cast<std::size_t>(ModelAuditor::kMaxRecordedPerInvariant));
  a.clear_violations();
  EXPECT_TRUE(a.ok());
  // Clearing re-arms the saturation counter.
  a.check_all(Nanos{200});
  EXPECT_EQ(a.violations().size(), 1u);
}

TEST(ModelAuditor, SummaryListsViolations) {
  ModelAuditor a;
  EXPECT_EQ(a.summary(), "ok");
  a.register_invariant("host", "bound", [](Nanos) { return std::optional<std::string>("over"); });
  a.check_all(Nanos{7});
  EXPECT_EQ(a.summary(), "host/bound @7: over");
}

// ---------- Fault injection: one test per invariant family ----------
//
// Each test binds the family to a synthetic state snapshot, verifies the
// healthy state passes, corrupts the snapshot, and asserts the invariant
// fires with its registered layer/name.

void expect_fires(ModelAuditor& a, const std::string& layer, const std::string& name,
                  Nanos at = Nanos{1'000}) {
  EXPECT_EQ(a.check_all(at), 1u) << a.summary();
  ASSERT_FALSE(a.ok());
  EXPECT_EQ(a.violations().back().layer, layer);
  EXPECT_EQ(a.violations().back().name, name);
  EXPECT_EQ(a.violations().back().at, at);
}

TEST(AuditFaultInjection, ByteConservation) {
  ConservationCounters c;
  c.nic_bytes = Bytes{10'000};
  c.dma_write_bytes = Bytes{8'000};
  c.dma_read_bytes = Bytes{2'000};
  c.dma_writes = 10;
  c.dma_reads = 2;
  c.mc_ddio_writes = 8;
  c.mc_dram_writes = 4;
  ModelAuditor a;
  register_conservation_invariants(a, [&c] { return c; });
  EXPECT_EQ(a.check_all(Nanos{0}), 0u) << a.summary();

  c.dma_write_bytes = Bytes{9'000};  // DMA now moved more than the NIC saw
  expect_fires(a, "pcie", "byte-conservation");

  c.dma_write_bytes = Bytes{8'000};
  c.mc_ddio_writes = 11;  // landed writes exceed issued DMA ops
  expect_fires(a, "pcie", "byte-conservation");
}

TEST(AuditFaultInjection, LlcDdioPartitionBound) {
  LlcDdioState s{100, 128};
  ModelAuditor a;
  register_llc_invariants(a, [&s] { return s; });
  EXPECT_EQ(a.check_all(Nanos{0}), 0u);
  s.occupancy = 129;
  expect_fires(a, "host", "ddio-partition-bound");
}

TEST(AuditFaultInjection, IioOccupancyBound) {
  IioState s{Bytes{1'000}, Bytes{4'096}};
  ModelAuditor a;
  register_iio_invariants(a, [&s] { return s; });
  EXPECT_EQ(a.check_all(Nanos{0}), 0u);
  s.occupancy = Bytes{5'000};
  expect_fires(a, "host", "iio-occupancy-bound");
  s.occupancy = Bytes{-1};
  expect_fires(a, "host", "iio-occupancy-bound");
}

TEST(AuditFaultInjection, DmaReadWindowLedger) {
  DmaWindowState s;
  s.reads = 10;
  s.reads_completed = 7;
  s.outstanding = 3;
  s.max_outstanding = 4;
  s.writes = 20;
  s.writes_completed = 18;
  ModelAuditor a;
  register_dma_window_invariants(a, [&s] { return s; });
  EXPECT_EQ(a.check_all(Nanos{0}), 0u) << a.summary();

  s.reads_completed = 6;  // a completion went missing
  expect_fires(a, "pcie", "dma-read-window");
  s.reads_completed = 7;

  s.outstanding = 5;  // window overrun
  expect_fires(a, "pcie", "dma-read-window");
  s.outstanding = 3;

  s.queued = 2;  // queued although the window has room
  expect_fires(a, "pcie", "dma-read-window");
  s.queued = 0;

  s.writes_completed = 21;  // more completions than issues
  expect_fires(a, "pcie", "dma-read-window");
}

TEST(AuditFaultInjection, CreditLedger) {
  CreditLedgerState s{/*balance_sum=*/3'000, /*free_pool=*/500, /*total=*/3'000};
  ModelAuditor a;
  register_credit_invariants(a, [&s] { return s; });
  EXPECT_EQ(a.check_all(Nanos{0}), 0u);
  s.balance_sum = 3'001;  // the ledger minted a credit
  expect_fires(a, "ceio", "credit-ledger");
}

TEST(AuditFaultInjection, ClockMonotone) {
  ModelAuditor a;
  register_time_invariant(a);
  EXPECT_EQ(a.check_all(Nanos{100}), 0u);
  EXPECT_EQ(a.check_all(Nanos{100}), 0u);  // equal timestamps are fine
  expect_fires(a, "sim", "clock-monotone", Nanos{50});
}

TEST(AuditFaultInjection, RingHeadTailCoherence) {
  RingState s{/*head=*/5, /*tail=*/9, /*capacity=*/8};
  ModelAuditor a;
  register_ring_invariants(a, "rx-head-tail-coherent", [&s] { return s; });
  EXPECT_EQ(a.check_all(Nanos{0}), 0u);

  s.head = 10;  // consumer overtook the producer
  expect_fires(a, "ring", "rx-head-tail-coherent");
  s.head = 5;

  s.tail = 14;  // occupancy beyond physical capacity
  expect_fires(a, "ring", "rx-head-tail-coherent");
}

TEST(AuditFaultInjection, SwRingSegmentCoherence) {
  SwRingState s{/*segment_sum=*/12, /*pending=*/12};
  ModelAuditor a;
  register_sw_ring_invariants(a, "sw-ring-coherent", [&s] { return s; });
  EXPECT_EQ(a.check_all(Nanos{0}), 0u);
  s.segment_sum = 11;  // a segment count was lost
  expect_fires(a, "ceio", "sw-ring-coherent");
}

// A healthy three-position poll index: position 0 armed, 1 holding a
// deadline, 2 holding none (an inactive flow).
PollIndexState healthy_poll_index() {
  PollIndexState s;
  s.positions.resize(3);
  s.positions[0] = {/*flow=*/1, /*armed=*/true, /*quiescent=*/false, Nanos{0}, Nanos{500}};
  s.positions[1] = {/*flow=*/2, /*armed=*/false, /*quiescent=*/true, Nanos{700}, Nanos{700}};
  s.positions[2] = {/*flow=*/3, /*armed=*/false, /*quiescent=*/true, Nanos::max(), Nanos::max()};
  s.armed_words = {0b001};
  s.block_bounds = {Nanos{600}};
  return s;
}

TEST(AuditFaultInjection, PollArmedPositions) {
  PollIndexState s = healthy_poll_index();
  ModelAuditor a;
  register_poll_armed_invariants(a, [&s] { return s; });
  EXPECT_EQ(a.check_all(Nanos{0}), 0u) << a.summary();

  s.positions[1].quiescent = false;  // an input changed with no re-arm
  expect_fires(a, "ceio", "poll-armed");
  s.positions[1].quiescent = true;

  s.positions[2].deadline = Nanos{900};  // reactivated, yet the position never learns it
  expect_fires(a, "ceio", "poll-armed");
}

TEST(AuditFaultInjection, PollArmedBitsMatchPositions) {
  PollIndexState s = healthy_poll_index();
  ModelAuditor a;
  register_poll_armed_invariants(a, [&s] { return s; });
  EXPECT_EQ(a.check_all(Nanos{0}), 0u) << a.summary();

  // A removal shifted positions down but left the last one's bit behind.
  s.armed_words[0] |= 1ull << 3;
  expect_fires(a, "ceio", "poll-armed");
}

TEST(AuditFaultInjection, PollBlockBoundsBelowDeadlines) {
  PollIndexState s = healthy_poll_index();
  ModelAuditor a;
  register_poll_armed_invariants(a, [&s] { return s; });
  EXPECT_EQ(a.check_all(Nanos{0}), 0u) << a.summary();

  // A deadline write that did not lower the block's bound: the walk would
  // jump over position 1 between 700 and 800.
  s.block_bounds[0] = Nanos{800};
  expect_fires(a, "ceio", "poll-armed");
}

TEST(AuditFaultInjection, TenantLlcOccupancySum) {
  TenantLlcState s;
  s.occupancy = {40, 30, 10};
  s.capacity = {64, 64, 64};
  s.global_occupancy = 80;
  ModelAuditor a;
  register_tenant_llc_invariants(a, [&s] { return s; });
  EXPECT_EQ(a.check_all(Nanos{0}), 0u) << a.summary();

  s.occupancy[1] = 29;  // one tenant's counter lost a resident line
  expect_fires(a, "host", "tenant-ddio-sum");
  s.occupancy[1] = 30;

  s.global_occupancy = 81;  // the cache's own counter drifted instead
  expect_fires(a, "host", "tenant-ddio-sum");
}

TEST(AuditFaultInjection, TenantLlcWayBound) {
  TenantLlcState s;
  s.occupancy = {64, 10};
  s.capacity = {64, 64};
  s.global_occupancy = 74;
  ModelAuditor a;
  register_tenant_llc_invariants(a, [&s] { return s; });
  EXPECT_EQ(a.check_all(Nanos{0}), 0u) << a.summary();  // at capacity is legal

  s.occupancy[0] = 65;  // over its way-mask capacity
  s.global_occupancy = 75;
  expect_fires(a, "host", "tenant-way-bound");
}

// ---------- Genuine white-box injections against real models ----------

TEST(AuditFaultInjection, RealCreditControllerOverRelease) {
  // release() for an unknown flow returns the credits to the pool; releasing
  // credits that were never consumed genuinely mints them.
  CreditController credits(100);
  ModelAuditor a;
  register_credit_invariants(a, [&credits] {
    return CreditLedgerState{credits.balance_sum(), credits.free_pool(), credits.total()};
  });
  EXPECT_EQ(a.check_all(Nanos{0}), 0u);
  credits.release(/*id=*/7, /*n=*/1'000);
  expect_fires(a, "ceio", "credit-ledger");
}

TEST(AuditFaultInjection, RealSwRingStaysCoherentUnderUse) {
  SwRing sw;
  ModelAuditor a;
  register_sw_ring_invariants(a, "sw-ring-coherent",
                              [&sw] { return SwRingState{sw.segment_sum(), sw.pending()}; });
  for (int i = 0; i < 10; ++i) sw.note_steered(i % 3 == 0);
  EXPECT_EQ(a.check_all(Nanos{0}), 0u) << a.summary();
  for (int i = 0; i < 4; ++i) sw.consumed();
  EXPECT_EQ(a.check_all(Nanos{1}), 0u) << a.summary();
}

// ---------- Healthy end-to-end runs: the full pack must stay silent ----------

class AuditHealthyRun : public ::testing::TestWithParam<SystemKind> {};

TEST_P(AuditHealthyRun, FullPackSilentUnderLoad) {
  TestbedConfig cfg;
  cfg.system = GetParam();
  Testbed bed(cfg);
  ModelAuditor& auditor = bed.enable_audit(micros(5));
  EXPECT_GE(auditor.invariant_count(), 6u);

  auto& echo = bed.make_echo();
  FlowConfig fc;
  fc.id = 1;
  fc.offered_rate = gbps(40.0);
  bed.add_flow(fc, echo);
  FlowConfig fc2;
  fc2.id = 2;
  fc2.kind = FlowKind::kCpuBypass;
  fc2.message_pkts = 64;
  fc2.packet_size = 2 * kKiB;
  fc2.offered_rate = gbps(40.0);
  bed.add_flow(fc2, bed.make_linefs());

  bed.run_for(millis(2));
  EXPECT_GT(auditor.sweeps(), 100);
  EXPECT_TRUE(auditor.ok()) << auditor.summary();
  EXPECT_GT(bed.source(1)->stats().packets_sent, 0);
}

INSTANTIATE_TEST_SUITE_P(Systems, AuditHealthyRun,
                         ::testing::Values(SystemKind::kLegacy, SystemKind::kHostcc,
                                           SystemKind::kShring, SystemKind::kCeio),
                         [](const auto& tpi) { return to_string(tpi.param); });

// The CEIO controller poll skips quiescent flows; the poll-armed invariant
// (with the rest of the pack) must stay silent on runs that reach its rarer
// branches: inactivity reclaims with reactivations (the reclaim-churn
// golden's shape), a scan window far smaller than the flow count (the
// bounded-scan golden's) and KV flows cycling through the slow path and
// back (ceio-kv-short's). Each run is the experiment harness's, in short.
struct PollRun {
  const char* name;
  const char* overrides;  // scenario-file lines over the default spec
  bool reclaims;          // the run must reach inactivity reclaims
};

// Keeps the discovered test names stable (gtest would otherwise print the
// struct's raw bytes, pointers and padding included).
void PrintTo(const PollRun& run, std::ostream* os) { *os << run.name; }

class AuditHealthyPoll : public ::testing::TestWithParam<PollRun> {};

TEST_P(AuditHealthyPoll, FullPackSilent) {
  harness::ExperimentSpec spec;
  std::string error;
  ASSERT_TRUE(config::apply_text(spec, GetParam().overrides, &error)) << error;
  Testbed bed(spec.testbed);
  ModelAuditor& auditor = bed.enable_audit(micros(5));
  Application* app = make_app(bed, spec.workload.app);
  harness::for_each_flow(spec, [&](const FlowConfig& fc) { bed.add_flow(fc, *app); });
  bed.run_for(millis(1));
  EXPECT_GT(auditor.sweeps(), 100);
  EXPECT_TRUE(auditor.ok()) << auditor.summary();
  const CeioRuntimeStats& rt = bed.ceio()->runtime_stats();
  EXPECT_GT(rt.switches_back_to_fast, 0);
  if (GetParam().reclaims) {
    EXPECT_GT(rt.inactive_reclaims, 0);
    EXPECT_GT(rt.reactivations, 0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Runs, AuditHealthyPoll,
    ::testing::Values(PollRun{"ReclaimChurn",
                              "workload.app = echo\n"
                              "workload.flows = 512\n"
                              "workload.offered_rate = 0.02Gbps\n"
                              "workload.poisson = true\n"
                              "ceio.fast_ring_entries = 16\n"
                              "ceio.poll_scan_limit = 4096\n"
                              "ceio.inactive_timeout = 100us\n",
                              true},
                      PollRun{"BoundedScan",
                              "workload.app = echo\n"
                              "workload.flows = 256\n"
                              "workload.offered_rate = 0.1Gbps\n"
                              "workload.poisson = true\n"
                              "ceio.inactive_timeout = 50us\n"
                              "ceio.poll_scan_limit = 32\n",
                              true},
                      PollRun{"KvSlowPathCycles", "", false}),
    [](const auto& tpi) { return std::string(tpi.param.name); });

TEST(AuditHealthy, EnableAuditIsIdempotent) {
  Testbed bed(TestbedConfig{});
  ModelAuditor& first = bed.enable_audit(micros(10));
  ModelAuditor& second = bed.enable_audit(micros(10));
  EXPECT_EQ(&first, &second);
  const std::size_t count = first.invariant_count();
  bed.run_for(micros(100));
  // No duplicate registrations, and exactly one sweep chain: ~10 periodic
  // sweeps plus the end-of-run sweep.
  EXPECT_EQ(first.invariant_count(), count);
  EXPECT_LE(first.sweeps(), 12);
  EXPECT_TRUE(first.ok()) << first.summary();
}

TEST(AuditHealthy, DmaCompletionLedgerSettles) {
  // After a run completes, every issued DMA op must have completed: the
  // in-flight terms of the ledger drop to zero.
  TestbedConfig cfg;
  cfg.system = SystemKind::kCeio;
  Testbed bed(cfg);
  bed.enable_audit(micros(10));
  FlowConfig fc;
  fc.id = 1;
  fc.offered_rate = gbps(50.0);
  fc.stop_time = millis(1);
  bed.add_flow(fc, bed.make_echo());
  bed.run_for(millis(3));
  const auto& s = bed.dma().stats();
  EXPECT_GT(s.writes, 0);
  EXPECT_EQ(s.writes, s.writes_completed);
  EXPECT_EQ(s.reads, s.reads_completed + bed.dma().outstanding_reads());
  EXPECT_TRUE(bed.auditor()->ok()) << bed.auditor()->summary();
}

}  // namespace
}  // namespace ceio
