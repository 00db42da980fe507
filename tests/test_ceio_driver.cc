// Tests for the CEIO driver facade (recv / async_recv / post_recv / complete)
// in manual-consume mode — the paper's §5 library API surface.
#include <gtest/gtest.h>

#include "apps/echo.h"
#include "ceio/ceio_driver.h"
#include "iopath/testbed.h"

namespace ceio {
namespace {

FlowConfig flow(FlowId id, double rate_gbps = 5.0) {
  FlowConfig fc;
  fc.id = id;
  fc.kind = FlowKind::kCpuInvolved;
  fc.packet_size = Bytes{512};
  fc.offered_rate = gbps(rate_gbps);
  return fc;
}

struct DriverHarness {
  TestbedConfig cfg;
  std::unique_ptr<Testbed> bed;
  std::unique_ptr<CeioDriver> driver;

  explicit DriverHarness(TestbedConfig config = {}) : cfg(std::move(config)) {
    cfg.system = SystemKind::kCeio;
    bed = std::make_unique<Testbed>(cfg);
    auto& echo = bed->make_echo();
    bed->add_flow(flow(1), echo);
    driver = std::make_unique<CeioDriver>(*bed->ceio(), 1);
  }
};

// A stalled consumer: receives every landed packet, one reused burst at a
// time, and never hands a buffer back.
void consume_without_completing(CeioDriver& driver) {
  PacketBurst burst;
  while (driver.recv(burst) == PacketBurst::kCapacity) burst.clear();
}

TEST(CeioDriver, RecvReturnsInOrderPackets) {
  DriverHarness h;
  h.bed->run_for(micros(200));
  PacketBurst batch;
  h.driver->recv(batch);
  ASSERT_FALSE(batch.empty());
  std::uint64_t prev = 0;
  bool first = true;
  for (const auto& pkt : batch) {
    if (!first) {
      EXPECT_EQ(pkt.seq, prev + 1);
    }
    prev = pkt.seq;
    first = false;
    EXPECT_NE(pkt.host_buffer, 0u);
    h.driver->complete(pkt);
  }
}

TEST(CeioDriver, RecvRespectsMaxAndPending) {
  DriverHarness h;
  h.bed->run_for(micros(500));
  const auto pending_before = h.driver->pending();
  ASSERT_GT(pending_before, PacketBurst::kCapacity);
  // A burst takes no more than its room...
  PacketBurst batch;
  EXPECT_EQ(h.driver->recv(batch), PacketBurst::kCapacity);
  EXPECT_EQ(h.driver->pending(), pending_before - PacketBurst::kCapacity);
  // ...so a full one takes nothing.
  EXPECT_EQ(h.driver->recv(batch), 0u);
  EXPECT_EQ(h.driver->pending(), pending_before - PacketBurst::kCapacity);
  for (const auto& pkt : batch) h.driver->complete(pkt);
}

TEST(CeioDriver, CompleteReleasesCredits) {
  DriverHarness h;
  h.bed->run_for(micros(500));
  const auto before = h.bed->ceio()->credits().credits(1);
  PacketBurst batch;
  // A full burst is one lazy-release batch (ceio.release_batch = 32).
  ASSERT_EQ(h.driver->recv(batch), PacketBurst::kCapacity);
  for (const auto& pkt : batch) h.driver->complete(pkt);
  h.bed->run_for(micros(10));  // doorbell latency
  EXPECT_GT(h.bed->ceio()->credits().credits(1), before);
}

TEST(CeioDriver, WithoutCompleteCreditsDrain) {
  // Never completing packets starves the flow of credits. With the CCA
  // muted (it would otherwise throttle the sender first — see the next
  // test), the controller must steer the flow to the slow path.
  TestbedConfig cfg;
  cfg.ceio.slow_cca_threshold = 1u << 30;
  DriverHarness h(cfg);
  for (int i = 0; i < 60; ++i) {
    h.bed->run_for(micros(100));
    consume_without_completing(*h.driver);
  }
  EXPECT_LE(h.bed->ceio()->credits().credits(1), 0);
  EXPECT_TRUE(h.bed->ceio()->in_slow_mode(1));
}

TEST(CeioDriver, StalledConsumerThrottlesSender) {
  // With the CCA active, a consumer that stops handing buffers back makes
  // the controller mark the flow's traffic, and DCTCP throttles the sender
  // before the credits are exhausted — host backpressure end to end.
  DriverHarness h;
  for (int i = 0; i < 40; ++i) {
    h.bed->run_for(micros(100));
    consume_without_completing(*h.driver);
  }
  EXPECT_GT(h.bed->ceio()->runtime_stats().cca_triggers, 0);
  EXPECT_LT(to_gbps(h.bed->source(1)->current_rate()), 1.0);
  EXPECT_GT(h.bed->ceio()->credits().credits(1), 0);  // never exhausted
}

TEST(CeioDriver, AsyncRecvPrefetchesSlowPath) {
  TestbedConfig cfg;
  cfg.ceio_auto_credits = false;
  cfg.ceio.total_credits = 0;  // everything rides the slow path
  cfg.ceio.reactivations_per_sec = 0.0;
  cfg.ceio.async_drain = false;  // no background drain from the datapath
  DriverHarness h(cfg);
  h.bed->run_for(micros(300));
  // async_recv arms the drain; take everything already landed so only
  // packets the armed drain brings in can satisfy the later recv.
  PacketBurst batch;
  while (h.driver->async_recv(batch) == PacketBurst::kCapacity) batch.clear();
  h.bed->run_for(micros(300));
  batch.clear();
  h.driver->recv(batch);
  EXPECT_FALSE(batch.empty());
  for (const auto& pkt : batch) h.driver->complete(pkt);
}

TEST(CeioDriver, PostRecvZeroCopyBuffersAreUsed) {
  DriverHarness h;
  const auto posted = h.driver->post_recv(8);
  ASSERT_EQ(posted.size(), 8u);
  h.bed->run_for(micros(200));
  PacketBurst batch;
  h.driver->recv(batch);
  ASSERT_GE(batch.size(), 8u);
  // The first 8 landed packets used the app-posted buffers, in order.
  for (std::size_t i = 0; i < 8; ++i) {
    EXPECT_EQ(batch[i].host_buffer, posted[i]);
  }
  // Completing an app-owned buffer must not grow the shared pool.
  const auto pool_before = h.bed->host_pool().available();
  h.driver->complete(batch[0]);
  EXPECT_EQ(h.bed->host_pool().available(), pool_before);
  for (std::size_t i = 1; i < batch.size(); ++i) h.driver->complete(batch[i]);
}

TEST(CeioDriver, MessageCompletionReportedThroughComplete) {
  DriverHarness h;
  h.bed->run_for(micros(300));
  PacketBurst batch;
  h.driver->recv(batch);
  ASSERT_FALSE(batch.empty());
  const auto completed_before = h.bed->source(1)->stats().messages_completed;
  for (const auto& pkt : batch) h.driver->complete(pkt);
  EXPECT_EQ(h.bed->source(1)->stats().messages_completed,
            completed_before + static_cast<std::int64_t>(batch.size()));
}

TEST(CeioDriver, DetachRestoresAutomaticPump) {
  TestbedConfig cfg;
  cfg.system = SystemKind::kCeio;
  Testbed bed(cfg);
  auto& echo = bed.make_echo();
  bed.add_flow(flow(1), echo);
  {
    CeioDriver driver(*bed.ceio(), 1);
    bed.run_for(micros(200));
    PacketBurst batch;
    do {
      batch.clear();
      driver.recv(batch);
      for (const auto& pkt : batch) driver.complete(pkt);
    } while (batch.full());
  }  // destructor detaches
  bed.reset_measurement();
  bed.run_for(millis(1));
  // The internal pump resumed: the application processes packets again.
  EXPECT_GT(bed.report(1).mpps, 0.5);
}

// The receive forms drain into a caller-owned PacketBurst: in order, and a
// partially-filled burst is appended to rather than rewound.
TEST(CeioDriver, BurstRecvAppendsToPartialBurst) {
  DriverHarness h;
  h.bed->run_for(micros(200));
  PacketBurst burst;
  const std::size_t got = h.driver->recv(burst);
  ASSERT_GT(got, 0u);
  EXPECT_EQ(burst.size(), got);
  std::uint64_t prev = 0;
  for (const Packet& pkt : burst) {
    if (prev != 0) {
      EXPECT_EQ(pkt.seq, prev + 1);
    }
    prev = pkt.seq;
    h.driver->complete(pkt);
  }
  // A partially-filled burst appends on the next call instead of rewinding.
  h.bed->run_for(micros(50));
  const std::size_t before = burst.size();
  const std::size_t more = h.driver->async_recv(burst);
  EXPECT_EQ(burst.size(), before + more);
  for (std::size_t i = before; i < burst.size(); ++i) h.driver->complete(burst[i]);
}

}  // namespace
}  // namespace ceio
