// Tests for the network substrate: bottleneck link with ECN, DCTCP rate
// control and the flow source (pacing, closed loop, retransmissions).
#include <gtest/gtest.h>

#include <set>

#include "apps/echo.h"
#include "net/dctcp.h"
#include "net/dctcp_window_stream.h"
#include "net/flow_source.h"
#include "net/network_link.h"
#include "nic/nic.h"
#include "sim/event_scheduler.h"

namespace ceio {
namespace {

struct CollectSink : PacketSink {
  std::vector<Packet> packets;
  void on_packet(Packet pkt) override { packets.push_back(std::move(pkt)); }
};

struct NetHarness {
  EventScheduler sched;
  Nic nic{sched, NicConfig{Nanos{0}}};
  CollectSink sink;
  Rng rng{1};

  NetHarness() { nic.attach(&sink); }
};

// ---------- NetworkLink ----------

TEST(NetworkLink, DeliversWithSerializationAndPropagation) {
  NetHarness h;
  NetworkLinkConfig cfg;
  cfg.rate = gbps(8.0);  // 1 GB/s
  cfg.propagation = Nanos{500};
  NetworkLink link(h.sched, h.nic, cfg);
  Packet pkt;
  pkt.size = Bytes{1000};
  link.send(std::move(pkt));
  h.sched.run_all();
  ASSERT_EQ(h.sink.packets.size(), 1u);
  EXPECT_EQ(h.sched.now(), Nanos{1'000 + 500});
}

TEST(NetworkLink, EcnMarksAboveThreshold) {
  NetHarness h;
  NetworkLinkConfig cfg;
  cfg.rate = gbps(8.0);
  cfg.ecn_threshold = Bytes{2'000};
  cfg.queue_capacity = 1 * kMiB;
  NetworkLink link(h.sched, h.nic, cfg);
  // Burst of back-to-back sends at t=0 builds an instantaneous queue.
  for (int i = 0; i < 10; ++i) {
    Packet pkt;
    pkt.size = Bytes{1'000};
    link.send(std::move(pkt));
  }
  h.sched.run_all();
  ASSERT_EQ(h.sink.packets.size(), 10u);
  EXPECT_FALSE(h.sink.packets[0].ecn);  // queue empty for the first
  EXPECT_TRUE(h.sink.packets[9].ecn);   // deep queue for the last
  EXPECT_GT(link.stats().ecn_marks, 0);
}

TEST(NetworkLink, DropsWhenQueueFull) {
  NetHarness h;
  NetworkLinkConfig cfg;
  cfg.rate = gbps(8.0);
  cfg.queue_capacity = Bytes{4'000};
  cfg.ecn_threshold = Bytes{1'000'000};  // never mark
  NetworkLink link(h.sched, h.nic, cfg);
  int drops = 0;
  link.set_drop_handler([&](const Packet&) { ++drops; });
  for (int i = 0; i < 10; ++i) {
    Packet pkt;
    pkt.size = Bytes{1'000};
    link.send(std::move(pkt));
  }
  h.sched.run_all();
  EXPECT_GT(drops, 0);
  EXPECT_EQ(h.sink.packets.size() + static_cast<std::size_t>(drops), 10u);
}

TEST(NetworkLink, QueueDepthDecays) {
  NetHarness h;
  NetworkLinkConfig cfg;
  cfg.rate = gbps(8.0);
  NetworkLink link(h.sched, h.nic, cfg);
  Packet pkt;
  pkt.size = Bytes{10'000};
  link.send(std::move(pkt));
  EXPECT_GT(link.queue_depth(Nanos{0}), Bytes{0});
  EXPECT_EQ(link.queue_depth(Nanos{1'000'000}), Bytes{0});
}

// ---------- DCTCP ----------

TEST(Dctcp, AdditiveIncreaseWhenClean) {
  Dctcp cc(DctcpConfig{}, gbps(10.0));
  for (int i = 0; i < 50; ++i) cc.on_ack(false);
  cc.on_window(Nanos{0});
  EXPECT_NEAR(to_gbps(cc.rate()), 12.0, 0.01);
  EXPECT_DOUBLE_EQ(cc.alpha(), 0.0);
}

TEST(Dctcp, MarkedWindowCutsByAlphaHalf) {
  DctcpConfig cfg;
  cfg.g = 1.0;  // alpha follows the instantaneous fraction
  Dctcp cc(cfg, gbps(100.0));
  for (int i = 0; i < 10; ++i) cc.on_ack(i < 5);  // 50% marked
  cc.on_window(Nanos{0});
  EXPECT_NEAR(cc.alpha(), 0.5, 1e-9);
  EXPECT_NEAR(to_gbps(cc.rate()), 75.0, 0.01);  // cut by alpha/2
}

TEST(Dctcp, HostCongestionMarksRestOfWindow) {
  DctcpConfig cfg;
  cfg.g = 1.0;
  Dctcp cc(cfg, gbps(100.0));
  cc.on_host_congestion();
  for (int i = 0; i < 99; ++i) cc.on_ack(false);  // clean acks don't dilute
  cc.on_window(Nanos{0});
  EXPECT_NEAR(cc.alpha(), 1.0, 1e-9);
  EXPECT_NEAR(to_gbps(cc.rate()), 50.0, 0.01);
  // Next window without congestion recovers additively.
  cc.on_ack(false);
  cc.on_window(Nanos{0});
  EXPECT_GT(to_gbps(cc.rate()), 50.0);
}

TEST(Dctcp, LossBacksOffMultiplicatively) {
  Dctcp cc(DctcpConfig{}, gbps(100.0));
  cc.on_loss();
  EXPECT_NEAR(to_gbps(cc.rate()), 50.0, 0.01);
  EXPECT_EQ(cc.losses(), 1);
}

TEST(Dctcp, RateClamps) {
  DctcpConfig cfg;
  cfg.min_rate = gbps(1.0);
  cfg.max_rate = gbps(10.0);
  Dctcp cc(cfg, gbps(5.0));
  for (int i = 0; i < 50; ++i) cc.on_loss();
  EXPECT_DOUBLE_EQ(to_gbps(cc.rate()), 1.0);
  for (int i = 0; i < 100; ++i) {
    cc.on_ack(false);
    cc.on_window(Nanos{0});
  }
  EXPECT_DOUBLE_EQ(to_gbps(cc.rate()), 10.0);
}

// Property: persistent full marking converges toward the minimum rate;
// persistent clean windows converge to the maximum.
class DctcpConvergence : public ::testing::TestWithParam<bool> {};

TEST_P(DctcpConvergence, ConvergesToBound) {
  const bool congested = GetParam();
  Dctcp cc(DctcpConfig{}, gbps(50.0));
  for (int w = 0; w < 500; ++w) {
    for (int i = 0; i < 20; ++i) cc.on_ack(congested);
    cc.on_window(Nanos{0});
  }
  if (congested) {
    EXPECT_LT(to_gbps(cc.rate()), 1.0);
  } else {
    EXPECT_DOUBLE_EQ(to_gbps(cc.rate()), 200.0);
  }
}

INSTANTIATE_TEST_SUITE_P(Both, DctcpConvergence, ::testing::Values(true, false));

// ---------- FlowSource ----------

struct SourceHarness {
  EventScheduler sched;
  DctcpWindowStream windows{sched, DctcpConfig{}};
  Nic nic{sched, NicConfig{Nanos{0}}};
  CollectSink sink;
  Rng rng{7};
  NetworkLink link{sched, nic, NetworkLinkConfig{}};

  SourceHarness() { nic.attach(&sink); }
};

TEST(FlowSource, OpenLoopPacesAtOfferedRate) {
  SourceHarness h;
  FlowConfig fc;
  fc.id = 1;
  fc.packet_size = Bytes{1'000};
  fc.offered_rate = gbps(8.0);  // 1 us per packet
  FlowSource src(h.windows, h.rng, h.link, fc);
  src.start();
  h.sched.run_until(millis(1));
  src.stop();
  // ~1000 packets in 1 ms (DCTCP may raise the rate: it is min'd with offered).
  EXPECT_NEAR(static_cast<double>(src.stats().packets_sent), 1'000.0, 20.0);
}

TEST(FlowSource, StopHaltsEmission) {
  SourceHarness h;
  FlowConfig fc;
  fc.id = 1;
  fc.offered_rate = gbps(10.0);
  FlowSource src(h.windows, h.rng, h.link, fc);
  src.start();
  h.sched.run_until(micros(100));
  src.stop();
  const auto sent = src.stats().packets_sent;
  h.sched.run_until(millis(1));
  EXPECT_EQ(src.stats().packets_sent, sent);
}

// An idle source (nothing acks what reaches the sink) probes upward by a
// quarter of the additive increase, 0.5 Gbps, per window. stop() at 10 µs
// must void the rollover start() queued for 20 µs, and start() at 15 µs
// must begin exactly one new chain: rollovers at 35, 55, 75 and 95 µs lift
// 1 Gbps to exactly 3 Gbps by 100 µs. A surviving first chain (20, 40, ...)
// would read 5 Gbps, a missing second one 1 Gbps.
TEST(FlowSource, RestartRunsOneWindowChain) {
  SourceHarness h;
  FlowConfig fc;
  fc.id = 1;
  fc.offered_rate = gbps(1.0);
  FlowSource src(h.windows, h.rng, h.link, fc);
  src.start();
  h.sched.run_until(micros(10));
  src.stop();
  h.sched.run_until(micros(15));
  src.start();
  h.sched.run_until(micros(34));
  EXPECT_EQ(src.dctcp().rate(), gbps(1.0));
  h.sched.run_until(micros(100));
  EXPECT_EQ(src.dctcp().rate(), gbps(3.0));
}

TEST(FlowSource, MessageFraming) {
  SourceHarness h;
  FlowConfig fc;
  fc.id = 1;
  fc.packet_size = Bytes{500};
  fc.message_pkts = 4;
  fc.offered_rate = gbps(100.0);
  FlowSource src(h.windows, h.rng, h.link, fc);
  src.start();
  h.sched.run_until(micros(10));
  src.stop();
  h.sched.run_all();
  ASSERT_GE(h.sink.packets.size(), 8u);
  for (std::size_t i = 0; i + 4 <= h.sink.packets.size(); i += 4) {
    const auto msg = h.sink.packets[i].message_id;
    for (std::size_t j = 0; j < 4; ++j) {
      EXPECT_EQ(h.sink.packets[i + j].message_id, msg);
      EXPECT_EQ(h.sink.packets[i + j].last_in_message, j == 3);
    }
  }
}

TEST(FlowSource, ClosedLoopKeepsOutstandingBound) {
  SourceHarness h;
  FlowConfig fc;
  fc.id = 1;
  fc.packet_size = Bytes{500};
  fc.closed_loop_outstanding = 4;
  fc.offered_rate = gbps(100.0);
  FlowSource src(h.windows, h.rng, h.link, fc);
  src.start();
  h.sched.run_until(micros(50));
  // Without completions, exactly 4 messages were emitted.
  EXPECT_EQ(src.stats().packets_sent, 4);
  // Completing one triggers exactly one more.
  src.notify_message_complete(1, h.sched.now());
  h.sched.run_until(micros(100));
  EXPECT_EQ(src.stats().packets_sent, 5);
  EXPECT_EQ(src.stats().messages_completed, 1);
}

TEST(FlowSource, CompletionRecordsLatency) {
  SourceHarness h;
  FlowConfig fc;
  fc.id = 1;
  fc.closed_loop_outstanding = 1;
  FlowSource src(h.windows, h.rng, h.link, fc);
  src.start();
  h.sched.run_until(micros(5));
  src.notify_message_complete(1, h.sched.now());
  EXPECT_EQ(src.latency().count(), 1);
  EXPECT_GT(src.latency().p50(), Nanos{0});
}

TEST(FlowSource, DroppedPacketsRetransmitPaced) {
  SourceHarness h;
  FlowConfig fc;
  fc.id = 1;
  fc.packet_size = Bytes{500};
  fc.offered_rate = gbps(1.0);
  FlowSource src(h.windows, h.rng, h.link, fc);
  src.start();
  h.sched.run_until(micros(20));
  const auto sent_before = src.stats().packets_sent;
  Packet lost;
  lost.flow = 1;
  lost.size = Bytes{500};
  lost.seq = 424242;
  src.notify_dropped(lost);
  h.sched.run_until(micros(100));
  src.stop();
  EXPECT_EQ(src.stats().packets_dropped, 1);
  EXPECT_GT(src.stats().packets_sent, sent_before);
  // The retransmitted copy eventually reaches the sink.
  h.sched.run_all();
  bool found = false;
  for (const auto& p : h.sink.packets) found = found || p.seq == 424242;
  EXPECT_TRUE(found);
  // Loss cut the DCTCP rate.
  EXPECT_EQ(src.dctcp().losses(), 1);
}

TEST(FlowSource, EcnFeedbackReducesRate) {
  SourceHarness h;
  FlowConfig fc;
  fc.id = 1;
  fc.offered_rate = gbps(100.0);
  FlowSource src(h.windows, h.rng, h.link, fc);
  src.start();
  const auto initial = src.current_rate();
  Packet marked;
  marked.flow = 1;
  marked.size = Bytes{500};
  marked.ecn = true;
  for (int i = 0; i < 10; ++i) src.notify_delivered(marked);
  h.sched.run_until(micros(100));  // past a DCTCP window
  src.stop();
  EXPECT_LT(src.current_rate(), initial);
}

TEST(FlowSource, BurstModeGatesEmission) {
  SourceHarness h;
  FlowConfig fc;
  fc.id = 1;
  fc.packet_size = Bytes{500};
  fc.offered_rate = gbps(40.0);  // 100 ns per packet when on
  fc.burst_on = micros(50);
  fc.burst_off = micros(150);
  FlowSource src(h.windows, h.rng, h.link, fc);
  src.start();
  h.sched.run_until(millis(1));
  src.stop();
  // Duty cycle 25%: ~2500 packets instead of ~10000.
  const auto sent = src.stats().packets_sent;
  EXPECT_GT(sent, 2'000);
  EXPECT_LT(sent, 3'000);
  // Emissions cluster inside on-phases.
  h.sched.run_all();
  for (const auto& pkt : h.sink.packets) {
    const Nanos sent_at = pkt.created % (fc.burst_on + fc.burst_off);
    EXPECT_LT(sent_at, fc.burst_on + Nanos{1'000});  // small slack for pacing gap
  }
}

TEST(FlowSource, PoissonModeVariesGaps) {
  SourceHarness h;
  FlowConfig fc;
  fc.id = 1;
  fc.packet_size = Bytes{500};
  fc.offered_rate = gbps(4.0);  // 1 us mean gap
  fc.poisson = true;
  FlowSource src(h.windows, h.rng, h.link, fc);
  src.start();
  h.sched.run_until(millis(1));
  src.stop();
  h.sched.run_all();
  ASSERT_GT(h.sink.packets.size(), 100u);
  // Mean rate matches the offered rate but gaps vary.
  EXPECT_NEAR(static_cast<double>(src.stats().packets_sent), 1'000.0, 150.0);
  std::set<Nanos> gaps;
  for (std::size_t i = 1; i < 50; ++i) {
    gaps.insert(h.sink.packets[i].created - h.sink.packets[i - 1].created);
  }
  EXPECT_GT(gaps.size(), 20u);  // paced mode would produce one constant gap
}

}  // namespace
}  // namespace ceio
