// Tests for the hot-path data-layout structures: PacketPool/PacketRef
// handle safety (generation checking, ABA wraparound), FlowTable iteration
// determinism, and SoA-vs-AoS LLC equivalence against the frozen
// pre-overhaul implementation (aos_cache_oracle.{h,cc}).
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "aos_cache_oracle.h"
#include "common/flow_table.h"
#include "common/rng.h"
#include "common/units.h"
#include "host/cache.h"
#include "nic/packet.h"

namespace ceio {
namespace {

Packet make_packet(FlowId flow, std::uint64_t seq) {
  Packet pkt;
  pkt.flow = flow;
  pkt.seq = seq;
  pkt.size = Bytes{1024};
  return pkt;
}

// ---------------------------------------------------------------- PacketPool

TEST(PacketPool, MakeGetTakeRoundTrip) {
  PacketPool pool;
  const PacketRef ref = pool.make(make_packet(7, 42));
  ASSERT_TRUE(ref);
  ASSERT_NE(pool.get(ref), nullptr);
  EXPECT_EQ(pool.get(ref)->flow, 7u);
  EXPECT_EQ(pool.get(ref)->seq, 42u);
  EXPECT_EQ(pool.live(), 1u);

  const Packet out = pool.take(ref);
  EXPECT_EQ(out.seq, 42u);
  EXPECT_EQ(pool.live(), 0u);
  EXPECT_EQ(pool.get(ref), nullptr) << "taken handle must go stale";
}

TEST(PacketPool, NullRefResolvesToNull) {
  PacketPool pool;
  EXPECT_EQ(pool.get(PacketRef{}), nullptr);
  EXPECT_FALSE(PacketRef{});
}

TEST(PacketPool, StaleHandleAfterRecycleResolvesToNull) {
  PacketPool pool;
  const PacketRef first = pool.make(make_packet(1, 100));
  pool.release(first);

  // LIFO free list: the next make() reuses the same slot under a new
  // generation. The old handle must observe the recycle, not the new packet.
  const PacketRef second = pool.make(make_packet(2, 200));
  EXPECT_EQ(second.raw() >> 8, first.raw() >> 8) << "slot should be recycled";
  EXPECT_NE(second.raw(), first.raw()) << "generation must differ";
  EXPECT_EQ(pool.get(first), nullptr);
  ASSERT_NE(pool.get(second), nullptr);
  EXPECT_EQ(pool.get(second)->seq, 200u);
}

TEST(PacketPool, DoubleReleaseIsHarmless) {
  PacketPool pool;
  const PacketRef ref = pool.make(make_packet(1, 1));
  pool.release(ref);
  pool.release(ref);  // stale: ignored
  EXPECT_EQ(pool.live(), 0u);
  EXPECT_EQ(pool.slots(), 1u);

  // The slot is on the free list exactly once: two makes may not alias.
  const PacketRef a = pool.make(make_packet(1, 10));
  const PacketRef b = pool.make(make_packet(1, 20));
  ASSERT_NE(pool.get(a), nullptr);
  ASSERT_NE(pool.get(b), nullptr);
  EXPECT_NE(pool.get(a), pool.get(b));
  EXPECT_EQ(pool.get(a)->seq, 10u);
  EXPECT_EQ(pool.get(b)->seq, 20u);
}

TEST(PacketPool, GenerationWrapsAfter256Recycles) {
  PacketPool pool;
  PacketRef epoch0 = pool.make(make_packet(1, 0));
  pool.release(epoch0);

  // 255 intervening recycles: every intermediate handle stays individually
  // stale right after its release.
  for (std::uint64_t i = 1; i < 256; ++i) {
    const PacketRef mid = pool.make(make_packet(1, i));
    EXPECT_EQ(pool.get(epoch0), nullptr) << "recycle " << i;
    pool.release(mid);
    EXPECT_EQ(pool.get(mid), nullptr);
  }

  // The 256th reuse wraps the 8-bit generation back to the original handle's
  // value: the documented ABA caveat — the long-stale handle now aliases the
  // new occupant. This test pins the wrap boundary so a silent change to the
  // generation width or encoding shows up.
  const PacketRef epoch256 = pool.make(make_packet(1, 999));
  EXPECT_EQ(epoch256.raw(), epoch0.raw());
  ASSERT_NE(pool.get(epoch0), nullptr);
  EXPECT_EQ(pool.get(epoch0)->seq, 999u);
  EXPECT_EQ(pool.slots(), 1u) << "all 257 packets shared one recycled slot";
}

TEST(PacketPool, BurstPressureRecyclesWithoutGrowth) {
  PacketPool pool;
  // Prime the slab to burst depth once, then churn at that depth: the slab
  // high-water mark must not move (steady state never allocates).
  constexpr std::size_t kDepth = PacketBurst::kCapacity;
  std::vector<PacketRef> inflight;
  for (std::uint64_t round = 0; round < 1000; ++round) {
    for (std::uint64_t i = 0; i < kDepth; ++i) {
      inflight.push_back(pool.make(make_packet(3, round * kDepth + i)));
    }
    for (const PacketRef ref : inflight) {
      EXPECT_EQ(pool.take(ref).flow, 3u);
    }
    inflight.clear();
    EXPECT_EQ(pool.slots(), kDepth);
    EXPECT_EQ(pool.live(), 0u);
  }
}

TEST(PacketPool, StableAddressesAcrossGrowth) {
  PacketPool pool;
  const PacketRef first = pool.make(make_packet(1, 1));
  const Packet* before = pool.get(first);
  // Force several chunk allocations; the first packet must not move.
  std::vector<PacketRef> refs;
  for (std::uint64_t i = 0; i < 5000; ++i) refs.push_back(pool.make(make_packet(2, i)));
  EXPECT_EQ(pool.get(first), before);
  EXPECT_EQ(pool.get(first)->seq, 1u);
  for (const PacketRef ref : refs) pool.release(ref);
}

// ----------------------------------------------------------------- FlowTable

TEST(FlowTable, IterationIsIdOrderedRegardlessOfInsertionOrder) {
  // Same key set, three different construction histories (including slot
  // recycling through erase): for_each must visit identical id sequences.
  const std::vector<std::uint64_t> keys = {9, 2, 47, 5000, 3, 4096, 12};

  FlowTable<int> ascending;
  for (std::uint64_t id : {2u, 3u, 9u, 12u, 47u, 4096u, 5000u}) ascending[id] = 1;

  FlowTable<int> shuffled;
  for (std::uint64_t id : keys) shuffled[id] = 1;

  FlowTable<int> churned;  // interleave inserts with erases to recycle slots
  for (std::uint64_t id : keys) {
    churned[id] = 1;
    churned[id + 100000] = 2;
    churned.erase(id + 100000);
  }

  const auto walk = [](FlowTable<int>& table) {
    std::vector<std::uint64_t> seen;
    table.for_each([&](std::uint64_t id, int&) { seen.push_back(id); });
    return seen;
  };
  const std::vector<std::uint64_t> expected = {2, 3, 9, 12, 47, 4096, 5000};
  EXPECT_EQ(walk(ascending), expected);
  EXPECT_EQ(walk(shuffled), expected);
  EXPECT_EQ(walk(churned), expected);
}

TEST(FlowTable, DescendingWalkMirrorsAscending) {
  FlowTable<int> table;
  for (std::uint64_t id : {10u, 4u, 9000u, 77u}) table[id] = 1;
  std::vector<std::uint64_t> desc;
  table.for_each_desc([&](std::uint64_t id, int&) { desc.push_back(id); });
  EXPECT_EQ(desc, (std::vector<std::uint64_t>{9000, 77, 10, 4}));
}

TEST(FlowTable, RandomizedOrderMatchesReferenceUnderChurn) {
  // Fuzz for_each against a sorted reference set under heavy insert/erase
  // churn (slot and page reuse): iteration must always equal the sorted
  // live-key set, independent of the history that produced it.
  Rng rng(0xF10BB1E5);
  FlowTable<std::uint64_t> table;
  std::vector<std::uint64_t> live;
  for (int step = 0; step < 20000; ++step) {
    const auto id = static_cast<std::uint64_t>(rng.uniform(1, 3000));
    if (rng.chance(0.45)) {
      if (table.erase(id)) {
        live.erase(std::find(live.begin(), live.end(), id));
      }
    } else if (!table.contains(id)) {
      table[id] = id;
      live.push_back(id);
    }
  }
  std::sort(live.begin(), live.end());
  std::vector<std::uint64_t> seen;
  table.for_each([&](std::uint64_t id, std::uint64_t& value) {
    EXPECT_EQ(value, id);
    seen.push_back(id);
  });
  EXPECT_EQ(seen, live);
  EXPECT_EQ(table.size(), live.size());
}

// ------------------------------------------------- SoA vs AoS LLC equivalence

// Replays one randomized DMA/CPU op trace against the production SoA model
// and the frozen AoS oracle, asserting every observable matches exactly:
// per-op results (hit/miss, eviction victim + attribution), aggregate stats,
// occupancy, residency, and — when tenanted — per-tenant stats, which it
// returns (the production model's; empty when untenanted).
std::vector<TenantLlcStats> replay_trace(const LlcConfig& config, std::uint64_t seed, int ops,
                                         BufferId id_space, const std::vector<int>& tenant_ways) {
  LlcModel soa(config);
  ceio_aos::LlcConfig aos_config;  // the oracle namespace has its own twin type
  aos_config.total_bytes = config.total_bytes;
  aos_config.ways = config.ways;
  aos_config.ddio_ways = config.ddio_ways;
  aos_config.buffer_bytes = config.buffer_bytes;
  ceio_aos::LlcModel aos(aos_config);
  const bool tenanted = !tenant_ways.empty();
  if (tenanted) {
    soa.set_tenant_ways(tenant_ways);
    aos.set_tenant_ways(tenant_ways);
    // Split the id space into contiguous per-tenant ranges.
    const BufferId stride = id_space / tenant_ways.size() + 1;
    for (std::size_t t = 0; t < tenant_ways.size(); ++t) {
      soa.add_tenant_range(1 + t * stride, 1 + (t + 1) * stride, t);
      aos.add_tenant_range(1 + t * stride, 1 + (t + 1) * stride, t);
    }
  }

  const auto expect_same_eviction = [](const LlcModel::Evicted& s,
                                       const ceio_aos::LlcModel::Evicted& a, int op) {
    EXPECT_EQ(s.happened, a.happened) << "op " << op;
    EXPECT_EQ(s.victim, a.victim) << "op " << op;
    EXPECT_EQ(s.victim_bytes.count(), a.victim_bytes.count()) << "op " << op;
    EXPECT_EQ(s.dirty, a.dirty) << "op " << op;
    EXPECT_EQ(s.never_read, a.never_read) << "op " << op;
  };

  Rng rng(seed);
  for (int op = 0; op < ops; ++op) {
    const auto id = static_cast<BufferId>(rng.uniform(1, static_cast<std::int64_t>(id_space)));
    const Bytes size{rng.uniform(64, 2048)};
    const auto kind = rng.uniform(0, 9);
    if (kind < 4) {  // DMA write (the dominant op on the RX path)
      const bool expect_read = rng.chance(0.8);
      expect_same_eviction(soa.ddio_write(id, size, expect_read),
                           aos.ddio_write(id, size, expect_read), op);
    } else if (kind < 7) {  // CPU read
      LlcModel::Evicted se;
      ceio_aos::LlcModel::Evicted ae;
      EXPECT_EQ(soa.cpu_read(id, size, &se), aos.cpu_read(id, size, &ae)) << "op " << op;
      expect_same_eviction(se, ae, op);
    } else if (kind < 9) {  // CPU write
      LlcModel::Evicted se;
      ceio_aos::LlcModel::Evicted ae;
      EXPECT_EQ(soa.cpu_write(id, size, &se), aos.cpu_write(id, size, &ae)) << "op " << op;
      expect_same_eviction(se, ae, op);
    } else {  // buffer recycled
      soa.invalidate(id);
      aos.invalidate(id);
    }
    if (op % 64 == 0) {
      const auto probe = static_cast<BufferId>(rng.uniform(1, static_cast<std::int64_t>(id_space)));
      EXPECT_EQ(soa.resident(probe), aos.resident(probe)) << "op " << op;
      EXPECT_EQ(soa.ddio_occupancy(), aos.ddio_occupancy()) << "op " << op;
    }
  }

  const LlcStats& ss = soa.stats();
  const ceio_aos::LlcStats& as = aos.stats();
  EXPECT_EQ(ss.ddio_writes, as.ddio_writes);
  EXPECT_EQ(ss.cpu_hits, as.cpu_hits);
  EXPECT_EQ(ss.cpu_misses, as.cpu_misses);
  EXPECT_EQ(ss.evictions, as.evictions);
  EXPECT_EQ(ss.premature_evictions, as.premature_evictions);
  EXPECT_EQ(ss.writebacks, as.writebacks);
  EXPECT_EQ(soa.ddio_capacity(), aos.ddio_capacity());
  std::vector<TenantLlcStats> tenants;
  if (tenanted) {
    for (std::size_t t = 0; t < tenant_ways.size(); ++t) {
      const TenantLlcStats& st = soa.tenant_stats(t);
      tenants.push_back(st);
      const ceio_aos::TenantLlcStats& at = aos.tenant_stats(t);
      EXPECT_EQ(st.fills, at.fills) << "tenant " << t;
      EXPECT_EQ(st.evictions, at.evictions) << "tenant " << t;
      EXPECT_EQ(st.premature_evictions, at.premature_evictions) << "tenant " << t;
      EXPECT_EQ(st.writebacks, at.writebacks) << "tenant " << t;
      EXPECT_EQ(st.budget_bypasses, at.budget_bypasses) << "tenant " << t;
      EXPECT_EQ(soa.tenant_ddio_occupancy(t), aos.tenant_ddio_occupancy(t)) << "tenant " << t;
      EXPECT_EQ(soa.tenant_way_capacity(t), aos.tenant_way_capacity(t)) << "tenant " << t;
    }
  }
  return tenants;
}

TEST(SoaAosOracle, DefaultGeometryRandomTrace) {
  replay_trace(LlcConfig{}, 0x5EED0001, 60000, 12000, {});
}

TEST(SoaAosOracle, TinyCacheHeavyEvictionTrace) {
  LlcConfig config;
  config.total_bytes = 64 * kKiB;  // 4 sets x 8 ways: constant eviction churn
  config.ways = 8;
  config.ddio_ways = 3;
  config.buffer_bytes = 2 * kKiB;
  replay_trace(config, 0x5EED0002, 60000, 500, {});
}

TEST(SoaAosOracle, NonPowerOfTwoSetsTrace) {
  LlcConfig config;
  config.total_bytes = 9 * kMiB;  // 768 sets at 6 ways: modulo set reduction
  config.ways = 6;
  config.ddio_ways = 2;
  replay_trace(config, 0x5EED0003, 40000, 8000, {});
}

TEST(SoaAosOracle, TenantedSlicesAndSharedPoolTrace) {
  LlcConfig config;
  config.total_bytes = 512 * kKiB;
  config.ways = 8;
  config.ddio_ways = 4;
  // Two exclusive ways + a 2-way shared pool.
  replay_trace(config, 0x5EED0004, 50000, 2000, {1, 1});
}

TEST(SoaAosOracle, TenantedUnequalSlicesTrace) {
  LlcConfig config;
  config.total_bytes = 512 * kKiB;
  config.ways = 8;
  config.ddio_ways = 4;
  // Unequal exclusive slices (2 + 1 ways) + a 1-way shared pool.
  replay_trace(config, 0x5EED0005, 50000, 2000, {2, 1});
  // Tenant 0 claims every DDIO way and leaves no shared pool, so tenant 1
  // reaches no way: each of its DMA writes bypasses the cache uncached.
  const auto tenants = replay_trace(config, 0x5EED0007, 50000, 2000, {4, 0});
  ASSERT_EQ(tenants.size(), 2u);
  EXPECT_EQ(tenants[0].budget_bypasses, 0);
  EXPECT_GT(tenants[1].budget_bypasses, 0);
}

TEST(SoaAosOracle, SingleWayDegenerateTrace) {
  LlcConfig config;
  config.total_bytes = 8 * kKiB;  // 4 sets x 1 way, all DDIO
  config.ways = 1;
  config.ddio_ways = 1;
  replay_trace(config, 0x5EED0006, 20000, 200, {});
}

}  // namespace
}  // namespace ceio
