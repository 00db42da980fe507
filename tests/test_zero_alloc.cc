// Steady-state zero-allocation guarantee for the KV pipeline.
//
// The hot-path data-layout work (pooled packet handles, dense flow table,
// inline completion callbacks, grow-only FIFOs, the message-start window)
// exists so that once the pipeline is warm, moving a packet from the NIC to
// the application and back touches no allocator at all. This binary replaces
// global operator new with a counting shim (same pattern as the scheduler's
// allocation tests) and asserts the count stays flat across a measurement
// window of a full CEIO + KV run, at the default 64-byte values: a
// steady-state put overwrites its value in place.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "apps/kv_store.h"
#include "common/units.h"
#include "harness/experiment.h"
#include "iopath/testbed.h"

namespace {
std::atomic<std::uint64_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  ++g_allocations;
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  ++g_allocations;
  return std::malloc(size);
}

// GCC's -Wmismatched-new-delete pairs inlined `new` expressions with the
// malloc inside the replaced operator and flags the matching free() as a
// mismatch — a false positive for replaced global allocators like this
// counting shim, where malloc/free pairing is the whole point.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }

namespace ceio {
namespace {

// The guarantee is a release-build hot-path property. Audit builds schedule
// periodic invariant sweeps that allocate by design, and sanitizer runtimes
// interpose on the allocator underneath the counting shim, so in both cases
// the count measures instrumentation rather than the pipeline.
#if defined(CEIO_AUDIT) && CEIO_AUDIT
#define CEIO_ZERO_ALLOC_MEANINGLESS "audit invariant sweeps allocate by design"
#elif defined(__SANITIZE_ADDRESS__)
#define CEIO_ZERO_ALLOC_MEANINGLESS "ASan interposes on the allocator"
#elif defined(__SANITIZE_THREAD__)
#define CEIO_ZERO_ALLOC_MEANINGLESS "TSan interposes on the allocator"
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define CEIO_ZERO_ALLOC_MEANINGLESS "sanitizer interposes on the allocator"
#endif
#endif

TEST(ZeroAlloc, KvPipelineSteadyStateDoesNotAllocate) {
#ifdef CEIO_ZERO_ALLOC_MEANINGLESS
  GTEST_SKIP() << CEIO_ZERO_ALLOC_MEANINGLESS;
#endif
  TestbedConfig tc;
  tc.system = SystemKind::kCeio;
  tc.seed = 7;
  Testbed bed(tc);
  KvStore& kv = bed.make_kv_store();
  harness::WorkloadSpec rpc;
  rpc.offered_rate = gbps(10.0);  // light enough that no ring/queue drops occur
  for (FlowId id = 1; id <= 4; ++id) {
    bed.add_flow(harness::flow_config(id, rpc), kv);
  }

  // Warmup: packet pool chunks, ring capacities, scheduler slot pool,
  // histogram buckets and flow-table pages all reach their high-water marks.
  bed.run_for(millis(2));
  bed.reset_measurement();
  const std::size_t warm_pool_slots = bed.datapath().pool_slots();

  const std::uint64_t before = g_allocations.load();
  bed.run_for(millis(5));
  const std::uint64_t after = g_allocations.load();

  EXPECT_EQ(after - before, 0u)
      << "KV steady state performed " << (after - before) << " heap allocations";
  // The packet pool recycled its warm slots rather than growing new chunks.
  EXPECT_EQ(bed.datapath().pool_slots(), warm_pool_slots);
  // The run actually moved traffic (the assertion above is meaningless on an
  // idle pipeline).
  EXPECT_GT(bed.aggregate_mpps(), 0.0);
}

}  // namespace
}  // namespace ceio
