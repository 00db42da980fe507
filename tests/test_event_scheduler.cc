// Unit tests for the discrete-event scheduler: ordering, determinism,
// cancellation and deadline semantics, the three tiers (timing wheel, far
// wheel, overflow heap) and the streams merged with them, checked against a
// reference ordered set, plus the allocation-free guarantees of the
// slot-pool implementation.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <deque>
#include <map>
#include <memory>
#include <new>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "sim/coalesced_stream.h"
#include "sim/event_scheduler.h"

// Global allocation counter: lets tests assert that the scheduler's
// steady-state schedule/fire cycle never touches the heap. Counting is
// always on; tests snapshot the counter around the region of interest.
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

TEST(EventScheduler, RunsInTimeOrder) {
  EventScheduler sched;
  std::vector<int> order;
  sched.schedule_at(Nanos{30}, [&]() { order.push_back(3); });
  sched.schedule_at(Nanos{10}, [&]() { order.push_back(1); });
  sched.schedule_at(Nanos{20}, [&]() { order.push_back(2); });
  sched.run_all();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sched.now(), Nanos{30});
}

TEST(EventScheduler, EqualTimestampsAreFifo) {
  EventScheduler sched;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sched.schedule_at(Nanos{5}, [&order, i]() { order.push_back(i); });
  }
  sched.run_all();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(EventScheduler, PastTimesClampToNow) {
  EventScheduler sched;
  sched.schedule_at(Nanos{100}, []() {});
  sched.run_all();
  Nanos fired_at{-1};
  sched.schedule_at(Nanos{50}, [&]() { fired_at = sched.now(); });
  sched.run_all();
  EXPECT_EQ(fired_at, Nanos{100});
}

TEST(EventScheduler, ScheduleAfterNegativeDelayIsNow) {
  EventScheduler sched;
  sched.schedule_at(Nanos{10}, []() {});
  sched.run_all();
  Nanos fired_at{-1};
  sched.schedule_after(Nanos{-5}, [&]() { fired_at = sched.now(); });
  sched.run_all();
  EXPECT_EQ(fired_at, Nanos{10});
}

TEST(EventScheduler, CancelPreventsExecution) {
  EventScheduler sched;
  bool ran = false;
  const auto handle = sched.schedule_at(Nanos{10}, [&]() { ran = true; });
  EXPECT_TRUE(sched.is_pending(handle));
  EXPECT_TRUE(sched.cancel(handle));
  EXPECT_FALSE(sched.is_pending(handle));
  sched.run_all();
  EXPECT_FALSE(ran);
  // Second cancel is a no-op.
  EXPECT_FALSE(sched.cancel(handle));
}

TEST(EventScheduler, CancelAfterFireIsNoop) {
  EventScheduler sched;
  const auto handle = sched.schedule_at(Nanos{1}, []() {});
  sched.run_all();
  EXPECT_FALSE(sched.cancel(handle));
  EXPECT_EQ(sched.pending(), 0u);
}

TEST(EventScheduler, RunUntilStopsAtDeadline) {
  EventScheduler sched;
  int count = 0;
  sched.schedule_at(Nanos{10}, [&]() { ++count; });
  sched.schedule_at(Nanos{20}, [&]() { ++count; });
  sched.schedule_at(Nanos{30}, [&]() { ++count; });
  EXPECT_EQ(sched.run_until(Nanos{20}), 2u);
  EXPECT_EQ(count, 2);
  EXPECT_EQ(sched.now(), Nanos{20});  // time advances exactly to the deadline
  EXPECT_EQ(sched.pending(), 1u);
  sched.run_until(Nanos{100});
  EXPECT_EQ(count, 3);
  EXPECT_EQ(sched.now(), Nanos{100});
}

TEST(EventScheduler, EventsScheduledDuringRunExecute) {
  EventScheduler sched;
  std::vector<Nanos> fire_times;
  sched.schedule_at(Nanos{10}, [&]() {
    fire_times.push_back(sched.now());
    sched.schedule_after(Nanos{5}, [&]() { fire_times.push_back(sched.now()); });
  });
  sched.run_until(Nanos{100});
  EXPECT_EQ(fire_times, (std::vector<Nanos>{Nanos{10}, Nanos{15}}));
}

TEST(EventScheduler, StepExecutesExactlyOne) {
  EventScheduler sched;
  int count = 0;
  sched.schedule_at(Nanos{1}, [&]() { ++count; });
  sched.schedule_at(Nanos{2}, [&]() { ++count; });
  EXPECT_TRUE(sched.step());
  EXPECT_EQ(count, 1);
  EXPECT_TRUE(sched.step());
  EXPECT_FALSE(sched.step());
  EXPECT_EQ(count, 2);
}

TEST(EventScheduler, PendingCountsExcludeCancelled) {
  EventScheduler sched;
  const auto a = sched.schedule_at(Nanos{1}, []() {});
  sched.schedule_at(Nanos{2}, []() {});
  EXPECT_EQ(sched.pending(), 2u);
  sched.cancel(a);
  EXPECT_EQ(sched.pending(), 1u);
  EXPECT_FALSE(sched.empty());
  sched.run_all();
  EXPECT_TRUE(sched.empty());
}

TEST(EventScheduler, ExecutedCounter) {
  EventScheduler sched;
  for (int i = 0; i < 5; ++i) sched.schedule_at(Nanos{i}, []() {});
  sched.run_all();
  EXPECT_EQ(sched.executed(), 5u);
}

// Cancelling a far-future event must release its callback (and any owning
// state it captured) immediately — not when the timestamp is eventually
// reached. The old implementation pinned captures until the tombstone
// popped; a cancelled retransmit timer could keep a whole flow alive.
TEST(EventScheduler, CancelReleasesCapturedStateImmediately) {
  EventScheduler sched;
  auto payload = std::make_shared<int>(42);
  EXPECT_EQ(payload.use_count(), 1);
  const auto handle =
      sched.schedule_at(Nanos{1'000'000'000}, [payload]() { (void)*payload; });
  EXPECT_EQ(payload.use_count(), 2);
  EXPECT_TRUE(sched.cancel(handle));
  // Released at cancel time, long before t=1s would fire.
  EXPECT_EQ(payload.use_count(), 1);
  EXPECT_EQ(sched.now(), Nanos{0});
}

// Firing an event must also drop its callback promptly (the pool slot is
// recycled, not left holding the last capture).
TEST(EventScheduler, FireReleasesCapturedState) {
  EventScheduler sched;
  auto payload = std::make_shared<int>(7);
  sched.schedule_at(Nanos{5}, [payload]() {});
  EXPECT_EQ(payload.use_count(), 2);
  sched.run_all();
  EXPECT_EQ(payload.use_count(), 1);
}

// A stale handle to a recycled slot must not cancel the slot's new occupant.
TEST(EventScheduler, StaleHandleCannotCancelRecycledSlot) {
  EventScheduler sched;
  bool second_ran = false;
  const auto first = sched.schedule_at(Nanos{10}, []() {});
  EXPECT_TRUE(sched.cancel(first));  // slot returns to the free list
  // The next schedule reuses the freed slot (fresh scheduler: only one slot).
  const auto second = sched.schedule_at(Nanos{20}, [&]() { second_ran = true; });
  EXPECT_FALSE(sched.cancel(first));      // stale: generation mismatch
  EXPECT_FALSE(sched.is_pending(first));  // stale handles are not pending
  EXPECT_TRUE(sched.is_pending(second));
  sched.run_all();
  EXPECT_TRUE(second_ran);
}

// Same for a handle whose event already fired: the recycled slot's new
// occupant must be immune to it.
TEST(EventScheduler, HandleOfFiredEventCannotCancelReusedSlot) {
  EventScheduler sched;
  const auto first = sched.schedule_at(Nanos{1}, []() {});
  sched.run_all();
  bool ran = false;
  sched.schedule_at(Nanos{2}, [&]() { ran = true; });
  EXPECT_FALSE(sched.cancel(first));
  sched.run_all();
  EXPECT_TRUE(ran);
}

// Determinism stress: N events at identical timestamps interleaved with
// random cancels and reschedules must execute in byte-identical order across
// two independently-constructed, identically-seeded runs.
std::vector<int> run_stress_trace(std::uint64_t seed) {
  EventScheduler sched;
  Rng rng(seed);
  std::vector<int> trace;
  std::vector<EventHandle> handles;
  // Burst of same-timestamp events (FIFO tiebreak exercised), some of which
  // reschedule or cancel others when they fire.
  for (int round = 0; round < 20; ++round) {
    const Nanos base = sched.now() + Nanos{10};
    for (int i = 0; i < 50; ++i) {
      const int tag = round * 1000 + i;
      handles.push_back(sched.schedule_at(base, [&, tag]() {
        trace.push_back(tag);
        if (rng.chance(0.3) && !handles.empty()) {
          const auto pick = static_cast<std::size_t>(
              rng.uniform(0, static_cast<std::int64_t>(handles.size()) - 1));
          sched.cancel(handles[pick]);
        }
        if (rng.chance(0.4)) {
          handles.push_back(sched.schedule_after(Nanos{rng.uniform(0, 5)},
                                                 [&, tag]() { trace.push_back(-tag); }));
        }
      }));
    }
    // Random pre-run cancels of the burst.
    for (int c = 0; c < 10; ++c) {
      const auto pick = static_cast<std::size_t>(
          rng.uniform(0, static_cast<std::int64_t>(handles.size()) - 1));
      sched.cancel(handles[pick]);
    }
    sched.run_until(base + Nanos{100});
  }
  sched.run_all();
  return trace;
}

TEST(EventScheduler, StressRunsAreDeterministic) {
  const auto a = run_stress_trace(0xDE7E12);
  const auto b = run_stress_trace(0xDE7E12);
  EXPECT_FALSE(a.empty());
  EXPECT_EQ(a, b);
  // A different seed produces a different interleaving (sanity check that
  // the trace actually depends on the random cancels/reschedules).
  const auto c = run_stress_trace(0xDE7E13);
  EXPECT_NE(a, c);
}

// A timer that re-arms itself a fixed period after each fire until told to
// stop: the DCTCP window pattern.
struct PeriodicTimer {
  EventScheduler* sched;
  std::uint64_t* fired;
  const bool* running;
  Nanos period;
  void operator()() const {
    ++*fired;
    if (*running) sched->schedule_after(period, *this);
  }
};

// The steady-state schedule/fire cycle must be allocation-free for callbacks
// with <= 48 bytes of capture: slots, far slots and heap storage are
// recycled, and the InlineFunction callback stays in its inline buffer. The
// cycle covers every tier: 3 ns events in the wheel, a 20 µs re-arming timer
// in the far tier, and 1–5 ms events that wait in the heap, migrate to the
// far tier and cascade into the wheel as run_until() moves the clock.
TEST(EventScheduler, SteadyStateScheduleFireIsAllocationFree) {
  EventScheduler sched;
  std::uint64_t fired = 0;
  std::uint64_t pad1 = 0, pad2 = 0;  // widen the capture towards the budget
  bool running = true;
  Rng rng(7);
  const auto cycle = [&](int iterations) {
    for (int i = 0; i < iterations; ++i) {
      const auto h = sched.schedule_after(Nanos{3}, [&fired, &pad1, &pad2]() {
        ++fired;
        pad1 += pad2;
      });
      if ((i & 7) == 0) {
        sched.cancel(h);
      } else {
        sched.step();
      }
      if ((i & 255) == 0) {
        sched.schedule_after(Nanos{rng.uniform(1'000'000, 5'000'000)}, [&fired]() { ++fired; });
      }
      if ((i & 63) == 0) sched.run_until(sched.now() + Nanos{50'000});
    }
  };
  // Warm up: grow the slot pool and heap vector to steady-state capacity.
  for (int i = 0; i < 512; ++i) {
    sched.schedule_after(Nanos{i % 17}, [&fired, &pad1, &pad2]() {
      ++fired;
      pad1 += pad2;
    });
  }
  for (int i = 0; i < 64; ++i) sched.schedule_after(Nanos{3'000'000 + i}, [&fired]() { ++fired; });
  sched.run_all();
  sched.schedule_after(Nanos{20'000}, PeriodicTimer{&sched, &fired, &running, Nanos{20'000}});
  cycle(2'000);
  const std::uint64_t before = g_allocations.load();
  // Steady state: one live near event at a time, recycled through the pool,
  // beside the far-tier and heap traffic.
  cycle(10'000);
  running = false;
  sched.run_all();
  EXPECT_EQ(g_allocations.load(), before) << "schedule/fire/cancel cycle allocated";
  EXPECT_GT(fired, 0u);
}

// Deeper steady state: hold a large pending queue while churning events
// across every tier (near delays, 20 µs re-arms, and 1–5 ms timers that take
// heap -> far -> wheel); no allocations once the pool and the heap have grown
// to the high-water mark.
TEST(EventScheduler, DeepQueueChurnIsAllocationFree) {
  EventScheduler sched;
  std::uint64_t fired = 0;
  Rng rng(99);
  const auto delay = [&rng](int i) {
    switch (i & 7) {
      case 0:
        return Nanos{20'000};
      case 1:
        return Nanos{rng.uniform(1'000'000, 5'000'000)};
      default:
        return Nanos{rng.uniform(1, 1000)};
    }
  };
  // Grow the pool and the heap to the queue depth: all of these lie past
  // the far horizon.
  for (int i = 0; i < 4096; ++i) sched.schedule_after(Nanos{3'000'000 + i}, [&fired]() { ++fired; });
  sched.run_all();
  for (int i = 0; i < 4096; ++i) sched.schedule_after(delay(i), [&fired]() { ++fired; });
  const Nanos start = sched.now();
  const std::uint64_t before = g_allocations.load();
  for (int i = 0; i < 60'000; ++i) {
    sched.step();
    sched.schedule_after(delay(i), [&fired]() { ++fired; });
  }
  EXPECT_EQ(g_allocations.load(), before) << "deep-queue churn allocated";
  // Long enough for the first 1–5 ms timers to have left the heap.
  EXPECT_GT(sched.now() - start, Nanos{3'000'000});
  sched.run_all();
  EXPECT_EQ(fired, 2 * 4096u + 60'000u);
}

// Captures beyond the 48-byte inline budget still work (heap fallback).
TEST(EventScheduler, OversizedCapturesStillExecute) {
  EventScheduler sched;
  std::string a(100, 'x'), b(100, 'y');
  std::vector<int> big(32, 7);
  std::string got;
  sched.schedule_at(Nanos{5}, [a, b, big, &got]() { got = a.substr(0, 1) + b.substr(0, 1); });
  sched.run_all();
  EXPECT_EQ(got, "xy");
}

// ---- Three-tier edge cases: timing wheel, far wheel, overflow heap ----

// Events past the near window wait in the far tier (under ~2.1 ms) or the
// heap (beyond it) and move down as time advances; execution order stays
// exact (time, then FIFO).
TEST(EventScheduler, FarFutureSpillsToHeapAndFiresInOrder) {
  EventScheduler sched;
  std::vector<int> order;
  sched.schedule_at(Nanos{100'000}, [&]() { order.push_back(2); });    // far tier
  sched.schedule_at(Nanos{10}, [&]() { order.push_back(0); });         // near: wheel
  sched.schedule_at(Nanos{5'000}, [&]() { order.push_back(1); });      // far, then cascades
  sched.schedule_at(Nanos{100'000}, [&]() { order.push_back(3); });    // same-tick FIFO in far
  sched.schedule_at(Nanos{5'000'000}, [&]() { order.push_back(4); });  // past the horizon: heap
  sched.run_all();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
  EXPECT_EQ(sched.now(), Nanos{5'000'000});
}

// An event that cascaded out of the far tier keeps FIFO priority over
// same-tick events scheduled later directly into the wheel: FIFO is decided
// by schedule order, not by which tier the event waited in.
TEST(EventScheduler, SameTickFifoSurvivesHeapMigration) {
  EventScheduler sched;
  std::vector<int> order;
  const Nanos t{50'000};
  sched.schedule_at(t, [&]() { order.push_back(1); });  // far tier
  sched.run_until(Nanos{49'000});                       // cascades it into the wheel
  sched.schedule_at(t, [&]() { order.push_back(2); });  // direct wheel inserts
  sched.schedule_at(t, [&]() { order.push_back(3); });
  sched.run_all();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

// Cancel tombstones a wheel or far slot / unlinks a heap slot; either way
// the slot recycles and the stale handle must not touch its new occupant.
TEST(EventScheduler, CancelThenReuseAcrossTiers) {
  EventScheduler sched;
  int fired = 0;
  auto near = sched.schedule_at(Nanos{100}, [&]() { fired += 100; });        // wheel
  auto far = sched.schedule_at(Nanos{1'000'000}, [&]() { fired += 1000; });  // far tier
  auto overflow = sched.schedule_at(Nanos{9'000'000}, [&]() { fired += 10'000; });  // heap
  EXPECT_TRUE(sched.cancel(near));
  EXPECT_TRUE(sched.cancel(far));
  EXPECT_TRUE(sched.cancel(overflow));
  EXPECT_FALSE(sched.is_pending(near));
  EXPECT_FALSE(sched.is_pending(far));
  EXPECT_FALSE(sched.is_pending(overflow));
  // New events reuse the freed slots (LIFO free list).
  sched.schedule_at(Nanos{200}, [&]() { ++fired; });
  sched.schedule_at(Nanos{2'000'000}, [&]() { ++fired; });
  sched.schedule_at(Nanos{8'000'000}, [&]() { ++fired; });
  EXPECT_FALSE(sched.cancel(near));
  EXPECT_FALSE(sched.cancel(far));
  EXPECT_FALSE(sched.cancel(overflow));
  sched.run_all();
  EXPECT_EQ(fired, 3);
}

// A handle from an event that cascaded far tier -> wheel still cancels it,
// and a cancel-after-fire across the cascade stays a no-op.
TEST(EventScheduler, CancelTracksEventAcrossMigration) {
  EventScheduler sched;
  int fired = 0;
  auto h1 = sched.schedule_at(Nanos{30'000}, [&]() { ++fired; });
  auto h2 = sched.schedule_at(Nanos{30'001}, [&]() { ++fired; });
  sched.run_until(Nanos{29'000});  // both cascade into the wheel
  EXPECT_TRUE(sched.cancel(h1));
  sched.run_all();
  EXPECT_EQ(fired, 1);
  EXPECT_FALSE(sched.cancel(h2));  // already fired
}

// An event past the far horizon waits in the heap, moves to the far tier and
// then into the wheel as time advances. Through both moves it keeps its FIFO
// place against same-tick events scheduled later straight into each tier,
// and a handle cancels a same-tick sibling at every stage.
TEST(EventScheduler, OverflowEventMovesHeapFarWheelKeepingFifoAndHandles) {
  EventScheduler sched;
  std::vector<int> order;
  const Nanos t{10'000'000};  // 10 ms: past the ~2.1 ms far horizon
  const auto expect_front = [&](std::size_t pending) {
    EXPECT_EQ(sched.pending(), pending);
    EventScheduler::EventKey key{};
    ASSERT_TRUE(sched.peek(key));
    EXPECT_EQ(key.when, t);
    EXPECT_EQ(key.seq, 1u);
  };
  sched.schedule_at(t, [&]() { order.push_back(1); });
  const auto in_heap = sched.schedule_at(t, [&]() { order.push_back(-1); });
  const auto in_far = sched.schedule_at(t, [&]() { order.push_back(-2); });
  const auto in_wheel = sched.schedule_at(t, [&]() { order.push_back(-3); });
  EXPECT_TRUE(sched.cancel(in_heap));
  expect_front(3);
  sched.run_until(t - Nanos{1'000'000});  // 1 ms out: the far tier
  sched.schedule_at(t, [&]() { order.push_back(2); });
  EXPECT_TRUE(sched.cancel(in_far));
  expect_front(3);
  sched.run_until(t - Nanos{1'000});  // 1 µs out: the wheel
  sched.schedule_at(t, [&]() { order.push_back(3); });
  EXPECT_TRUE(sched.cancel(in_wheel));
  expect_front(3);
  EXPECT_FALSE(sched.cancel(in_heap));
  EXPECT_FALSE(sched.cancel(in_far));
  EXPECT_EQ(sched.run_all(), 3u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sched.now(), t);
}

// Past timestamps still clamp to now() after the wheel has wrapped several
// full rotations (cursor far from slot zero).
TEST(EventScheduler, PastTimesClampAfterWheelWrap) {
  EventScheduler sched;
  sched.run_until(Nanos{20'000});  // > 4 wheel rotations of 4096 ticks
  int fired = 0;
  sched.schedule_at(Nanos{3'000}, [&]() { ++fired; });  // long past
  sched.run_all();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sched.now(), Nanos{20'000});
}

// Recurring self-scheduling pattern used by controller loops.
TEST(EventScheduler, SelfRescheduleLoop) {
  EventScheduler sched;
  int ticks = 0;
  std::function<void()> tick = [&]() {
    ++ticks;
    if (ticks < 10) sched.schedule_after(Nanos{100}, tick);
  };
  sched.schedule_after(Nanos{100}, tick);
  sched.run_until(Nanos{10'000});
  EXPECT_EQ(ticks, 10);
  EXPECT_EQ(sched.now(), Nanos{10'000});
}

// ---- Streams: FIFO hops merged into the dispatch order ----

// A stream item sorts by the seq its push drew: it runs between the events
// scheduled before and after the push at the same instant, at now() == its
// deadline, and counts in pending() and executed() like an event.
TEST(CoalescedStream, ItemsTakeTheirPlaceInTheSeqOrder) {
  EventScheduler sched;
  std::vector<int> order;
  CoalescedStream<int> stream(sched, [&](Nanos when, int tag) {
    EXPECT_EQ(sched.now(), when);
    order.push_back(tag);
  });
  sched.schedule_at(Nanos{10}, [&]() { order.push_back(1); });
  stream.push(Nanos{10}, 2);
  sched.schedule_at(Nanos{10}, [&]() { order.push_back(3); });
  stream.push(Nanos{10}, 4);
  stream.push(Nanos{12}, 6);
  sched.schedule_at(Nanos{11}, [&]() { order.push_back(5); });
  EXPECT_EQ(sched.pending(), 6u);
  EventScheduler::EventKey key{};
  ASSERT_TRUE(sched.peek(key));
  EXPECT_EQ(key.when, Nanos{10});
  EXPECT_EQ(key.seq, 1u);
  EXPECT_EQ(sched.run_until(Nanos{11}), 5u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4, 5}));
  EXPECT_EQ(sched.pending(), 1u);
  EXPECT_EQ(stream.size(), 1u);
  EXPECT_TRUE(sched.step());
  EXPECT_EQ(order.back(), 6);
  EXPECT_EQ(sched.executed(), 6u);
  EXPECT_TRUE(sched.empty());
  EXPECT_FALSE(sched.peek(key));
}

// The scheduler trusts each stream's front to be its least key, so push
// refuses, in every build, a deadline before now() or before the previous
// one, and names both times.
TEST(CoalescedStream, RefusesDecreasingDeadlines) {
  EventScheduler sched;
  CoalescedStream<int> stream(sched, [](Nanos, int) {});
  stream.push(Nanos{100}, 1);
  try {
    stream.push(Nanos{99}, 2);
    FAIL() << "a decreasing deadline was accepted";
  } catch (const std::logic_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("99 ns"), std::string::npos) << what;
    EXPECT_NE(what.find("previous deadline 100 ns"), std::string::npos) << what;
  }
  sched.run_until(Nanos{200});
  EXPECT_THROW(stream.push(Nanos{150}, 3), std::logic_error);
  EXPECT_TRUE(stream.empty());
  EXPECT_EQ(sched.pending(), 0u);
}

// ---- Differential check against a reference ordered set ----

// Drives one scheduler with a seeded mix of operations and checks it against
// a std::set of (when, seq) keys whose seq counter advances exactly where the
// scheduler's does. Plain events are scheduled across every tier (same-tick,
// near, far, synchronised 20 µs timers, multi-ms overflow) and cancelled at
// random. Six CoalescedStreams (three levels of the scheduler's heap of
// stream heads) take trains of items, same-instant or 1 ns apart, pushed
// from the main loop and from inside handlers; now and then one is
// destroyed while it still holds items and a fresh one takes its place. The main loop mixes step(), run_until() windows (some ending inside
// a train) and rare 30 ms jumps. Each of the 40 instances below runs one
// seed.
class SchedulerDifferential : public ::testing::TestWithParam<int> {
 protected:
  using Key = std::pair<std::int64_t, std::uint64_t>;  // (when, seq)
  using Stream = CoalescedStream<Key>;
  static constexpr std::size_t kStreams = 6;

  SchedulerDifferential() : rng_(static_cast<std::uint64_t>(GetParam())) {
    for (std::size_t s = 0; s < kStreams; ++s) open_stream(s);
  }

  void run() {
    for (int i = 0; i < 64; ++i) schedule_fresh();
    for (std::size_t s = 0; s < kStreams; ++s) push_train(s);
    for (int op = 0; op < 1500 && !HasFailure(); ++op) {
      const std::int64_t pick = rng_.uniform(0, 99);
      if (pick < 65) {
        const bool any = !pending_.empty();
        EXPECT_EQ(sched_.step(), any);
      } else if (pick < 70) {
        run_into_train();
      } else if (pick < 72) {
        close_stream(static_cast<std::size_t>(rng_.uniform(0, kStreams - 1)));
      } else {
        const Nanos deadline =
            sched_.now() + (pick < 99 ? Nanos{rng_.uniform(0, 50'000)} : Nanos{30'000'000});
        run_window(deadline);
      }
      check_front();
      while (pending_.size() < 32) schedule_fresh();
      for (std::size_t s = 0; s < kStreams; ++s) {
        if (streams_[s].items.empty()) push_train(s);
      }
    }
    draining_ = true;  // run what is left without scheduling more
    sched_.run_all();
    EXPECT_TRUE(pending_.empty());
    EXPECT_EQ(sched_.pending(), 0u);
    EXPECT_EQ(sched_.executed(), executed_);
  }

  struct StreamState {
    std::unique_ptr<Stream> stream;
    std::deque<Key> items;  // mirrors the stream's FIFO
  };

  Nanos draw_delay() {
    switch (rng_.uniform(0, 5)) {
      case 0:
        return Nanos{rng_.uniform(0, 3)};
      case 1:
        return Nanos{rng_.uniform(0, 5'000)};
      case 2:
        return Nanos{rng_.uniform(2'000, 30'000)};
      case 3:
        return Nanos{20'000};
      case 4:
        return Nanos{rng_.uniform(100'000, 3'000'000)};
      default:
        return Nanos{rng_.uniform(2'000'000, 20'000'000)};
    }
  }

  void schedule_fresh() {
    const Nanos when = sched_.now() + draw_delay();
    const Key key{when.count(), next_seq_++};
    track(key, sched_.schedule_at(when, [this, key]() { on_fire(key); }));
  }

  void open_stream(std::size_t s) {
    streams_[s].stream = std::make_unique<Stream>(
        sched_, [this, s](Nanos when, Key key) { on_item(s, when, key); });
  }

  /// Destroys stream `s` with whatever it holds, then opens a fresh one.
  void close_stream(std::size_t s) {
    for (const Key& key : streams_[s].items) pending_.erase(key);
    streams_[s].items.clear();
    streams_[s].stream.reset();
    open_stream(s);
    check_front();
  }

  /// Pushes 1-6 items onto stream `s`, all at one instant or 1 ns apart,
  /// starting no earlier than its last deadline.
  void push_train(std::size_t s) {
    StreamState& st = streams_[s];
    Nanos when = sched_.now() + (rng_.chance(0.3) ? Nanos{0} : draw_delay());
    if (!st.items.empty()) when = std::max(when, Nanos{st.items.back().first});
    const Nanos step{rng_.uniform(0, 1)};
    for (std::int64_t n = rng_.uniform(1, 6); n > 0; --n) {
      const Key key{when.count(), next_seq_++};
      st.stream->push(when, key);
      st.items.push_back(key);
      pending_.insert(key);
      when += step;
    }
  }

  /// run_until() to the deadline of a random queued stream item, so a train
  /// at or around that instant is split.
  void run_into_train() {
    const StreamState& st = streams_[static_cast<std::size_t>(rng_.uniform(0, kStreams - 1))];
    if (st.items.empty()) return;
    const auto i = static_cast<std::size_t>(
        rng_.uniform(0, static_cast<std::int64_t>(st.items.size()) - 1));
    run_window(Nanos{st.items[i].first});
  }

  void run_window(Nanos deadline) {
    const std::uint64_t before = sched_.executed();
    const std::uint64_t ran = sched_.run_until(deadline);
    EXPECT_EQ(sched_.executed() - before, ran);
    EXPECT_EQ(sched_.now(), deadline);
    if (!pending_.empty()) {
      EXPECT_GT(pending_.begin()->first, deadline.count());
    }
  }

  void track(const Key& key, EventHandle handle) {
    pending_.insert(key);
    index_[key.second] = live_.size();
    live_.emplace_back(key, handle);
  }

  EventHandle untrack(const Key& key) {
    pending_.erase(key);
    const auto it = index_.find(key.second);
    const std::size_t i = it->second;
    index_.erase(it);
    const EventHandle handle = live_[i].second;
    live_[i] = live_.back();
    live_.pop_back();
    if (i < live_.size()) index_[live_[i].first.second] = i;
    return handle;
  }

  void expect_next(const Key& key) {
    ++executed_;
    EXPECT_EQ(sched_.now().count(), key.first);
    ASSERT_FALSE(pending_.empty());
    EXPECT_EQ(*pending_.begin(), key);
  }

  void on_fire(const Key& key) {
    expect_next(key);
    fired_ = untrack(key);
    EXPECT_FALSE(sched_.is_pending(fired_));
    react();
  }

  void on_item(std::size_t s, Nanos when, const Key& key) {
    expect_next(key);
    EXPECT_EQ(when.count(), key.first);
    StreamState& st = streams_[s];
    ASSERT_FALSE(st.items.empty());
    EXPECT_EQ(st.items.front(), key);
    st.items.pop_front();
    pending_.erase(key);
    react();
  }

  /// What a handler does besides checking its own key: schedule events,
  /// push a train onto a stream holding fewer than 8 items (which keeps the
  /// population bounded), cancel a random plain event.
  void react() {
    if (draining_) return;
    const std::int64_t children = rng_.uniform(0, 2);
    for (std::int64_t c = 0; c < children; ++c) schedule_fresh();
    if (rng_.chance(0.3)) {
      const auto s = static_cast<std::size_t>(rng_.uniform(0, kStreams - 1));
      if (streams_[s].items.size() < 8) push_train(s);
    }
    if (!live_.empty() && rng_.chance(0.2)) {
      const auto i = static_cast<std::size_t>(
          rng_.uniform(0, static_cast<std::int64_t>(live_.size()) - 1));
      const Key victim = live_[i].first;
      EXPECT_TRUE(sched_.cancel(untrack(victim)));
    }
    if (rng_.chance(0.05)) {
      EXPECT_FALSE(sched_.cancel(fired_));
    }
  }

  void check_front() {
    EXPECT_EQ(sched_.pending(), pending_.size());
    EXPECT_EQ(sched_.executed(), executed_);
    EventScheduler::EventKey key{};
    if (pending_.empty()) {
      EXPECT_FALSE(sched_.peek(key));
      return;
    }
    ASSERT_TRUE(sched_.peek(key));
    EXPECT_EQ(key.when.count(), pending_.begin()->first);
    EXPECT_EQ(key.seq, pending_.begin()->second);
  }

  EventScheduler sched_;
  Rng rng_;
  std::uint64_t next_seq_ = 1;  // mirrors the scheduler's seq counter
  std::uint64_t executed_ = 0;  // events and items run so far
  std::set<Key> pending_;       // every queued event and stream item
  std::vector<std::pair<Key, EventHandle>> live_;  // pending events, any order
  std::map<std::uint64_t, std::size_t> index_;    // seq -> index in live_
  StreamState streams_[kStreams];
  EventHandle fired_;
  bool draining_ = false;
};

TEST_P(SchedulerDifferential, MatchesReferenceOrderAcrossTiers) { run(); }

INSTANTIATE_TEST_SUITE_P(Seeds, SchedulerDifferential, ::testing::Range(1, 41));

}  // namespace
}  // namespace ceio
