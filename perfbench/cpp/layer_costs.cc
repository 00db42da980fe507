#include "layer_costs.h"

#include <algorithm>
#include <chrono>
#include <vector>

#include "ceio/credit_controller.h"
#include "ceio/sw_ring.h"
#include "common/flow_table.h"
#include "common/rng.h"
#include "nic/rmt_engine.h"
#include "sim/event_scheduler.h"
#include "sim/shard_coordinator.h"

namespace perfbench {
namespace {

using ceio::EventScheduler;
using ceio::FlowId;
using ceio::Nanos;
using ceio::Rng;

constexpr int kRepeats = 5;

/// Keeps `v` observable so the timed loop is not optimised away.
template <class T>
void keep(const T& v) {
  asm volatile("" : : "r,m"(v) : "memory");
}

double now_s() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Least ns/op over kRepeats of `body()`, which returns {seconds, ops}.
template <class Body>
double ns_per_op(Body&& body) {
  double best = 0.0;
  for (int i = 0; i < kRepeats; ++i) {
    const auto [secs, ops] = body();
    const double v = ops > 0 ? secs * 1e9 / static_cast<double>(ops) : 0.0;
    best = i == 0 ? v : std::min(best, v);
  }
  return best;
}

/// Self-perpetuating event: fires, then re-arms at a random delay in
/// [lo, hi], so the queue holds its seeded depth.
struct Rearm {
  EventScheduler* sched;
  Rng* rng;
  std::int64_t lo, hi;
  void operator()() const { sched->schedule_after(Nanos{rng->uniform(lo, hi)}, *this); }
};

/// Schedule + fire at a held depth. Delays below EventScheduler::kWheelSpan
/// stay in the timing wheel; longer ones take the far-timer heap.
std::pair<double, std::uint64_t> sched_fire(std::size_t depth, std::int64_t lo, std::int64_t hi,
                                            std::uint64_t ops) {
  EventScheduler sched;
  Rng rng(0xCE10 + depth);
  for (std::size_t i = 0; i < depth; ++i) {
    sched.schedule_after(Nanos{rng.uniform(lo, hi)}, Rearm{&sched, &rng, lo, hi});
  }
  const double t0 = now_s();
  for (std::uint64_t i = 0; i < ops; ++i) sched.step();
  return {now_s() - t0, ops};
}

/// The timer re-arm pattern (bench/perf_core's cancel case): schedule two,
/// cancel one, fire one; four operations per iteration.
std::pair<double, std::uint64_t> sched_cancel(std::size_t depth, std::uint64_t iters) {
  EventScheduler sched;
  Rng rng(0xCA9CE1 + depth);
  std::uint64_t fired = 0;
  for (std::size_t i = 0; i < depth; ++i) {
    sched.schedule_after(Nanos{rng.uniform(1, 1000)}, [&fired]() { ++fired; });
  }
  const double t0 = now_s();
  for (std::uint64_t i = 0; i < iters; ++i) {
    const auto a = sched.schedule_after(Nanos{rng.uniform(1, 1000)}, [&fired]() { ++fired; });
    const auto b = sched.schedule_after(Nanos{rng.uniform(1, 1000)}, [&fired]() { ++fired; });
    sched.cancel(rng.chance(0.5) ? a : b);
    sched.step();
  }
  const double secs = now_s() - t0;
  keep(fired);
  return {secs, iters * 4};
}

std::pair<double, std::uint64_t> llc_hit(const ceio::LlcConfig& cfg, std::uint64_t ops) {
  ceio::LlcModel llc(cfg);
  const auto capacity =
      static_cast<std::int64_t>(cfg.total_bytes.count() / cfg.buffer_bytes.count());
  const std::int64_t ws = std::max<std::int64_t>(1, std::min<std::int64_t>(1024, capacity / 8));
  for (std::int64_t id = 1; id <= ws; ++id) llc.cpu_read(id, cfg.buffer_bytes);
  Rng rng(0x117);
  std::uint64_t hits = 0;
  const double t0 = now_s();
  for (std::uint64_t i = 0; i < ops; ++i) {
    hits += llc.cpu_read(static_cast<ceio::BufferId>(rng.uniform(1, ws)), cfg.buffer_bytes);
  }
  const double secs = now_s() - t0;
  keep(hits);
  return {secs, ops};
}

std::pair<double, std::uint64_t> llc_miss(const ceio::LlcConfig& cfg, std::uint64_t ops) {
  ceio::LlcModel llc(cfg);
  std::uint64_t hits = 0;
  ceio::BufferId id = 1;
  const double t0 = now_s();
  for (std::uint64_t i = 0; i < ops; ++i) hits += llc.cpu_read(id++, cfg.buffer_bytes);
  const double secs = now_s() - t0;
  keep(hits);
  return {secs, ops};
}

/// DMA floods four DDIO partitions' worth of buffers while the CPU reads at
/// a quarter of the rate: most writes evict a line nobody read yet.
std::pair<double, std::uint64_t> llc_premature(const ceio::LlcConfig& cfg, std::uint64_t ops) {
  ceio::LlcModel llc(cfg);
  const auto pool = static_cast<std::int64_t>(std::max<std::size_t>(4 * llc.ddio_capacity(), 64));
  Rng rng(0x9FE);
  std::uint64_t evicted = 0;
  const double t0 = now_s();
  for (std::uint64_t i = 0; i < ops; ++i) {
    evicted += llc.ddio_write(static_cast<ceio::BufferId>(i % pool) + 1, cfg.buffer_bytes)
                   .never_read;
    if ((i & 3u) == 0) {
      llc.cpu_read(static_cast<ceio::BufferId>(rng.uniform(1, pool)), cfg.buffer_bytes);
    }
  }
  const double secs = now_s() - t0;
  keep(evicted);
  return {secs, ops};
}

/// Lookup ids in a shuffled order, so packet arrival ignores id locality.
std::vector<FlowId> shuffled(std::vector<FlowId> ids, std::uint64_t seed) {
  Rng rng(seed);
  for (std::size_t i = ids.size(); i > 1; --i) {
    std::swap(ids[i - 1],
              ids[static_cast<std::size_t>(rng.uniform(0, static_cast<std::int64_t>(i) - 1))]);
  }
  return ids;
}

std::pair<double, std::uint64_t> flow_lookup(std::size_t flows, bool dense, std::uint64_t ops) {
  ceio::FlowTable<std::uint64_t> table;
  std::vector<FlowId> ids;
  for (std::size_t i = 0; i < flows; ++i) {
    const FlowId id = dense ? i + 1 : i * 61 + 1;
    table[id] = id * 3;
    ids.push_back(id);
  }
  ids = shuffled(std::move(ids), 0xF10A + flows);
  std::uint64_t sink = 0;
  const double t0 = now_s();
  for (std::uint64_t i = 0; i < ops; ++i) sink += *table.find(ids[i % flows]);
  const double secs = now_s() - t0;
  keep(sink);
  return {secs, ops};
}

std::pair<double, std::uint64_t> rmt_steer(std::size_t flows, std::uint64_t ops) {
  EventScheduler sched;
  ceio::RmtEngine rmt(sched, ceio::RmtConfig{Nanos{0}, std::max<std::size_t>(flows, 65'536),
                                             ceio::SteerAction::kToHost});
  std::vector<FlowId> ids;
  for (FlowId f = 1; f <= flows; ++f) {
    rmt.install_rule(f, ceio::SteerAction::kToHost);
    ids.push_back(f);
  }
  sched.run_all();
  ids = shuffled(std::move(ids), 0x4A7);
  ceio::Packet pkt;
  pkt.size = ceio::Bytes{512};
  int to_host = 0;
  const double t0 = now_s();
  for (std::uint64_t i = 0; i < ops; ++i) {
    pkt.flow = ids[i % flows];
    to_host += rmt.steer(pkt) == ceio::SteerAction::kToHost;
  }
  const double secs = now_s() - t0;
  keep(to_host);
  return {secs, ops};
}

std::vector<FlowId> flow_ids(std::size_t flows) {
  std::vector<FlowId> ids;
  for (FlowId f = 1; f <= flows; ++f) ids.push_back(f);
  return ids;
}

std::pair<double, std::uint64_t> credit_cycle(std::size_t flows, std::int64_t total,
                                              std::uint64_t ops) {
  ceio::CreditController credits(total);
  credits.add_flows(flow_ids(flows));
  const double t0 = now_s();
  for (std::uint64_t i = 0; i < ops; ++i) {
    const FlowId f = i % flows + 1;
    credits.consume(f, 1);
    credits.release(f, 1);
  }
  const double secs = now_s() - t0;
  keep(credits.credits(1));
  return {secs, ops};
}

/// Algorithm 1 on one arrival into `flows` incumbents, plus the departure
/// that restores the starting membership.
std::pair<double, std::uint64_t> alg1_cycle(std::size_t flows, std::int64_t total,
                                            double budget_s) {
  ceio::CreditController credits(total);
  credits.add_flows(flow_ids(flows));
  const FlowId newcomer = flows + 1;
  std::uint64_t ops = 0;
  const double t0 = now_s();
  double t = t0;
  while (t - t0 < budget_s) {
    for (int i = 0; i < 16; ++i) {
      credits.add_flows({newcomer});
      credits.remove_flow(newcomer);
    }
    ops += 16;
    t = now_s();
  }
  keep(credits.fair_share());
  return {t - t0, ops};
}

std::pair<double, std::uint64_t> swring_cycle(std::uint64_t ops) {
  ceio::SwRing sw;
  bool fast = true;
  const double t0 = now_s();
  for (std::uint64_t i = 0; i < ops; ++i) {
    sw.note_steered(fast);
    fast = !fast;
    sw.consumed();
  }
  const double secs = now_s() - t0;
  keep(sw.pending());
  return {secs, ops};
}

/// A domain with no events: each epoch is pure coordinator cost (the phase
/// dispatch and its barrier crossings).
class IdleDomain final : public ceio::ShardDomain {
 public:
  void drain_phase(Nanos) override {}
  void run_phase(Nanos, bool) override {}
};

std::pair<double, std::uint64_t> barrier_epochs(int domains, int shards, Nanos lookahead,
                                                std::uint64_t epochs) {
  std::vector<IdleDomain> idle(static_cast<std::size_t>(domains));
  std::vector<ceio::ShardDomain*> ptrs;
  for (auto& d : idle) ptrs.push_back(&d);
  ceio::ShardCoordinator coord(ptrs, lookahead, shards);
  const double t0 = now_s();
  coord.run_until(lookahead * static_cast<std::int64_t>(epochs));
  const double secs = now_s() - t0;
  return {secs, coord.epochs_completed()};
}

}  // namespace

LayerCosts measure_layer_costs(const LayerSizing& s) {
  LayerCosts c;
  const std::size_t depth = std::max<std::size_t>(s.pending, 1);
  const std::size_t flows = std::max<std::size_t>(s.flows, 1);
  constexpr std::uint64_t kOps = 400'000;
  c.sched_wheel_ns = ns_per_op([&] { return sched_fire(depth, 1, 1000, kOps); });
  c.sched_heap_ns = ns_per_op([&] { return sched_fire(depth, 5'000, 50'000, kOps); });
  c.sched_cancel_ns = ns_per_op([&] { return sched_cancel(depth, kOps / 4); });
  c.llc_hit_ns = ns_per_op([&] { return llc_hit(s.llc, kOps); });
  c.llc_miss_ns = ns_per_op([&] { return llc_miss(s.llc, kOps); });
  c.llc_premature_ns = ns_per_op([&] { return llc_premature(s.llc, kOps); });
  c.flow_dense_ns = ns_per_op([&] { return flow_lookup(flows, true, kOps); });
  c.flow_sparse_ns = ns_per_op([&] { return flow_lookup(flows, false, kOps); });
  c.rmt_steer_ns = ns_per_op([&] { return rmt_steer(flows, kOps); });
  const std::int64_t credits = std::max<std::int64_t>(s.credits, 1);
  c.credit_ns = ns_per_op([&] { return credit_cycle(flows, credits, kOps); });
  c.alg1_ns = ns_per_op([&] { return alg1_cycle(flows, credits, 0.01); });
  c.swring_ns = ns_per_op([&] { return swring_cycle(kOps); });
  if (s.domains > 1 && s.lookahead > Nanos{0}) {
    c.barrier_ns =
        ns_per_op([&] { return barrier_epochs(s.domains, s.shards, s.lookahead, 5'000); });
  }
  return c;
}

}  // namespace perfbench
