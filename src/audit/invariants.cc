#include "audit/invariants.h"

#include <bit>
#include <utility>

#include "iopath/testbed.h"

namespace ceio {

namespace {

std::string i64(std::int64_t v) { return std::to_string(v); }

}  // namespace

// ---- Pure predicates ----

std::optional<std::string> check_conservation(const ConservationCounters& c) {
  const Bytes moved = c.dma_write_bytes + c.dma_read_bytes;
  if (moved > c.nic_bytes) {
    return "DMA moved " + i64(moved.count()) + " B but the NIC only accepted " +
           i64(c.nic_bytes.count()) + " B";
  }
  // Every memory-controller landing is either a DMA write or the host-side
  // landing of a completed slow-path DMA read (CEIO drains).
  const std::int64_t landed = c.mc_ddio_writes + c.mc_dram_writes;
  if (landed > c.dma_writes + c.dma_reads) {
    return "memory controller landed " + i64(landed) + " writes but DMA only issued " +
           i64(c.dma_writes) + " writes + " + i64(c.dma_reads) + " reads";
  }
  return std::nullopt;
}

std::optional<std::string> check_llc(const LlcDdioState& s) {
  if (s.occupancy > s.capacity) {
    return "DDIO residency " + i64(static_cast<std::int64_t>(s.occupancy)) +
           " buffers exceeds the partition capacity " +
           i64(static_cast<std::int64_t>(s.capacity));
  }
  return std::nullopt;
}

std::optional<std::string> check_iio(const IioState& s) {
  if (s.occupancy < Bytes{0}) {
    return "IIO occupancy negative: " + i64(s.occupancy.count()) + " B";
  }
  if (s.occupancy > s.capacity) {
    return "IIO occupancy " + i64(s.occupancy.count()) + " B exceeds capacity " +
           i64(s.capacity.count()) + " B";
  }
  return std::nullopt;
}

std::optional<std::string> check_dma_window(const DmaWindowState& s) {
  if (s.outstanding < 0 || s.outstanding > s.max_outstanding) {
    return "outstanding reads " + i64(s.outstanding) + " outside window [0, " +
           i64(s.max_outstanding) + "]";
  }
  if (s.reads != s.reads_completed + s.outstanding) {
    return "read ledger: issued " + i64(s.reads) + " != completed " + i64(s.reads_completed) +
           " + in-flight " + i64(s.outstanding);
  }
  if (s.queued > 0 && s.outstanding < s.max_outstanding) {
    return i64(static_cast<std::int64_t>(s.queued)) +
           " reads queued while the window has room (" + i64(s.outstanding) + "/" +
           i64(s.max_outstanding) + ")";
  }
  if (s.writes_completed > s.writes) {
    return "write ledger: completed " + i64(s.writes_completed) + " > issued " + i64(s.writes);
  }
  return std::nullopt;
}

std::optional<std::string> check_credits(const CreditLedgerState& s) {
  // Balances may undershoot (poll-lag overshoot is tolerated by design) but
  // the ledger must never mint credits beyond C_total.
  if (s.balance_sum > s.total) {
    return "ledger minted credits: balances + pool = " + i64(s.balance_sum) + " > C_total " +
           i64(s.total);
  }
  if (s.free_pool > s.total) {
    return "free pool " + i64(s.free_pool) + " exceeds C_total " + i64(s.total);
  }
  return std::nullopt;
}

std::optional<std::string> check_ring(const RingState& s) {
  if (s.head > s.tail) {
    return "head " + i64(static_cast<std::int64_t>(s.head)) + " ahead of tail " +
           i64(static_cast<std::int64_t>(s.tail));
  }
  if (s.tail - s.head > s.capacity) {
    return "occupancy " + i64(static_cast<std::int64_t>(s.tail - s.head)) +
           " exceeds capacity " + i64(static_cast<std::int64_t>(s.capacity));
  }
  return std::nullopt;
}

std::optional<std::string> check_sw_ring(const SwRingState& s) {
  if (s.segment_sum != s.pending) {
    return "segment counts sum to " + i64(static_cast<std::int64_t>(s.segment_sum)) +
           " but " + i64(static_cast<std::int64_t>(s.pending)) + " packets are pending";
  }
  return std::nullopt;
}

std::optional<std::string> check_poll_armed(const PollIndexState& s) {
  const std::size_t n = s.positions.size();
  for (std::size_t w = 0; w < s.armed_words.size(); ++w) {
    for (std::uint64_t bits = s.armed_words[w]; bits != 0; bits &= bits - 1) {
      const std::size_t p = (w << 6) | static_cast<std::size_t>(std::countr_zero(bits));
      if (p >= n || !s.positions[p].armed) {
        return "armed bit " + i64(static_cast<std::int64_t>(p)) + " is set but " +
               (p >= n ? "no such position exists" : "its position is unarmed");
      }
    }
  }
  for (std::size_t p = 0; p < n; ++p) {
    const PollPositionState& pos = s.positions[p];
    const std::string where = "position " + i64(static_cast<std::int64_t>(p)) + " (flow " +
                              i64(static_cast<std::int64_t>(pos.flow)) + ")";
    const std::size_t w = p >> 6;
    const bool bit = w < s.armed_words.size() && ((s.armed_words[w] >> (p & 63)) & 1u) != 0;
    if (pos.armed != bit) return where + " is armed but its bit is clear";
    if (pos.armed) continue;
    if (w >= s.block_bounds.size() || s.block_bounds[w] > pos.held_deadline) {
      return where + " holds deadline " + i64(pos.held_deadline.count()) +
             " below its block's bound " +
             (w < s.block_bounds.size() ? i64(s.block_bounds[w].count()) : "(none)");
    }
    if (pos.forced) continue;
    if (!pos.quiescent) return where + " is unarmed but its poll would act";
    if (pos.held_deadline != pos.deadline) {
      return where + " holds deadline " + i64(pos.held_deadline.count()) +
             " but the flow's inactivity deadline is " + i64(pos.deadline.count());
    }
  }
  return std::nullopt;
}

std::optional<std::string> check_tenant_llc_sum(const TenantLlcState& s) {
  std::size_t sum = 0;
  for (const std::size_t occ : s.occupancy) sum += occ;
  if (sum != s.global_occupancy) {
    return "per-tenant DDIO occupancies sum to " + i64(static_cast<std::int64_t>(sum)) +
           " but the global counter reads " +
           i64(static_cast<std::int64_t>(s.global_occupancy));
  }
  return std::nullopt;
}

std::optional<std::string> check_tenant_llc_bound(const TenantLlcState& s) {
  for (std::size_t t = 0; t < s.occupancy.size(); ++t) {
    if (s.occupancy[t] > s.capacity[t]) {
      return "tenant " + i64(static_cast<std::int64_t>(t)) + " holds " +
             i64(static_cast<std::int64_t>(s.occupancy[t])) +
             " buffers but its way slice only fits " +
             i64(static_cast<std::int64_t>(s.capacity[t]));
    }
  }
  return std::nullopt;
}

// ---- Probe-based registration ----

void register_conservation_invariants(ModelAuditor& auditor,
                                      std::function<ConservationCounters()> probe) {
  auditor.register_invariant("pcie", "byte-conservation",
                             [probe = std::move(probe)](Nanos) { return check_conservation(probe()); });
}

void register_llc_invariants(ModelAuditor& auditor, std::function<LlcDdioState()> probe) {
  auditor.register_invariant("host", "ddio-partition-bound",
                             [probe = std::move(probe)](Nanos) { return check_llc(probe()); });
}

void register_iio_invariants(ModelAuditor& auditor, std::function<IioState()> probe) {
  auditor.register_invariant("host", "iio-occupancy-bound",
                             [probe = std::move(probe)](Nanos) { return check_iio(probe()); });
}

void register_dma_window_invariants(ModelAuditor& auditor,
                                    std::function<DmaWindowState()> probe) {
  auditor.register_invariant("pcie", "dma-read-window",
                             [probe = std::move(probe)](Nanos) { return check_dma_window(probe()); });
}

void register_credit_invariants(ModelAuditor& auditor,
                                std::function<CreditLedgerState()> probe) {
  auditor.register_invariant("ceio", "credit-ledger",
                             [probe = std::move(probe)](Nanos) { return check_credits(probe()); });
}

void register_time_invariant(ModelAuditor& auditor) {
  auditor.register_invariant(
      "sim", "clock-monotone",
      [last = Nanos::min()](Nanos now) mutable -> std::optional<std::string> {
        if (now < last) {
          return "sweep at t=" + i64(now.count()) + " after a sweep at t=" + i64(last.count());
        }
        last = now;
        return std::nullopt;
      });
}

void register_ring_invariants(ModelAuditor& auditor, std::string name,
                              std::function<RingState()> probe) {
  auditor.register_invariant("ring", std::move(name),
                             [probe = std::move(probe)](Nanos) { return check_ring(probe()); });
}

void register_sw_ring_invariants(ModelAuditor& auditor, std::string name,
                                 std::function<SwRingState()> probe) {
  auditor.register_invariant("ceio", std::move(name),
                             [probe = std::move(probe)](Nanos) { return check_sw_ring(probe()); });
}

void register_poll_armed_invariants(ModelAuditor& auditor,
                                    std::function<PollIndexState()> probe) {
  auditor.register_invariant("ceio", "poll-armed",
                             [probe = std::move(probe)](Nanos) { return check_poll_armed(probe()); });
}

void register_tenant_llc_invariants(ModelAuditor& auditor,
                                    std::function<TenantLlcState()> probe) {
  auditor.register_invariant(
      "host", "tenant-ddio-sum",
      [probe](Nanos) { return check_tenant_llc_sum(probe()); });
  auditor.register_invariant(
      "host", "tenant-way-bound",
      [probe = std::move(probe)](Nanos) { return check_tenant_llc_bound(probe()); });
}

// ---- Live-model binding ----

void register_ceio_invariants(ModelAuditor& auditor, const CeioDatapath& ceio,
                              std::function<std::vector<FlowId>()> flows) {
  const CeioDatapath* dp = &ceio;
  register_credit_invariants(auditor, [dp] {
    const CreditController& c = dp->credits();
    return CreditLedgerState{c.balance_sum(), c.free_pool(), c.total()};
  });

  auditor.register_invariant(
      "ceio", "sw-ring-coherent",
      [dp, flows = std::move(flows)](Nanos) -> std::optional<std::string> {
        for (const FlowId id : flows()) {
          const auto d = dp->debug_slow_state(id);
          auto detail = check_sw_ring(SwRingState{d.sw_segment_sum, d.sw_pending});
          if (detail) return "flow " + std::to_string(id) + ": " + *detail;
        }
        return std::nullopt;
      });

  register_poll_armed_invariants(auditor, [dp] {
    PollIndexState out;
    for (const auto& d : dp->debug_poll_positions()) {
      out.positions.push_back(PollPositionState{d.flow, d.armed, d.quiescent, d.held_deadline,
                                                d.deadline, d.forced});
    }
    out.armed_words = dp->debug_poll_armed_words();
    out.block_bounds = dp->debug_poll_bounds();
    return out;
  });
}

void register_standard_invariants(ModelAuditor& auditor, Testbed& bed) {
  Testbed* b = &bed;

  register_time_invariant(auditor);

  register_conservation_invariants(auditor, [b] {
    ConservationCounters c;
    c.nic_bytes = b->nic().stats().bytes;
    const auto& dma = b->dma().stats();
    c.dma_write_bytes = dma.write_bytes;
    c.dma_read_bytes = dma.read_bytes;
    c.dma_writes = dma.writes;
    c.dma_reads = dma.reads;
    const auto& mc = b->memory_controller().stats();
    c.mc_ddio_writes = mc.ddio_writes;
    c.mc_dram_writes = mc.dram_writes;
    return c;
  });

  register_llc_invariants(
      auditor, [b] { return LlcDdioState{b->llc().ddio_occupancy(), b->llc().ddio_capacity()}; });

  register_iio_invariants(
      auditor, [b] { return IioState{b->iio().occupancy(), b->iio().config().capacity}; });

  register_dma_window_invariants(auditor, [b] {
    const auto& s = b->dma().stats();
    return DmaWindowState{s.reads,
                          s.reads_completed,
                          s.writes,
                          s.writes_completed,
                          b->dma().outstanding_reads(),
                          b->config().dma.max_outstanding_reads,
                          b->dma().queued_reads()};
  });

  // Per-flow RX rings: one sweeping invariant that follows the datapath's
  // live flow set, rather than one registration per (transient) flow.
  auditor.register_invariant("ring", "rx-head-tail-coherent",
                             [b](Nanos) -> std::optional<std::string> {
                               std::optional<std::string> bad;
                               b->datapath().for_each_ring([&bad](const RxRing& ring) {
                                 if (bad) return;
                                 auto detail = check_ring(
                                     RingState{ring.head(), ring.tail(), ring.capacity()});
                                 if (detail) bad = ring.name() + ": " + *detail;
                               });
                               return bad;
                             });

  if (b->ceio() != nullptr) {
    register_ceio_invariants(auditor, *b->ceio(), [b] { return b->flow_ids(); });
  }
}

}  // namespace ceio
