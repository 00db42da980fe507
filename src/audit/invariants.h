// The standard cross-layer invariant pack.
//
// Each invariant family is split into a pure predicate over a state
// snapshot (`check_*`) and a registration helper that binds the predicate
// to a state probe (`register_*_invariants`). The testbed binds probes to
// its live models (`register_standard_invariants`); fault-injection tests
// bind them to synthetic state they can corrupt, proving every predicate
// actually fires — the models themselves guard these invariants, so a
// healthy build cannot demonstrate a violation end-to-end.
//
// The families:
//   * conservation — bytes moved by DMA never exceed bytes the NIC
//     accepted, and writes landed by the memory controller never exceed
//     writes the DMA engine issued (NIC -> PCIe -> host).
//   * llc — DDIO residency within the DDIO-way partition capacity.
//   * iio — IIO staging-buffer occupancy within [0, capacity].
//   * dma-window — read requests = completions + in-flight; the in-flight
//     count respects the outstanding window; queueing only under a full
//     window; write completions never exceed issues.
//   * credits — the CEIO ledger never mints credits (Algorithm 1):
//     balances + free pool never exceed C_total.
//   * time — the scheduler clock is monotone across sweeps.
//   * ring — RX descriptor rings keep head <= tail <= head + capacity.
//   * sw-ring — the CEIO SW ring's per-segment counts sum to its pending
//     packet count (ordering metadata agrees with occupancy).
//   * poll-armed — every CEIO controller-poll position the poll may skip
//     is quiescent (a visit would change nothing) and holds its flow's
//     current inactivity deadline, so no re-arm went missing; the armed
//     bitmap has a bit set exactly at the armed positions, and each block's
//     bound is at most every deadline held in that block, so the walk's
//     jumps skip no due position.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "audit/model_auditor.h"
#include "common/units.h"
#include "nic/packet.h"

namespace ceio {

class CeioDatapath;
class Testbed;

/// Counter snapshot for NIC -> PCIe -> host byte conservation.
struct ConservationCounters {
  Bytes nic_bytes{0};        // accepted by the NIC RX pipeline (cumulative)
  Bytes dma_write_bytes{0};  // fast-path DMA writes issued
  Bytes dma_read_bytes{0};   // slow-path DMA reads issued
  std::int64_t dma_writes = 0;      // DMA write ops issued
  std::int64_t dma_reads = 0;       // DMA read ops issued (slow-path drains
                                    // also land via a host memory write)
  std::int64_t mc_ddio_writes = 0;  // write ops landed via DDIO
  std::int64_t mc_dram_writes = 0;  // write ops landed via DRAM
};

struct LlcDdioState {
  std::size_t occupancy = 0;  // DDIO-resident buffers
  std::size_t capacity = 0;   // the DDIO-way partition, in buffers
};

struct IioState {
  Bytes occupancy{0};
  Bytes capacity{0};
};

struct DmaWindowState {
  std::int64_t reads = 0;
  std::int64_t reads_completed = 0;
  std::int64_t writes = 0;
  std::int64_t writes_completed = 0;
  int outstanding = 0;
  int max_outstanding = 0;
  std::size_t queued = 0;
};

struct CreditLedgerState {
  std::int64_t balance_sum = 0;  // free pool + all flow balances
  std::int64_t free_pool = 0;
  std::int64_t total = 0;  // C_total (Eq. 1)
};

struct RingState {
  std::uint64_t head = 0;
  std::uint64_t tail = 0;
  std::size_t capacity = 0;
};

struct SwRingState {
  std::uint64_t segment_sum = 0;  // sum of per-segment packet counts
  std::uint64_t pending = 0;      // packets steered but not consumed
};

/// One CEIO controller-poll position, in poll order.
struct PollPositionState {
  std::uint64_t flow = 0;
  bool armed = false;      // visited at the next pass
  bool quiescent = false;  // the disarm predicate holds now
  Nanos held_deadline{0};  // the deadline an unarmed position holds
  Nanos deadline{0};       // the flow's current inactivity deadline
  bool forced = false;     // visited at the next pass whatever it holds
};

/// The CEIO controller-poll index: its positions and the structures the
/// walk jumps through.
struct PollIndexState {
  std::vector<PollPositionState> positions;
  std::vector<std::uint64_t> armed_words;  // bit p of word p / 64: p armed
  std::vector<Nanos> block_bounds;         // one per 64 positions
};

/// Per-tenant DDIO accounting snapshot (multi-tenant runs; src/tenant/).
struct TenantLlcState {
  std::vector<std::size_t> occupancy;  // per-tenant DDIO-resident buffers
  std::vector<std::size_t> capacity;   // per-tenant way-slice capacity
  std::size_t global_occupancy = 0;    // the cache's single DDIO counter
};

// ---- Pure predicates (nullopt = invariant holds) ----

std::optional<std::string> check_conservation(const ConservationCounters& c);
std::optional<std::string> check_llc(const LlcDdioState& s);
std::optional<std::string> check_iio(const IioState& s);
std::optional<std::string> check_dma_window(const DmaWindowState& s);
std::optional<std::string> check_credits(const CreditLedgerState& s);
std::optional<std::string> check_ring(const RingState& s);
std::optional<std::string> check_sw_ring(const SwRingState& s);
/// Unarmed, unforced positions must be quiescent and hold their flow's
/// deadline; a bit is set iff its position is armed; each block's bound is
/// at most every deadline held in the block.
std::optional<std::string> check_poll_armed(const PollIndexState& s);
/// Per-tenant occupancies must sum to the global DDIO occupancy.
std::optional<std::string> check_tenant_llc_sum(const TenantLlcState& s);
/// No tenant may exceed its way-slice capacity.
std::optional<std::string> check_tenant_llc_bound(const TenantLlcState& s);

// ---- Probe-based registration (one invariant family each) ----

void register_conservation_invariants(ModelAuditor& auditor,
                                      std::function<ConservationCounters()> probe);
void register_llc_invariants(ModelAuditor& auditor, std::function<LlcDdioState()> probe);
void register_iio_invariants(ModelAuditor& auditor, std::function<IioState()> probe);
void register_dma_window_invariants(ModelAuditor& auditor,
                                    std::function<DmaWindowState()> probe);
void register_credit_invariants(ModelAuditor& auditor,
                                std::function<CreditLedgerState()> probe);
/// Clock monotonicity: the `now` of each sweep must be non-decreasing.
void register_time_invariant(ModelAuditor& auditor);
void register_ring_invariants(ModelAuditor& auditor, std::string name,
                              std::function<RingState()> probe);
void register_sw_ring_invariants(ModelAuditor& auditor, std::string name,
                                 std::function<SwRingState()> probe);
void register_poll_armed_invariants(ModelAuditor& auditor,
                                    std::function<PollIndexState()> probe);
/// Registers both tenant-LLC invariants ("tenant-ddio-sum" and
/// "tenant-way-bound") against one shared probe.
void register_tenant_llc_invariants(ModelAuditor& auditor,
                                    std::function<TenantLlcState()> probe);

/// Binds the CEIO families (credit-ledger, sw-ring-coherent, poll-armed) to
/// one live CEIO instance; `flows` lists the flow ids it serves at sweep
/// time. A tenant assembly binds one set per tenant's CEIO instance.
void register_ceio_invariants(ModelAuditor& auditor, const CeioDatapath& ceio,
                              std::function<std::vector<FlowId>()> flows);

/// Binds the whole pack to a live testbed: every family above wired to the
/// real models, plus per-flow RX-ring and SW-ring sweeps that follow flows
/// as they are added and removed. The CEIO families are only registered
/// when the testbed runs the CEIO datapath.
void register_standard_invariants(ModelAuditor& auditor, Testbed& bed);

}  // namespace ceio
