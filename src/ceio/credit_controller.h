// Credit-based flow controller state machine (paper §4.1, Algorithm 1).
//
// Pure bookkeeping, no simulator dependencies: the total credit budget
// C_total = LLC_DDIO_bytes / buffer_bytes (Eq. 1) is divided among *active*
// flows. Arrivals trigger the Algorithm 1 assignment: each incumbent flow
// donates (m/n)·C_flow toward the m newcomers; incumbents too poor to donate
// in full give everything they have and record per-newcomer debts (the
// owed-credit set I), repaid with priority out of their future releases
// (lines 16–25). Inactive flows are reclaimed into a free pool and
// re-admitted through the same assignment path, which is how CEIO scales to
// thousands of flows with a bounded budget (§4.1 Q3).
//
// Balances may go slightly negative: the data path consumes credits
// unconditionally (the RMT rule only flips at the next controller poll), so
// the controller tolerates bounded overshoot — exactly the behaviour of the
// polled hardware counters in the real system.
#pragma once

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <vector>

#include "common/det_map.h"
#include "common/flow_table.h"
#include "nic/packet.h"

namespace ceio {

class CreditController {
 public:
  explicit CreditController(std::int64_t total_credits);

  // ---- Membership (Algorithm 1) ----

  /// Admits `arrivals` as active flows, redistributing credits per
  /// Algorithm 1. Flows already active are ignored.
  void add_flows(const std::vector<FlowId>& arrivals);

  /// Permanently removes a flow: its balance returns to the free pool and
  /// all debts involving it are cancelled.
  void remove_flow(FlowId id);

  /// Marks a flow inactive: its remaining balance moves to the free pool.
  /// The flow stays known (its debts persist) but holds no credits.
  void reclaim(FlowId id);

  /// Re-activates a previously reclaimed flow through the Algorithm 1
  /// assignment path (free pool first, then donations from active flows).
  void reactivate(FlowId id);

  /// Resizes the total budget (a tenant's Eq.-1 re-derivation after a way
  /// repartition, or the governor's credit scale). The delta lands
  /// in the free pool — which may go negative when shrinking below the
  /// currently assigned sum; future releases repay it, the same bounded
  /// overshoot the poll-lag path already tolerates.
  void set_total(std::int64_t total_credits);

  // ---- Data-path accounting ----

  /// Consumes `n` credits for a fast-path packet burst. Unconditional: the
  /// balance may go negative (RMT poll lag). Returns the new balance.
  std::int64_t consume(FlowId id, std::int64_t n);

  /// Credit release (lazy, driver-triggered). Debts are repaid first
  /// (Algorithm 1 lines 19–25); the remainder returns to the flow.
  void release(FlowId id, std::int64_t n) {
    release(id, n, [](FlowId) {});
  }
  /// As above; `on_repaid(creditor)` runs for each active creditor whose
  /// balance a debt repayment raised.
  template <typename OnRepaid>
  void release(FlowId id, std::int64_t n, OnRepaid&& on_repaid);

  // ---- Introspection ----

  std::int64_t credits(FlowId id) const;
  bool active(FlowId id) const;
  std::size_t active_count() const { return active_count_; }
  std::int64_t total() const { return total_; }
  std::int64_t free_pool() const { return free_pool_; }
  /// The per-flow target share at the current active count.
  std::int64_t fair_share() const;
  /// Outstanding debt the flow owes to others.
  std::int64_t debt_of(FlowId id) const;
  /// Sum of balances + free pool + consumed-but-unreleased must equal
  /// total(); `outstanding` is the consumed-unreleased amount the caller
  /// tracks. Exposed for invariant checks in tests.
  std::int64_t balance_sum() const;

 private:
  struct FlowCredits {
    std::int64_t balance = 0;
    bool active = false;
    // o^i_j: credits this flow still owes to flow j (Algorithm 1 line 12).
    // Key-ordered so partial repayments in release() pay creditors in a
    // pinned order — a property of the model, not of a hash function.
    // Newest-creditor-first matches the head-insertion iteration order the
    // committed goldens were recorded under.
    det::OrderedMap<FlowId, std::int64_t, std::greater<FlowId>> owes;
  };

  // Balance bounds: ids are grouped in blocks of 64.
  static constexpr unsigned kBlockShift = 6;

  void assign_to_new_flows(const std::vector<FlowId>& newcomers);
  /// The flow's entry, created (balance 0) when absent.
  FlowCredits& entry(FlowId id);
  /// Ids below this cover every known flow (a whole number of blocks).
  FlowId id_limit() const { return static_cast<FlowId>(block_bound_.size()) << kBlockShift; }
  void raise_bound(FlowId id, std::int64_t balance) {
    std::int64_t& bound = block_bound_[id >> kBlockShift];
    bound = std::max(bound, balance);
  }

  std::int64_t total_;
  std::int64_t free_pool_;
  std::size_t active_count_ = 0;
  // Dense slab: consume() runs per fast-path packet, so the lookup must be
  // an O(1) array probe. The Algorithm 1 donation loops walk incumbents and
  // stop once the newcomers' ask is met, so iteration order decides who
  // donates the remainder; they walk descending ids because newest-first is
  // the order the committed goldens were recorded under — flows register in
  // ascending id order and the original libstdc++ hash map iterated
  // newest-insertion-first.
  FlowTable<FlowCredits> flows_;
  // Per 64-id block, an upper bound on its flows' balances (never below 0,
  // the balance a new or reclaimed flow holds). Raised wherever a balance
  // grows, made exact whenever the wealth-cap walk finishes the block, so
  // that walk can skip every block that cannot hold an excess.
  std::vector<std::int64_t> block_bound_;
};

template <typename OnRepaid>
void CreditController::release(FlowId id, std::int64_t n, OnRepaid&& on_repaid) {
  FlowCredits* found = flows_.find(id);
  if (found == nullptr) {
    free_pool_ += n;  // flow vanished; its credits return to the system
    return;
  }
  auto& fc = *found;
  std::int64_t remaining = n;
  // Repay debts first (Algorithm 1 lines 19-25).
  for (auto debt = fc.owes.begin(); debt != fc.owes.end() && remaining > 0;) {
    const std::int64_t pay = std::min(debt->second, remaining);
    remaining -= pay;
    debt->second -= pay;
    FlowCredits* creditor = flows_.find(debt->first);
    if (creditor != nullptr && creditor->active) {
      creditor->balance += pay;
      raise_bound(debt->first, creditor->balance);
      on_repaid(debt->first);
    } else {
      free_pool_ += pay;  // creditor gone or reclaimed: return to the pool
    }
    debt = debt->second == 0 ? fc.owes.erase(debt) : std::next(debt);
  }
  if (remaining > 0) {
    if (fc.active) {
      fc.balance += remaining;
      raise_bound(id, fc.balance);
    } else {
      free_pool_ += remaining;
    }
  }
}

}  // namespace ceio
