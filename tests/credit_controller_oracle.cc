// Frozen Algorithm 1 credit controller — the equivalence oracle. See
// credit_controller_oracle.h for why this file must stay as-is.
#include "credit_controller_oracle.h"

#include <algorithm>

namespace ceio_alg1 {

// The oracle reuses the production vocabulary types (FlowId, FlowTable).
using namespace ceio;  // NOLINT

CreditController::CreditController(std::int64_t total_credits)
    : total_(total_credits), free_pool_(total_credits) {}

void CreditController::set_total(std::int64_t total_credits) {
  free_pool_ += total_credits - total_;
  total_ = total_credits;
}

std::int64_t CreditController::fair_share() const {
  return active_count_ > 0 ? total_ / static_cast<std::int64_t>(active_count_) : total_;
}

std::int64_t CreditController::credits(FlowId id) const {
  const FlowCredits* fc = flows_.find(id);
  return fc == nullptr ? 0 : fc->balance;
}

bool CreditController::active(FlowId id) const {
  const FlowCredits* fc = flows_.find(id);
  return fc != nullptr && fc->active;
}

std::int64_t CreditController::debt_of(FlowId id) const {
  const FlowCredits* fc = flows_.find(id);
  if (fc == nullptr) return 0;
  std::int64_t debt = 0;
  for (const auto& [_, owed] : fc->owes) debt += owed;
  return debt;
}

std::int64_t CreditController::balance_sum() const {
  std::int64_t sum = free_pool_;
  flows_.for_each([&sum](FlowId, const FlowCredits& fc) { sum += fc.balance; });
  return sum;
}

void CreditController::assign_to_new_flows(const std::vector<FlowId>& newcomers) {
  if (newcomers.empty()) return;
  const auto m = static_cast<std::int64_t>(newcomers.size());
  const auto n = static_cast<std::int64_t>(active_count_) - m;  // incumbents
  const std::int64_t target = total_ / (n + m);

  // Funds gathered for the newcomers: free pool first, then donations. The
  // pool can be transiently negative (it absorbs consume-overshoot when a
  // flow is reclaimed mid-flight); never draw from a negative pool.
  std::int64_t gathered = std::clamp<std::int64_t>(free_pool_, 0, m * target);
  free_pool_ -= gathered;

  std::int64_t still_needed = m * target - gathered;
  if (still_needed > 0 && n > 0) {
    // Wealth cap: incumbents holding more than twice the new target donate
    // their excess first. The equal-ask loop below stops once the ask is
    // met, which — now that the donation order is pinned — would spare the
    // same tail flows at every arrival and let an early arrival's surplus
    // survive forever (property: ArrivalsStayFair). Draining strictly-
    // above-2x holders first bounds every balance near 2x the current
    // share without touching histories where nobody exceeds the cap.
    flows_.for_each_desc([&](FlowId id, FlowCredits& fc) {
      if (still_needed <= 0) return false;
      if (!fc.active) return true;
      if (std::find(newcomers.begin(), newcomers.end(), id) != newcomers.end()) return true;
      const std::int64_t excess = fc.balance - 2 * target;
      if (excess <= 0) return true;
      const std::int64_t give = std::min(excess, still_needed);
      fc.balance -= give;
      gathered += give;
      still_needed -= give;
      return true;
    });
    const std::int64_t per_incumbent = (still_needed + n - 1) / n;
    flows_.for_each_desc([&](FlowId id, FlowCredits& fc) {
      if (still_needed <= 0) return false;
      if (!fc.active) return true;
      // Skip the newcomers themselves.
      if (std::find(newcomers.begin(), newcomers.end(), id) != newcomers.end()) return true;
      const std::int64_t ask = std::min(per_incumbent, still_needed);
      const std::int64_t give = std::clamp<std::int64_t>(fc.balance, 0, ask);
      fc.balance -= give;
      gathered += give;
      still_needed -= give;
      const std::int64_t shortfall = ask - give;
      if (shortfall > 0) {
        // Algorithm 1 lines 8-14: the poor incumbent records per-newcomer
        // debts, repaid out of its future releases. The newcomers start
        // under target and get topped up as debts settle.
        still_needed -= shortfall;  // claimed via debt, not via balance
        const std::int64_t per_new = shortfall / m;
        std::int64_t rem = shortfall - per_new * m;
        for (const FlowId nj : newcomers) {
          std::int64_t owe = per_new + (rem > 0 ? 1 : 0);
          if (rem > 0) --rem;
          if (owe > 0) fc.owes[nj] += owe;
        }
      }
      return true;
    });
  }

  // Distribute the gathered balance equally among newcomers.
  const std::int64_t per_new = gathered / m;
  std::int64_t rem = gathered - per_new * m;
  for (const FlowId id : newcomers) {
    auto& fc = flows_[id];
    fc.balance += per_new + (rem > 0 ? 1 : 0);
    if (rem > 0) --rem;
  }
}

void CreditController::add_flows(const std::vector<FlowId>& arrivals) {
  std::vector<FlowId> newcomers;
  newcomers.reserve(arrivals.size());
  for (const FlowId id : arrivals) {
    auto& fc = flows_[id];
    if (fc.active) continue;
    fc.active = true;
    ++active_count_;
    newcomers.push_back(id);
  }
  assign_to_new_flows(newcomers);
}

void CreditController::remove_flow(FlowId id) {
  const FlowCredits* removed = flows_.find(id);
  if (removed == nullptr) return;
  if (removed->active) --active_count_;
  free_pool_ += removed->balance;  // may absorb a negative overshoot
  flows_.erase(id);
  // Cancel debts owed *to* the removed flow: the debtors simply keep their
  // future releases (no balance moves, so conservation holds).
  flows_.for_each([id](FlowId, FlowCredits& fc) { fc.owes.erase(id); });
}

void CreditController::reclaim(FlowId id) {
  FlowCredits* fc = flows_.find(id);
  if (fc == nullptr || !fc->active) return;
  fc->active = false;
  --active_count_;
  free_pool_ += fc->balance;
  fc->balance = 0;
}

void CreditController::reactivate(FlowId id) {
  const FlowCredits* fc = flows_.find(id);
  if (fc != nullptr && fc->active) return;
  add_flows({id});
}

std::int64_t CreditController::consume(FlowId id, std::int64_t n) {
  auto& fc = flows_[id];
  fc.balance -= n;
  return fc.balance;
}

void CreditController::release(FlowId id, std::int64_t n) {
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
    } else {
      free_pool_ += pay;  // creditor gone or reclaimed: return to the pool
    }
    debt = debt->second == 0 ? fc.owes.erase(debt) : std::next(debt);
  }
  if (remaining > 0) {
    if (fc.active) {
      fc.balance += remaining;
    } else {
      free_pool_ += remaining;
    }
  }
}

}  // namespace ceio_alg1
