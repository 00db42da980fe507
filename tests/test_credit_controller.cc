// Unit + property tests for the Algorithm 1 credit controller.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <string>
#include <vector>

#include "ceio/credit_controller.h"
#include "common/rng.h"
#include "credit_controller_oracle.h"

namespace ceio {
namespace {

TEST(Credits, FirstFlowGetsEverything) {
  CreditController cc(3000);
  cc.add_flows({1});
  EXPECT_EQ(cc.credits(1), 3000);
  EXPECT_EQ(cc.free_pool(), 0);
  EXPECT_TRUE(cc.active(1));
  EXPECT_EQ(cc.fair_share(), 3000);
}

TEST(Credits, EvenSplitAcrossArrivals) {
  CreditController cc(3000);
  cc.add_flows({1, 2, 3});
  EXPECT_EQ(cc.credits(1), 1000);
  EXPECT_EQ(cc.credits(2), 1000);
  EXPECT_EQ(cc.credits(3), 1000);
  EXPECT_EQ(cc.balance_sum(), 3000);
}

TEST(Credits, Algorithm1DonationFromRichIncumbents) {
  CreditController cc(3000);
  cc.add_flows({1, 2});  // 1500 each
  cc.add_flows({3, 4});  // target 750 each
  EXPECT_EQ(cc.balance_sum(), 3000);
  // Newcomers funded to the target; incumbents donated symmetrically.
  EXPECT_NEAR(cc.credits(3), 750, 1);
  EXPECT_NEAR(cc.credits(4), 750, 1);
  EXPECT_NEAR(cc.credits(1), 750, 1);
  EXPECT_NEAR(cc.credits(2), 750, 1);
  EXPECT_EQ(cc.debt_of(1), 0);
}

TEST(Credits, PoorIncumbentRecordsDebt) {
  CreditController cc(3000);
  cc.add_flows({1});
  // Flow 1 consumed almost everything and hasn't released yet.
  cc.consume(1, 2'900);  // balance 100
  cc.add_flows({2});     // target 1500; incumbent can only give 100
  EXPECT_LE(cc.credits(1), 0 + 1);
  EXPECT_NEAR(cc.credits(2), 100, 1);
  EXPECT_GT(cc.debt_of(1), 0);
  // Releases repay the debt to the newcomer before self.
  cc.release(1, 1'000);
  EXPECT_GT(cc.credits(2), 100);
  cc.release(1, 1'900);
  EXPECT_EQ(cc.debt_of(1), 0);
  // All credits back in circulation.
  EXPECT_EQ(cc.balance_sum(), 3000);
}

TEST(Credits, ConsumeMayGoNegative) {
  CreditController cc(100);
  cc.add_flows({1});
  EXPECT_EQ(cc.consume(1, 150), -50);
  EXPECT_EQ(cc.credits(1), -50);
  cc.release(1, 150);
  EXPECT_EQ(cc.credits(1), 100);
}

TEST(Credits, ReclaimMovesBalanceToPool) {
  CreditController cc(3000);
  cc.add_flows({1, 2});
  cc.reclaim(1);
  EXPECT_FALSE(cc.active(1));
  EXPECT_EQ(cc.credits(1), 0);
  EXPECT_EQ(cc.free_pool(), 1500);
  EXPECT_EQ(cc.active_count(), 1u);
  EXPECT_EQ(cc.balance_sum(), 3000);
}

TEST(Credits, ReactivateDrawsFromPoolFirst) {
  CreditController cc(3000);
  cc.add_flows({1, 2});
  cc.reclaim(1);
  cc.reactivate(1);
  EXPECT_TRUE(cc.active(1));
  // Target = 3000/2 = 1500, fully coverable from the pool.
  EXPECT_EQ(cc.credits(1), 1500);
  EXPECT_EQ(cc.credits(2), 1500);
  EXPECT_EQ(cc.free_pool(), 0);
}

TEST(Credits, ReleaseToInactiveFlowGoesToPool) {
  CreditController cc(1000);
  cc.add_flows({1});
  cc.consume(1, 400);
  cc.reclaim(1);  // pool absorbs remaining 600
  EXPECT_EQ(cc.free_pool(), 600);
  cc.release(1, 400);
  EXPECT_EQ(cc.free_pool(), 1000);
  EXPECT_EQ(cc.credits(1), 0);
}

TEST(Credits, RemoveFlowReturnsBalanceAndCancelsDebts) {
  CreditController cc(3000);
  cc.add_flows({1});
  cc.consume(1, 2'900);
  cc.add_flows({2});  // flow 1 owes flow 2
  EXPECT_GT(cc.debt_of(1), 0);
  cc.remove_flow(2);
  EXPECT_EQ(cc.debt_of(1), 0);  // debt cancelled
  // Removed flow's balance returned to the pool.
  EXPECT_GT(cc.free_pool(), 0);
}

TEST(Credits, ReleaseForUnknownFlowGoesToPool) {
  CreditController cc(100);
  cc.release(99, 50);
  EXPECT_EQ(cc.free_pool(), 150);  // conservative: nothing is lost
}

TEST(Credits, DoubleAddIsIdempotent) {
  CreditController cc(1000);
  cc.add_flows({1});
  cc.add_flows({1});
  EXPECT_EQ(cc.credits(1), 1000);
  EXPECT_EQ(cc.active_count(), 1u);
}

// Property: under arbitrary interleavings of add/reclaim/reactivate/remove/
// consume/release, the conservation invariant holds:
//   balance_sum() == total - outstanding_consumed.
class CreditChaosProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CreditChaosProperty, ConservationInvariant) {
  const std::int64_t total = 3000;
  CreditController cc(total);
  Rng rng(GetParam());
  std::vector<FlowId> known;
  std::int64_t outstanding = 0;
  std::unordered_map<FlowId, std::int64_t> consumed_by;
  FlowId next_id = 1;

  for (int step = 0; step < 5'000; ++step) {
    const auto op = rng.uniform(0, 5);
    switch (op) {
      case 0: {  // add new flow(s)
        std::vector<FlowId> arrivals;
        for (int i = 0; i <= rng.uniform(0, 2); ++i) arrivals.push_back(next_id++);
        for (const FlowId f : arrivals) known.push_back(f);
        cc.add_flows(arrivals);
        break;
      }
      case 1: {  // consume
        if (known.empty()) break;
        const FlowId f = known[static_cast<std::size_t>(
            rng.uniform(0, static_cast<std::int64_t>(known.size()) - 1))];
        const auto n = rng.uniform(1, 64);
        cc.consume(f, n);
        outstanding += n;
        consumed_by[f] += n;
        break;
      }
      case 2: {  // release (bounded by what the flow consumed)
        if (known.empty()) break;
        const FlowId f = known[static_cast<std::size_t>(
            rng.uniform(0, static_cast<std::int64_t>(known.size()) - 1))];
        auto& owed = consumed_by[f];
        if (owed <= 0) break;
        const auto n = rng.uniform(1, owed);
        cc.release(f, n);
        outstanding -= n;
        owed -= n;
        break;
      }
      case 3: {  // reclaim
        if (known.empty()) break;
        cc.reclaim(known[static_cast<std::size_t>(
            rng.uniform(0, static_cast<std::int64_t>(known.size()) - 1))]);
        break;
      }
      case 4: {  // reactivate
        if (known.empty()) break;
        cc.reactivate(known[static_cast<std::size_t>(
            rng.uniform(0, static_cast<std::int64_t>(known.size()) - 1))]);
        break;
      }
      case 5: {  // remove (also forgets its outstanding consumption)
        if (known.empty() || rng.chance(0.7)) break;
        const auto idx = static_cast<std::size_t>(
            rng.uniform(0, static_cast<std::int64_t>(known.size()) - 1));
        const FlowId f = known[idx];
        // Settle its outstanding first so the ledger stays interpretable.
        if (consumed_by[f] > 0) {
          cc.release(f, consumed_by[f]);
          outstanding -= consumed_by[f];
          consumed_by[f] = 0;
        }
        cc.remove_flow(f);
        known.erase(known.begin() + static_cast<std::ptrdiff_t>(idx));
        break;
      }
    }
    ASSERT_EQ(cc.balance_sum(), total - outstanding) << "step " << step;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CreditChaosProperty,
                         ::testing::Values(1u, 2u, 3u, 42u, 1337u));

// Property: after n flows arrive one at a time, every active flow holds a
// non-negative balance and nobody exceeds the fair share by more than the
// rounding slack.
class CreditFairnessProperty : public ::testing::TestWithParam<int> {};

TEST_P(CreditFairnessProperty, ArrivalsStayFair) {
  const int n = GetParam();
  CreditController cc(3000);
  for (FlowId f = 1; f <= static_cast<FlowId>(n); ++f) cc.add_flows({f});
  const std::int64_t share = 3000 / n;
  for (FlowId f = 1; f <= static_cast<FlowId>(n); ++f) {
    EXPECT_GE(cc.credits(f), 0) << "flow " << f;
    // Early arrivals keep at most ~2x the final share (no redistribution of
    // un-asked-for surplus), later ones get the target.
    EXPECT_LE(cc.credits(f), 2 * share + n) << "flow " << f;
  }
  EXPECT_EQ(cc.balance_sum(), 3000);
}

INSTANTIATE_TEST_SUITE_P(FlowCounts, CreditFairnessProperty,
                         ::testing::Values(2, 3, 8, 30, 100));

// Equivalence with the frozen controller that predates the per-block
// balance bounds (tests/credit_controller_oracle.{h,cc}). The bounds let
// the wealth-cap walk skip blocks, which must not change one decision:
// seeded random op sequences run against both, and every observable is
// compared after every op.
struct OracleCase {
  int flows;
  std::int64_t total;
  std::uint64_t seed;
};

class CreditOracleEquivalence : public ::testing::TestWithParam<OracleCase> {};

TEST_P(CreditOracleEquivalence, EveryObservableMatchesAfterEveryOp) {
  const OracleCase c = GetParam();
  CreditController cc(c.total);
  ceio_alg1::CreditController oracle(c.total);
  Rng rng(c.seed);
  const auto pick = [&] { return static_cast<FlowId>(rng.uniform(1, c.flows)); };
  // Amounts scale with the share so that releases push balances past 2x
  // the target (the wealth cap engages) and consumes push them negative.
  const auto amount = [&] {
    return rng.uniform(1, 3 * std::max<std::int64_t>(c.total / c.flows, 1) + 8);
  };

  // Populate one arrival at a time or in one batch.
  if (rng.chance(0.5)) {
    for (FlowId f = 1; f <= static_cast<FlowId>(c.flows); ++f) {
      cc.add_flows({f});
      oracle.add_flows({f});
    }
  } else {
    std::vector<FlowId> all(static_cast<std::size_t>(c.flows));
    std::iota(all.begin(), all.end(), FlowId{1});
    cc.add_flows(all);
    oracle.add_flows(all);
  }

  const int steps = std::max(600, 40'000 / c.flows);
  for (int step = 0; step < steps; ++step) {
    std::string op;
    switch (rng.uniform(0, 8)) {
      case 0: {
        const FlowId f = pick();
        op = "add " + std::to_string(f);
        cc.add_flows({f});
        oracle.add_flows({f});
        break;
      }
      case 1: {  // batched arrivals, duplicates and active flows included
        std::vector<FlowId> batch(static_cast<std::size_t>(rng.uniform(2, 64)));
        for (FlowId& f : batch) f = pick();
        op = "add batch of " + std::to_string(batch.size());
        cc.add_flows(batch);
        oracle.add_flows(batch);
        break;
      }
      case 2: {
        const FlowId f = pick();
        op = "reclaim " + std::to_string(f);
        cc.reclaim(f);
        oracle.reclaim(f);
        break;
      }
      case 3: {
        const FlowId f = pick();
        op = "reactivate " + std::to_string(f);
        cc.reactivate(f);
        oracle.reactivate(f);
        break;
      }
      case 4: {
        if (!rng.chance(0.1)) break;
        const FlowId f = pick();
        op = "remove " + std::to_string(f);
        cc.remove_flow(f);
        oracle.remove_flow(f);
        break;
      }
      case 5: {
        const FlowId f = pick();
        const std::int64_t n = amount();
        op = "consume " + std::to_string(f) + " " + std::to_string(n);
        cc.consume(f, n);
        oracle.consume(f, n);
        break;
      }
      case 6: {  // unbounded: may mint, and may name a removed flow
        const FlowId f = pick();
        const std::int64_t n = amount();
        op = "release " + std::to_string(f) + " " + std::to_string(n);
        cc.release(f, n);
        oracle.release(f, n);
        break;
      }
      case 7: {  // spend the whole balance: the next arrival records debts
        const FlowId f = pick();
        const std::int64_t n = std::max<std::int64_t>(cc.credits(f), 0) + rng.uniform(0, 4);
        op = "exhaust " + std::to_string(f) + " " + std::to_string(n);
        cc.consume(f, n);
        oracle.consume(f, n);
        break;
      }
      case 8: {
        if (!rng.chance(0.1)) break;
        const std::int64_t total = rng.uniform(c.total / 2, 2 * c.total);
        op = "set_total " + std::to_string(total);
        cc.set_total(total);
        oracle.set_total(total);
        break;
      }
    }
    ASSERT_EQ(cc.free_pool(), oracle.free_pool()) << "step " << step << ": " << op;
    ASSERT_EQ(cc.active_count(), oracle.active_count()) << "step " << step << ": " << op;
    ASSERT_EQ(cc.fair_share(), oracle.fair_share()) << "step " << step << ": " << op;
    for (FlowId f = 1; f <= static_cast<FlowId>(c.flows); ++f) {
      ASSERT_EQ(cc.credits(f), oracle.credits(f)) << "flow " << f << ", step " << step << ": " << op;
      ASSERT_EQ(cc.active(f), oracle.active(f)) << "flow " << f << ", step " << step << ": " << op;
      ASSERT_EQ(cc.debt_of(f), oracle.debt_of(f)) << "flow " << f << ", step " << step << ": " << op;
    }
  }
}

// A debt repayment is the one way a creditor's balance grows without a
// release of its own. Here it lifts flow 100 past twice the next target in
// a block the bounds had seen empty-handed; the next arrival must still
// take its excess first.
TEST(CreditOracle, RepaidCreditorStillDonatesItsExcess) {
  CreditController cc(1'000);
  ceio_alg1::CreditController oracle(1'000);
  const auto both = [&](auto&& op) {
    op(cc);
    op(oracle);
  };
  both([](auto& c) { c.add_flows({1}); });
  both([](auto& c) { c.consume(1, 1'000); });
  both([](auto& c) { c.add_flows({100}); });  // flow 1 owes flow 100 its share
  both([](auto& c) { c.release(1, 1'000); });  // repays flow 100 first
  both([](auto& c) { c.add_flows({200, 201, 202}); });
  for (const FlowId f : {1, 100, 200, 201, 202}) {
    EXPECT_EQ(cc.credits(f), oracle.credits(f)) << "flow " << f;
    EXPECT_EQ(cc.debt_of(f), oracle.debt_of(f)) << "flow " << f;
  }
  EXPECT_EQ(cc.credits(100), 200);
  EXPECT_EQ(cc.free_pool(), oracle.free_pool());
}

// C_total both below and above the flow count.
INSTANTIATE_TEST_SUITE_P(
    FlowsAndBudgets, CreditOracleEquivalence,
    ::testing::Values(OracleCase{1, 3'000, 1}, OracleCase{5, 3, 2}, OracleCase{64, 3'000, 3},
                      OracleCase{64, 40, 4}, OracleCase{130, 100, 5},
                      OracleCase{1'000, 3'000, 6}, OracleCase{1'000, 500, 7},
                      OracleCase{5'000, 3'000, 8}, OracleCase{5'000, 20'000, 9}),
    [](const auto& tpi) {
      return std::to_string(tpi.param.flows) + "flows_" + std::to_string(tpi.param.total) +
             "credits";
    });

}  // namespace
}  // namespace ceio
