// Tests for the closed-form theory calculators (analysis/theory.h), and
// Lemma 11's budget against the hitting-game players it bounds.
#include "analysis/theory.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>

#include "lowerbounds/hitting_game.h"

namespace cogradio::theory {
namespace {

TEST(Theory, CogCastShape) {
  // n >= c: (c/k) lg n.
  EXPECT_DOUBLE_EQ(cogcast_slots(256, 16, 4), 4.0 * 8.0);
  // c > n: extra c/n factor.
  EXPECT_DOUBLE_EQ(cogcast_slots(4, 16, 2), 8.0 * 4.0 * 2.0);
  // Monotone: more overlap is never slower.
  EXPECT_LT(cogcast_slots(64, 16, 8), cogcast_slots(64, 16, 2));
}

TEST(Theory, CogCompAddsLinearTerm) {
  EXPECT_DOUBLE_EQ(cogcomp_slots(256, 16, 4), cogcast_slots(256, 16, 4) + 256);
  EXPECT_DOUBLE_EQ(cogcomp_phase4_bound(64), 195.0);
}

TEST(Theory, StrawManShapes) {
  EXPECT_DOUBLE_EQ(rendezvous_broadcast_slots(256, 16, 4), 64.0 * 8.0);
  EXPECT_DOUBLE_EQ(rendezvous_aggregation_slots(8, 16, 4), 512.0);
  // The factor-c separation of Section 1.
  EXPECT_NEAR(rendezvous_broadcast_slots(256, 16, 4) /
                  cogcast_slots(256, 16, 4),
              16.0, 1e-9);
}

TEST(Theory, Lemma11BudgetMatchesAlphaFormula) {
  // beta = 2 -> alpha = 8.
  EXPECT_DOUBLE_EQ(lemma11_budget(16, 8), 16.0 * 16.0 / (8.0 * 8.0));
  // alpha -> 2 as beta -> infinity: budget -> c^2/(2k).
  EXPECT_NEAR(lemma11_budget(1024, 1), 1024.0 * 1024.0 / 2.0, 3000.0);
  EXPECT_THROW(lemma11_budget(8, 5), std::invalid_argument);
}

TEST(Lemma11, RoundBoundFormula) {
  // beta = c/k = 2 -> alpha = 8 -> bound = c^2 / (8k).
  EXPECT_DOUBLE_EQ(lemma11_budget(16, 8), 16.0 * 16.0 / (8.0 * 8.0));
  // beta -> infinity: alpha -> 2.
  EXPECT_NEAR(lemma11_budget(1000, 1), 1000.0 * 1000.0 / 2.004, 1000.0);
  EXPECT_THROW(lemma11_budget(4, 3), std::invalid_argument);
}

TEST(Lemma11, UniformPlayerLosesWithinTheBound) {
  // Empirical check of the lower bound: within l = c^2/(alpha k) rounds the
  // uniform player should win with probability < 1/2 (Lemma 11 proves this
  // for every player).
  const int c = 24, k = 6;
  const auto l = static_cast<std::int64_t>(lemma11_budget(c, k));
  int wins = 0;
  constexpr int kTrials = 400;
  for (int t = 0; t < kTrials; ++t) {
    HittingGameReferee ref(c, k, Rng(1000 + static_cast<std::uint64_t>(t)));
    UniformPlayer player(c, Rng(2000 + static_cast<std::uint64_t>(t)));
    if (play(ref, player, l).won) ++wins;
  }
  EXPECT_LT(wins, kTrials / 2);
}

TEST(Lemma11, FreshPlayerAlsoLosesWithinTheBound) {
  const int c = 24, k = 6;
  const auto l = static_cast<std::int64_t>(lemma11_budget(c, k));
  int wins = 0;
  constexpr int kTrials = 400;
  for (int t = 0; t < kTrials; ++t) {
    HittingGameReferee ref(c, k, Rng(5000 + static_cast<std::uint64_t>(t)));
    FreshPlayer player(c, Rng(6000 + static_cast<std::uint64_t>(t)));
    if (play(ref, player, l).won) ++wins;
  }
  EXPECT_LT(wins, kTrials / 2);
}

TEST(Theory, Lemma14AndGap) {
  EXPECT_DOUBLE_EQ(lemma14_budget(48), 16.0);
  EXPECT_DOUBLE_EQ(optimality_gap(256), 8.0);
}

TEST(Theory, Theorem16Exact) {
  EXPECT_DOUBLE_EQ(theorem16_expectation(16, 1), 8.5);
  EXPECT_DOUBLE_EQ(theorem16_expectation(64, 7), 65.0 / 8.0);
}

TEST(Theory, AggregationAndHopping) {
  EXPECT_DOUBLE_EQ(aggregation_lower_bound(96, 4), 24.0);
  // C = k + n(c-k); the paper example c=n^2, k=c-1 gives C/k = (k+n)/k.
  EXPECT_DOUBLE_EQ(hopping_together_slots(4, 16, 15), 19.0 / 15.0);
}

TEST(Theory, BackoffEnvelope) {
  EXPECT_DOUBLE_EQ(backoff_micro_slots(256), 64.0);
  EXPECT_DOUBLE_EQ(backoff_micro_slots(1), 1.0);  // lg clamps at 2 -> 1
}

TEST(Scorecard, PassWindowSemantics) {
  ScoreRow in_window{"x", "ref", 100.0, 150.0, 0.5, 2.0};
  EXPECT_TRUE(in_window.pass());
  ScoreRow below{"x", "ref", 100.0, 40.0, 0.5, 2.0};
  EXPECT_FALSE(below.pass());
  ScoreRow above{"x", "ref", 100.0, 201.0, 0.5, 2.0};
  EXPECT_FALSE(above.pass());
  ScoreRow one_sided{"x", "ref", 100.0, 1e6, 1.0, 1e9};
  EXPECT_TRUE(one_sided.pass());
}

TEST(Scorecard, PrintCountsFailures) {
  std::vector<ScoreRow> rows{{"a", "r", 10.0, 10.0, 0.9, 1.1},
                             {"b", "r", 10.0, 99.0, 0.9, 1.1}};
  EXPECT_EQ(print_scorecard(rows, "test scorecard"), 1);
}

}  // namespace
}  // namespace cogradio::theory
