// Tests for the hitting games (Section 6, Lemma 14). Lemma 11's budget
// and the players it bounds are checked in test_theory.cpp.
#include "lowerbounds/hitting_game.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "util/stats.h"

namespace cogradio {
namespace {

TEST(Referee, MatchingIsAValidKMatching) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    HittingGameReferee ref(10, 4, Rng(seed));
    ASSERT_EQ(ref.matching().size(), 4u);
    std::set<int> a_side, b_side;
    for (const auto& [a, b] : ref.matching()) {
      EXPECT_GE(a, 0);
      EXPECT_LT(a, 10);
      EXPECT_GE(b, 0);
      EXPECT_LT(b, 10);
      EXPECT_TRUE(a_side.insert(a).second) << "duplicate A endpoint";
      EXPECT_TRUE(b_side.insert(b).second) << "duplicate B endpoint";
    }
  }
}

TEST(Referee, PerfectMatchingWhenKEqualsC) {
  HittingGameReferee ref(6, 6, Rng(3));
  std::set<int> a_side, b_side;
  for (const auto& [a, b] : ref.matching()) {
    a_side.insert(a);
    b_side.insert(b);
  }
  EXPECT_EQ(a_side.size(), 6u);
  EXPECT_EQ(b_side.size(), 6u);
}

TEST(Referee, ContainsIsExact) {
  HittingGameReferee ref(5, 2, Rng(4));
  for (int a = 0; a < 5; ++a)
    for (int b = 0; b < 5; ++b) {
      const bool in = ref.contains({a, b});
      const bool expected =
          std::find(ref.matching().begin(), ref.matching().end(),
                    Edge{a, b}) != ref.matching().end();
      EXPECT_EQ(in, expected);
    }
}

TEST(Referee, RejectsBadParams) {
  EXPECT_THROW(HittingGameReferee(0, 1, Rng(1)), std::invalid_argument);
  EXPECT_THROW(HittingGameReferee(4, 0, Rng(1)), std::invalid_argument);
  EXPECT_THROW(HittingGameReferee(4, 5, Rng(1)), std::invalid_argument);
}

TEST(Play, WinningRoundIsCounted) {
  // A deterministic "player" that proposes a known matching edge on round 3.
  class Scripted : public HittingGamePlayer {
   public:
    explicit Scripted(Edge target) : target_(target) {}
    Edge propose() override {
      ++round_;
      if (round_ == 3) return target_;
      return {target_.first, (target_.second + 1) % 4};
    }
    Edge target_;
    int round_ = 0;
  };
  HittingGameReferee ref(4, 4, Rng(5));
  Scripted player(ref.matching().front());
  const GameResult result = play(ref, player, 100);
  EXPECT_TRUE(result.won);
  EXPECT_EQ(result.rounds, 3);
}

TEST(Play, LossConsumesAllRounds) {
  class Stubborn : public HittingGamePlayer {
   public:
    Edge propose() override { return {0, 0}; }
  };
  HittingGameReferee ref(6, 1, Rng(6));
  // Re-roll until (0,0) is not the matching edge.
  while (ref.contains({0, 0})) ref = HittingGameReferee(6, 1, Rng(ref.matching().front().second + 10));
  Stubborn player;
  const GameResult result = play(ref, player, 50);
  EXPECT_FALSE(result.won);
  EXPECT_EQ(result.rounds, 50);
}

TEST(FreshPlayer, EventuallyWinsAlways) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    HittingGameReferee ref(8, 2, Rng(seed));
    FreshPlayer player(8, Rng(seed + 100));
    const GameResult result = play(ref, player, 8 * 8);
    EXPECT_TRUE(result.won);  // all 64 edges proposed, matching is a subset
  }
}

TEST(Lemma14, CompleteGameNeedsCOver3Rounds) {
  // k = c (perfect matching): any player wins within c/3 rounds with
  // probability < 1/2. The fresh player is the strongest natural one.
  const int c = 30;
  int wins = 0;
  constexpr int kTrials = 400;
  for (int t = 0; t < kTrials; ++t) {
    HittingGameReferee ref(c, c, Rng(7000 + static_cast<std::uint64_t>(t)));
    FreshPlayer player(c, Rng(8000 + static_cast<std::uint64_t>(t)));
    if (play(ref, player, c / 3).won) ++wins;
  }
  EXPECT_LT(wins, kTrials / 2);
}

TEST(FreshPlayer, ExpectedWinRoundMatchesTheory) {
  // Against a k-matching, a no-repeat uniform player's median win round is
  // ~ c^2 * ln(2) / k (geometric-ish over c^2 cells with k winners).
  const int c = 20, k = 5;
  std::vector<double> rounds;
  for (int t = 0; t < 300; ++t) {
    HittingGameReferee ref(c, k, Rng(9000 + static_cast<std::uint64_t>(t)));
    FreshPlayer player(c, Rng(9500 + static_cast<std::uint64_t>(t)));
    const auto result = play(ref, player, c * c);
    ASSERT_TRUE(result.won);
    rounds.push_back(static_cast<double>(result.rounds));
  }
  const double median = summarize(rounds).median;
  const double theory = c * c * 0.66 / k;  // median of min of k uniform picks
  EXPECT_GT(median, theory * 0.5);
  EXPECT_LT(median, theory * 2.0);
}

}  // namespace
}  // namespace cogradio
