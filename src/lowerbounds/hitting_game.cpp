#include "lowerbounds/hitting_game.h"

#include <algorithm>
#include <stdexcept>

namespace cogradio {

HittingGameReferee::HittingGameReferee(int c, int k, Rng rng) : c_(c), k_(k) {
  if (c < 1 || k < 1 || k > c)
    throw std::invalid_argument("hitting game: need 1 <= k <= c");
  // Uniform k-matching: pick k distinct A-endpoints and k distinct
  // B-endpoints and pair them by a random bijection (choosing edges one at
  // a time with uniform randomness, as in the Lemma 11 proof, induces the
  // same distribution).
  auto a_side = rng.sample_without_replacement(c, k);
  auto b_side = rng.sample_without_replacement(c, k);
  rng.shuffle(b_side);
  matching_.reserve(static_cast<std::size_t>(k));
  for (int i = 0; i < k; ++i)
    matching_.emplace_back(a_side[static_cast<std::size_t>(i)],
                           b_side[static_cast<std::size_t>(i)]);
}

bool HittingGameReferee::contains(const Edge& e) const {
  return std::find(matching_.begin(), matching_.end(), e) != matching_.end();
}

UniformPlayer::UniformPlayer(int c, Rng rng) : c_(c), rng_(rng) {
  if (c < 1) throw std::invalid_argument("player: need c >= 1");
}

Edge UniformPlayer::propose() {
  return {static_cast<int>(rng_.below(static_cast<std::uint64_t>(c_))),
          static_cast<int>(rng_.below(static_cast<std::uint64_t>(c_)))};
}

FreshPlayer::FreshPlayer(int c, Rng rng) {
  if (c < 1) throw std::invalid_argument("player: need c >= 1");
  deck_.reserve(static_cast<std::size_t>(c) * static_cast<std::size_t>(c));
  for (int a = 0; a < c; ++a)
    for (int b = 0; b < c; ++b) deck_.emplace_back(a, b);
  rng.shuffle(deck_);
}

Edge FreshPlayer::propose() {
  // After exhausting all c^2 edges the player must have won already (any
  // matching is a subset); keep cycling defensively.
  const Edge e = deck_[next_ % deck_.size()];
  ++next_;
  return e;
}

GameResult play(HittingGameReferee& referee, HittingGamePlayer& player,
                std::int64_t max_rounds) {
  GameResult result;
  for (std::int64_t round = 1; round <= max_rounds; ++round) {
    if (referee.contains(player.propose())) {
      result.won = true;
      result.rounds = round;
      return result;
    }
  }
  result.rounds = max_rounds;
  return result;
}

}  // namespace cogradio
