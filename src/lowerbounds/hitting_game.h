// The bipartite hitting games behind the paper's lower bounds (Section 6).
//
// (c,k)-bipartite hitting game (Lemma 11): the referee privately draws a
// uniformly random matching of size k in the complete bipartite graph
// K_{c,c}; the player proposes one edge per round and wins on the first
// proposal inside the matching. Lemma 11: any player that wins within
// f(c,k) rounds with probability >= 1/2 (for k <= c/beta, beta >= 2) has
// f(c,k) >= c^2/(alpha k), alpha = 2(beta/(beta-1))^2 <= 8.
//
// c-complete bipartite hitting game (Lemma 14): the referee draws a
// *perfect* matching (k = c); any >= 1/2-probability player needs >= c/3
// rounds.
//
// Experiments E7/E8 play the strongest natural players (uniform and
// no-repeat proposals) against these referees and verify the bounds;
// experiment E17 plugs in the Lemma-12 reduction player built from
// CogCast (lowerbounds/reduction.h).
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "util/rng.h"

namespace cogradio {

using Edge = std::pair<int, int>;  // (a-side index, b-side index), 0-based

// Referee state: a hidden k-matching in K_{c,c}.
class HittingGameReferee {
 public:
  // Draws the matching edge by edge with uniform independent randomness —
  // the exact referee used in the proof of Lemma 11. k = c gives the
  // c-complete game's uniform perfect matching.
  HittingGameReferee(int c, int k, Rng rng);

  int c() const { return c_; }
  int k() const { return k_; }
  bool contains(const Edge& e) const;
  const std::vector<Edge>& matching() const { return matching_; }

 private:
  int c_;
  int k_;
  std::vector<Edge> matching_;
};

// A player proposes one edge per round. Implementations may be arbitrary
// probabilistic automata (Lemma 11 places no restriction).
class HittingGamePlayer {
 public:
  virtual ~HittingGamePlayer() = default;
  virtual Edge propose() = 0;
};

// Proposes a uniformly random edge each round (with repetition).
class UniformPlayer : public HittingGamePlayer {
 public:
  UniformPlayer(int c, Rng rng);
  Edge propose() override;

 private:
  int c_;
  Rng rng_;
};

// Proposes a uniformly random *fresh* edge each round (never repeats) —
// the strongest oblivious strategy; its expected win round against a
// k-matching is ~ c^2/(k+1).
class FreshPlayer : public HittingGamePlayer {
 public:
  FreshPlayer(int c, Rng rng);
  Edge propose() override;

 private:
  std::vector<Edge> deck_;  // pre-shuffled proposals
  std::size_t next_ = 0;
};

struct GameResult {
  bool won = false;
  std::int64_t rounds = 0;  // rounds consumed (== max_rounds on loss)
};

// Plays `player` against `referee` for at most `max_rounds` rounds.
GameResult play(HittingGameReferee& referee, HittingGamePlayer& player,
                std::int64_t max_rounds);

}  // namespace cogradio
