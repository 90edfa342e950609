// One trial body per paper claim.
//
// Each function below runs `trials` seeded trials of one claim's
// experiment through sweep_outcomes (util/sweep.h): trial t draws all of
// its randomness from trial_rng(base_seed, t), in the draw order noted
// beside the function, and the outcomes come back in trial order (for
// Theorem 4 and the straw man, as the Summary of their completion slots),
// the same for any `jobs`. The shape of the instance is the arguments. The
// smoke suite behind `cograd bench` (harness/bench_suite.h) calls them at
// its miniature's size and seed, the bench/ harness of the same claim at
// full size, and E29's scorecard at its row's, so all three run the one
// body and every trial runs once per caller.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/runtime.h"
#include "lowerbounds/hitting_game.h"
#include "sim/backoff.h"
#include "sim/fault_engine.h"
#include "util/stats.h"

namespace cogradio {

// The slots of the outcomes that completed, in trial order: what every
// claim's median reads, with a censored trial (one that hit its cap)
// dropped.
template <typename Outcome>
std::vector<double> completed_slots(const std::vector<Outcome>& outcomes) {
  std::vector<double> slots;
  for (const Outcome& out : outcomes)
    if (out.completed) slots.push_back(static_cast<double>(out.slots));
  return slots;
}

// Theorem 4: the completion slots of CogCast on a `pattern` assignment
// (static or dynamic). Draws the assignment's generator, then the run
// seed; a run that misses its 64 x horizon cap is censored.
Summary cogcast_slots(const std::string& pattern, int n, int c, int k,
                      int trials, std::uint64_t base_seed, int jobs = 1);

// Section 1's straw man: every node runs randomized rendezvous with the
// source. cogcast_slots' draws; capped at 4,000,000 slots.
Summary rendezvous_broadcast_slots(const std::string& pattern, int n, int c,
                                   int k, int trials, std::uint64_t base_seed,
                                   int jobs = 1);

// Theorem 10: CogComp summing make_values inputs. Draws s1, which seeds the
// assignment and (xor a constant) the inputs, then the run seed.
std::vector<AggregationOutcome> cogcomp_trials(const std::string& pattern,
                                               int n, int c, int k, int trials,
                                               std::uint64_t base_seed,
                                               int jobs);

// Lemmas 11 and 14: the (c,k)-bipartite hitting game, k = c being Lemma
// 14's complete game. Draws the referee's generator, then the player's;
// the game stops after `max_rounds`.
enum class GamePlayer { Uniform, Fresh };
std::vector<GameResult> hitting_game_trials(int c, int k, GamePlayer player,
                                            std::int64_t max_rounds,
                                            int trials,
                                            std::uint64_t base_seed, int jobs);

// Theorem 18: CogCast against a jammer of `strategy` (random, sweep or
// reactive) blocking `budget` channels per node per slot; budget 0 runs
// unjammed. Draws the assignment's generator, the run seed, then the
// random jammer's generator; the cap is `cap_horizons` x horizon.
std::vector<BroadcastOutcome> jammed_cogcast_trials(
    const std::string& pattern, int n, int c, int k,
    const std::string& strategy, int budget, Slot cap_horizons, int trials,
    std::uint64_t base_seed, int jobs);

// Footnote 4: one contended channel-slot among `contenders` broadcasters,
// resolved by decay backoff (no collision detection) at
// backoff_params_for(contenders), or by tree splitting with collision
// detection within `budget` micro-slots. Each trial's draws are the
// resolver's own.
std::vector<BackoffOutcome> decay_backoff_trials(int contenders, int trials,
                                                 std::uint64_t base_seed,
                                                 int jobs);
std::vector<BackoffOutcome> cd_split_trials(int contenders, Slot budget,
                                            int trials,
                                            std::uint64_t base_seed, int jobs);
// The micro-slots of the resolved trials, in trial order.
std::vector<double> resolved_micro_slots(
    const std::vector<BackoffOutcome>& outcomes);

// Section 4's faults: CogCast with a FaultEngine attached, capped at
// `max_slots`. Draws the assignment's generator, the run seed, the
// engine's generator, then the schedule's generator, which `schedule`
// receives with the engine to add the trial's fault windows.
using FaultSchedule = std::function<void(FaultEngine&, Rng&)>;
std::vector<BroadcastOutcome> faulted_cogcast_trials(
    const std::string& pattern, int n, int c, int k, Slot max_slots,
    const FaultSchedule& schedule, int trials, std::uint64_t base_seed,
    int jobs);
// A correlated churn burst: `nodes` of the n - 1 non-source nodes, drawn
// from the schedule's generator, churned out over [from, from + len).
FaultSchedule churn_burst(int n, int nodes, Slot from, Slot len);

// The multi-hop lift: the epidemic flooding a `topology` graph (line,
// ring, grid of n/8 x 8, or random geometric of radius 0.3). Draws the
// assignment's generator, the run seed, then the geometric graph's.
struct MultihopTrial {
  bool completed = false;
  Slot slots = 0;
  int diameter = 0;  // of the trial's graph
};
std::vector<MultihopTrial> multihop_cast_trials(const std::string& pattern,
                                                const std::string& topology,
                                                int n, int c, int k,
                                                int trials,
                                                std::uint64_t base_seed,
                                                int jobs);

}  // namespace cogradio
