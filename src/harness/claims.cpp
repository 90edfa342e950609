#include "harness/claims.h"

#include <memory>

#include "core/multihop_cast.h"
#include "sim/assignment.h"
#include "sim/jamming.h"
#include "sim/topology.h"
#include "util/sweep.h"

namespace cogradio {

namespace {

std::unique_ptr<Jammer> make_jammer(const std::string& strategy, int n, int c,
                                    int budget, Rng rng) {
  if (strategy == "random")
    return std::make_unique<RandomJammer>(n, c, budget, rng);
  if (strategy == "sweep") return std::make_unique<SweepJammer>(n, c, budget);
  return std::make_unique<ReactiveJammer>(n, c, budget);
}

// Only the random geometric graph draws from `rng`.
Topology make_topology(const std::string& shape, int n, Rng& rng) {
  if (shape == "line") return Topology::line(n);
  if (shape == "ring") return Topology::ring(n);
  if (shape == "grid") return Topology::grid(n / 8, 8);
  return Topology::random_geometric(n, 0.3, Rng(rng()));
}

}  // namespace

Summary cogcast_slots(const std::string& pattern, int n, int c, int k,
                      int trials, std::uint64_t base_seed, int jobs) {
  return summarize(completed_slots(
      sweep_outcomes(trials, base_seed, jobs, [&](Rng& rng) {
        const std::uint64_t s1 = rng();
        const std::uint64_t s2 = rng();
        auto assignment =
            make_assignment(pattern, n, c, k, LabelMode::LocalRandom, Rng(s1));
        CogCastRunConfig config;
        config.params = {n, c, k, 4.0};
        config.seed = s2;
        config.max_slots = 64 * config.params.horizon();
        return run_cogcast(*assignment, config);
      })));
}

Summary rendezvous_broadcast_slots(const std::string& pattern, int n, int c,
                                   int k, int trials, std::uint64_t base_seed,
                                   int jobs) {
  return summarize(completed_slots(
      sweep_outcomes(trials, base_seed, jobs, [&](Rng& rng) {
        const std::uint64_t s1 = rng();
        const std::uint64_t s2 = rng();
        auto assignment =
            make_assignment(pattern, n, c, k, LabelMode::LocalRandom, Rng(s1));
        BaselineRunConfig config;
        config.seed = s2;
        config.max_slots = 4'000'000;
        return run_rendezvous_broadcast(*assignment, config);
      })));
}

std::vector<AggregationOutcome> cogcomp_trials(const std::string& pattern,
                                               int n, int c, int k, int trials,
                                               std::uint64_t base_seed,
                                               int jobs) {
  return sweep_outcomes(trials, base_seed, jobs, [&](Rng& rng) {
    const std::uint64_t s1 = rng();
    const std::uint64_t s2 = rng();
    auto assignment =
        make_assignment(pattern, n, c, k, LabelMode::LocalRandom, Rng(s1));
    CogCompRunConfig config;
    config.params = {n, c, k, 4.0};
    config.seed = s2;
    const auto values = make_values(n, s1 ^ 0x9e3779b97f4a7c15ULL);
    return run_cogcomp(*assignment, values, config);
  });
}

std::vector<GameResult> hitting_game_trials(int c, int k, GamePlayer player,
                                            std::int64_t max_rounds,
                                            int trials,
                                            std::uint64_t base_seed,
                                            int jobs) {
  return sweep_outcomes(trials, base_seed, jobs, [&](Rng& rng) {
    HittingGameReferee referee(c, k, Rng(rng()));
    std::unique_ptr<HittingGamePlayer> proposer;
    if (player == GamePlayer::Fresh)
      proposer = std::make_unique<FreshPlayer>(c, Rng(rng()));
    else
      proposer = std::make_unique<UniformPlayer>(c, Rng(rng()));
    return play(referee, *proposer, max_rounds);
  });
}

std::vector<BroadcastOutcome> jammed_cogcast_trials(
    const std::string& pattern, int n, int c, int k,
    const std::string& strategy, int budget, Slot cap_horizons, int trials,
    std::uint64_t base_seed, int jobs) {
  return sweep_outcomes(trials, base_seed, jobs, [&](Rng& rng) {
    const std::uint64_t s1 = rng();
    const std::uint64_t s2 = rng();
    const std::uint64_t s3 = rng();
    auto assignment =
        make_assignment(pattern, n, c, k, LabelMode::LocalRandom, Rng(s1));
    const auto jammer = make_jammer(strategy, n, c, budget, Rng(s3));
    CogCastRunConfig config;
    config.params = {n, c, k, 4.0};
    config.seed = s2;
    config.max_slots = cap_horizons * config.params.horizon();
    config.jammer = budget > 0 ? jammer.get() : nullptr;
    return run_cogcast(*assignment, config);
  });
}

std::vector<BackoffOutcome> decay_backoff_trials(int contenders, int trials,
                                                 std::uint64_t base_seed,
                                                 int jobs) {
  const BackoffParams params = backoff_params_for(contenders);
  return sweep_outcomes(trials, base_seed, jobs, [&](Rng& rng) {
    return decay_backoff(contenders, params, rng);
  });
}

std::vector<BackoffOutcome> cd_split_trials(int contenders, Slot budget,
                                            int trials,
                                            std::uint64_t base_seed,
                                            int jobs) {
  return sweep_outcomes(trials, base_seed, jobs, [&](Rng& rng) {
    return cd_split_backoff(contenders, budget, rng);
  });
}

std::vector<double> resolved_micro_slots(
    const std::vector<BackoffOutcome>& outcomes) {
  std::vector<double> micro;
  for (const BackoffOutcome& out : outcomes)
    if (out.resolved) micro.push_back(static_cast<double>(out.micro_slots));
  return micro;
}

std::vector<BroadcastOutcome> faulted_cogcast_trials(
    const std::string& pattern, int n, int c, int k, Slot max_slots,
    const FaultSchedule& schedule, int trials, std::uint64_t base_seed,
    int jobs) {
  return sweep_outcomes(trials, base_seed, jobs, [&](Rng& rng) {
    const std::uint64_t s1 = rng();
    const std::uint64_t s2 = rng();
    const std::uint64_t s3 = rng();
    const std::uint64_t s4 = rng();
    auto assignment =
        make_assignment(pattern, n, c, k, LabelMode::LocalRandom, Rng(s1));
    FaultEngine engine(n, c, Rng(s3));
    Rng windows(s4);
    schedule(engine, windows);
    CogCastRunConfig config;
    config.params = {n, c, k, 4.0};
    config.seed = s2;
    config.max_slots = max_slots;
    config.fault_engine = &engine;
    return run_cogcast(*assignment, config);
  });
}

FaultSchedule churn_burst(int n, int nodes, Slot from, Slot len) {
  return [=](FaultEngine& engine, Rng& rng) {
    std::vector<NodeId> hit;
    for (const auto u : rng.sample_without_replacement(n - 1, nodes))
      hit.push_back(u + 1);
    engine.add_burst(hit, from, len);
  };
}

std::vector<MultihopTrial> multihop_cast_trials(const std::string& pattern,
                                                const std::string& topology,
                                                int n, int c, int k,
                                                int trials,
                                                std::uint64_t base_seed,
                                                int jobs) {
  return sweep_outcomes(trials, base_seed, jobs, [&](Rng& rng) {
    const std::uint64_t s1 = rng();
    const std::uint64_t s2 = rng();
    auto assignment =
        make_assignment(pattern, n, c, k, LabelMode::LocalRandom, Rng(s1));
    const Topology graph = make_topology(topology, n, rng);
    MultihopCastConfig config;
    config.seed = s2;
    const auto out = run_multihop_cast(*assignment, graph, config);
    return MultihopTrial{out.completed, out.slots, graph.diameter()};
  });
}

}  // namespace cogradio
