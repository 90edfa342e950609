// E7 — Lemma 11: the (c,k)-bipartite hitting game needs >= c^2/(alpha k)
// rounds to win with probability 1/2 (alpha = 2(beta/(beta-1))^2, beta=c/k).
//
// The harness plays the uniform and fresh-proposal players against the
// uniform-matching referee and reports (a) the empirical win rate within
// the Lemma 11 round budget — which must stay below 1/2 — and (b) the
// median win round, which should track c^2/k.
#include <cstdio>
#include <set>

#include "analysis/theory.h"
#include "bench_common.h"

using namespace cogradio;
using namespace cogradio::bench;

int main(int argc, char** argv) {
  CliArgs args(argc, argv);
  const int trials = static_cast<int>(args.get_int("trials", 400));
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  const int jobs = args.get_jobs();
  args.finish();
  BenchManifest manifest("e7_hitting_game", &args);

  std::printf("E7: (c,k)-bipartite hitting game   (Lemma 11, %d trials/point)\n",
              trials);

  for (const bool fresh : {false, true}) {
    Table table({"c", "k", "lemma11 budget", "win rate in budget",
                 "median win round", "median/(c^2/k)"});
    for (int c : {16, 32, 64}) {
      // Each k of {2, c/8, c/2} once, ascending: at c = 16, c/8 is 2.
      for (const int k : std::set<int>{2, c / 8, c / 2}) {
        if (k < 1 || 2 * k > c) continue;
        const auto budget =
            static_cast<std::int64_t>(theory::lemma11_budget(c, k));
        int wins_in_budget = 0;
        std::vector<double> win_rounds;
        for (const GameResult& result : hitting_game_trials(
                 c, k, fresh ? GamePlayer::Fresh : GamePlayer::Uniform,
                 64LL * c * c, trials,
                 seed + static_cast<std::uint64_t>(c * 100 + k), jobs)) {
          if (result.won && result.rounds <= budget) ++wins_in_budget;
          if (result.won)
            win_rounds.push_back(static_cast<double>(result.rounds));
        }
        const double rate = static_cast<double>(wins_in_budget) / trials;
        const double median = summarize(win_rounds).median;
        const std::string tag = std::string(fresh ? "fresh" : "uniform") +
                                ".c" + std::to_string(c) + ".k" +
                                std::to_string(k);
        manifest.set(tag + ".win_rate_in_budget", rate);
        manifest.set(tag + ".median_win_round", median);
        table.add_row({Table::num(static_cast<std::int64_t>(c)),
                       Table::num(static_cast<std::int64_t>(k)),
                       Table::num(budget), Table::num(rate, 3),
                       Table::num(median, 1),
                       Table::num(median / (static_cast<double>(c) * c / k), 3)});
      }
    }
    table.print_with_title(fresh ? "fresh (no-repeat) player"
                                 : "uniform player");
  }
  std::printf("\nLemma 11 predicts every row's 'win rate in budget' < 0.5.\n");
  manifest.write();
  return 0;
}
