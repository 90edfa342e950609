// E8 — Lemma 14: the c-complete bipartite hitting game (perfect matching)
// needs >= c/3 rounds to win with probability 1/2.
//
// The fresh player proposes distinct edges; against a uniform perfect
// matching each fresh proposal hits with probability ~1/c, so the median
// win round is ~c ln 2 — comfortably above c/3, as the lemma requires.
#include <cstdio>

#include "bench_common.h"

using namespace cogradio;
using namespace cogradio::bench;

int main(int argc, char** argv) {
  CliArgs args(argc, argv);
  const int trials = static_cast<int>(args.get_int("trials", 600));
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  const int jobs = args.get_jobs();
  args.finish();
  BenchManifest manifest("e8_complete_game", &args);

  std::printf("E8: c-complete bipartite hitting game   (Lemma 14, "
              "%d trials/point)\n",
              trials);

  Table table({"c", "budget c/3", "win rate in budget", "median win round",
               "median/c"});
  for (int c : {12, 24, 48, 96, 192}) {
    int wins_in_budget = 0;
    std::vector<double> win_rounds;
    for (const GameResult& result :
         hitting_game_trials(c, c, GamePlayer::Fresh, 64LL * c, trials,
                             seed + static_cast<std::uint64_t>(c), jobs)) {
      if (result.won && result.rounds <= c / 3) ++wins_in_budget;
      if (result.won) win_rounds.push_back(static_cast<double>(result.rounds));
    }
    const double median = summarize(win_rounds).median;
    const std::string tag = "c" + std::to_string(c);
    manifest.set(tag + ".win_rate_in_budget",
                 static_cast<double>(wins_in_budget) / trials);
    manifest.set(tag + ".median_win_round", median);
    table.add_row({Table::num(static_cast<std::int64_t>(c)),
                   Table::num(static_cast<std::int64_t>(c / 3)),
                   Table::num(static_cast<double>(wins_in_budget) / trials, 3),
                   Table::num(median, 1), Table::num(median / c, 3)});
  }
  table.print_with_title("fresh player vs uniform perfect matching");
  std::printf("\nLemma 14 predicts every 'win rate in budget' < 0.5.\n");
  manifest.write();
  return 0;
}
