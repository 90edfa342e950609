// E17 — Lemma 12: a fast broadcast algorithm yields a fast hitting-game
// player; round accounting is min{c, n} * g(c, k, n).
//
// The harness plays the CogCast-derived reduction player against the
// referee and reports (a) its game rounds vs the min{c,n} * simulated-slot
// budget — always within it — and (b) how the simulated-slot count (the
// "broadcast time" of the simulated network) compares with the direct
// players' round counts, making Lemma 12's transfer quantitative.
#include <cstdio>

#include "analysis/theory.h"
#include "bench_common.h"
#include "lowerbounds/hitting_game.h"
#include "lowerbounds/reduction.h"

using namespace cogradio;
using namespace cogradio::bench;

int main(int argc, char** argv) {
  CliArgs args(argc, argv);
  const int trials = static_cast<int>(args.get_int("trials", 300));
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  const int jobs = args.get_jobs();
  args.finish();
  BenchManifest manifest("e17_reduction", &args);

  std::printf("E17: Lemma 12 reduction player   (%d trials/point)\n", trials);

  Table table({"c", "k", "n", "median rounds", "median sim slots",
               "min{c,n}*slots", "rounds within budget", "lemma11 budget"});
  for (int c : {16, 32}) {
    for (int k : {2, c / 4}) {
      for (int n : {4, 16, 64}) {
        struct Trial {
          bool won = false;
          double rounds = 0, slots = 0;
          bool within = false;
        };
        const auto outcomes = sweep_outcomes(
            trials,
            seed + static_cast<std::uint64_t>(c * 1000 + k * 100 + n), jobs,
            [&](Rng& rng) {
              HittingGameReferee ref(c, k, Rng(rng()));
              CogCastHittingPlayer player(n, c, Rng(rng()));
              const GameResult result = play(ref, player, 1'000'000);
              if (!result.won) return Trial{};
              return Trial{
                  true, static_cast<double>(result.rounds),
                  static_cast<double>(player.simulated_slots()),
                  result.rounds <= static_cast<std::int64_t>(std::min(c, n)) *
                                       player.simulated_slots()};
            });
        std::vector<double> rounds, slots;
        int within = 0;
        for (const Trial& o : outcomes) {
          if (!o.won) continue;
          rounds.push_back(o.rounds);
          slots.push_back(o.slots);
          if (o.within) ++within;
        }
        const std::string tag = "c" + std::to_string(c) + ".k" +
                                std::to_string(k) + ".n" + std::to_string(n);
        manifest.set(tag + ".median_rounds", summarize(rounds).median);
        manifest.set(tag + ".median_sim_slots", summarize(slots).median);
        manifest.set(tag + ".within_budget_rate",
                     static_cast<double>(within) / trials);
        table.add_row(
            {Table::num(static_cast<std::int64_t>(c)),
             Table::num(static_cast<std::int64_t>(k)),
             Table::num(static_cast<std::int64_t>(n)),
             Table::num(summarize(rounds).median, 1),
             Table::num(summarize(slots).median, 1),
             Table::num(summarize(slots).median * std::min(c, n), 1),
             Table::num(static_cast<double>(within) / trials, 3),
             Table::num(theory::lemma11_budget(c, k), 1)});
      }
    }
  }
  table.print_with_title("CogCast as a (c,k)-hitting-game player");
  std::printf("\n'rounds within budget' must be 1.000 (Lemma 12 accounting), and\n"
              "median rounds must exceed the Lemma 11 budget in the c<=n rows.\n");
  manifest.write();
  return 0;
}
