// E29 — the scorecard: every quantitative claim of the paper, predicted vs
// measured, in one table with PASS/FAIL verdicts.
//
// A meta-bench for quick regression checking: runs a small instance of
// each claim (upper bounds, lower bounds, the worked examples, the model
// substitutions) against the closed forms in analysis/theory.h. Windows
// are generous where the paper only fixes a shape (hidden constants) and
// tight where it fixes a number (Theorem 16's (c+1)/(k+1)). Exit code =
// number of failing rows, so CI can gate on it.
#include <cstdio>
#include <iterator>

#include "analysis/theory.h"
#include "baselines/tdma_aggregation.h"
#include "bench_common.h"

using namespace cogradio;
using namespace cogradio::bench;

int main(int argc, char** argv) {
  CliArgs args(argc, argv);
  const int trials = static_cast<int>(args.get_int("trials", 20));
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  const int jobs = args.get_jobs();
  args.finish();
  BenchManifest manifest("e29_scorecard", &args);

  std::printf("E29: scorecard — every paper claim, predicted vs measured "
              "(%d trials/row)\n",
              trials);

  std::vector<theory::ScoreRow> rows;
  Rng seeder(seed);

  {  // Theorem 4: broadcast time shape (partitioned => overlap exactly k).
    const int n = 128, c = 16, k = 4;
    const Summary s =
        cogcast_slots("partitioned", n, c, k, trials, seeder(), jobs);
    rows.push_back({"broadcast slots (n=128,c=16,k=4)", "Theorem 4",
                    theory::cogcast_slots(n, c, k), s.median, 0.2, 3.0});
  }
  {  // Theorem 4: the 1/k factor — ratio of medians at k vs 4k.
    const int n = 64, c = 16;
    const Summary s1 =
        cogcast_slots("partitioned", n, c, 2, trials, seeder(), jobs);
    const Summary s4 =
        cogcast_slots("partitioned", n, c, 8, trials, seeder(), jobs);
    rows.push_back({"T(k=2)/T(k=8) (n=64,c=16)", "Theorem 4 (1/k)", 4.0,
                    safe_ratio(s1.median, s4.median), 0.5, 2.0});
  }
  {  // Theorem 10: phase 4 within 3(n+1) slots.
    const int n = 64, c = 16, k = 4;
    std::vector<double> p4;
    for (const AggregationOutcome& out :
         cogcomp_trials("shared-core", n, c, k, trials, seeder(), jobs))
      if (out.completed && out.result == out.expected)
        p4.push_back(static_cast<double>(out.phase4_slots));
    rows.push_back({"phase-4 slots (n=64)", "Theorem 10",
                    theory::cogcomp_phase4_bound(n), summarize(p4).p95, 0.0,
                    1.0});
  }
  // Lemmas 11 and 14: the fresh player's median win round exceeds the
  // budget, (c,k) = (32,4) and the complete game at c = 48.
  const auto median_win_round = [&](int c, int k, std::int64_t max_rounds) {
    std::vector<double> wins;
    for (const GameResult& result :
         hitting_game_trials(c, k, GamePlayer::Fresh, max_rounds, 200,
                             seeder(), jobs))
      if (result.won) wins.push_back(static_cast<double>(result.rounds));
    return summarize(wins).median;
  };
  rows.push_back({"hitting-game median round (c=32,k=4)", "Lemma 11",
                  theory::lemma11_budget(32, 4),
                  median_win_round(32, 4, 64LL * 32 * 32), 1.0, 1e9});
  rows.push_back({"complete-game median round (c=48)", "Lemma 14",
                  theory::lemma14_budget(48),
                  median_win_round(48, 48, 64LL * 48), 1.0, 1e9});
  {  // Theorem 16: exact expectation of the optimal scan.
    const int c = 32, k = 2;
    Rng local(seeder());
    double sum = 0;
    const int probes = 20000;
    for (int t = 0; t < probes; ++t) {
      const auto order = local.sample_without_replacement(c, c);
      for (int slot = 1; slot <= c; ++slot)
        if (order[static_cast<std::size_t>(slot - 1)] < k) {
          sum += slot;
          break;
        }
    }
    rows.push_back({"first-overlap-hit mean (c=32,k=2)", "Theorem 16",
                    theory::theorem16_expectation(c, k), sum / probes, 0.95,
                    1.05});
  }
  {  // Section 5: TDMA matches the aggregation lower bound.
    const int n = 96, c = 16, k = 2;
    PartitionedAssignment assignment(n, c, k, LabelMode::LocalRandom,
                                     Rng(seeder()));
    const auto values = make_values(n, seeder());
    const auto out = run_tdma_aggregation(assignment, values, AggOp::Sum);
    rows.push_back({"TDMA aggregation slots (n=96,k=2)", "Section 5 Omega(n/k)",
                    theory::aggregation_lower_bound(n, k),
                    static_cast<double>(out.slots), 0.9, 1.5});
  }
  {  // Section 6: hopping-together expectation on the worked example.
    const int n = 8, c = 32, k = 8;
    std::vector<double> slots;
    Rng local(seeder());
    for (int t = 0; t < trials; ++t) {
      PartitionedAssignment assignment(n, c, k, LabelMode::Global,
                                       Rng(local()));
      BaselineRunConfig config;
      config.seed = local();
      config.max_slots = 8LL * assignment.total_channels();
      const auto out = run_hopping_together(assignment, config);
      if (out.completed) slots.push_back(static_cast<double>(out.slots));
    }
    rows.push_back({"hopping-together mean (n=8,c=32,k=8)", "Section 6",
                    theory::hopping_together_slots(n, c, k),
                    summarize(slots).mean, 0.2, 2.0});
  }
  {  // Footnote 4: decay backoff micro-slot p95 within the log^2 envelope.
    const int m = 128;
    const std::vector<double> micro = resolved_micro_slots(
        decay_backoff_trials(m, 2000, seeder(), jobs));
    rows.push_back({"backoff p95 micro-slots (m=128)", "footnote 4",
                    theory::backoff_micro_slots(m), summarize(micro).p95, 0.0,
                    1.5});
  }
  {  // Section 1: rendezvous broadcast straw man shape.
    const int n = 32, c = 16, k = 2;
    const Summary s =
        rendezvous_broadcast_slots("partitioned", n, c, k, trials, seeder(),
                                   jobs);
    rows.push_back({"rendezvous broadcast (n=32,c=16,k=2)",
                    "Section 1 straw man",
                    theory::rendezvous_broadcast_slots(n, c, k), s.median, 0.2,
                    3.0});
  }

  const int failures = theory::print_scorecard(rows, "paper scorecard");
  static const char* kRowKeys[] = {
      "theorem4_broadcast", "theorem4_k_ratio",  "theorem10_phase4",
      "lemma11_hitting",    "lemma14_complete",  "theorem16_scan",
      "section5_tdma",      "section6_hopping",  "footnote4_backoff",
      "section1_rendezvous"};
  for (std::size_t i = 0; i < rows.size() && i < std::size(kRowKeys); ++i) {
    manifest.set(std::string(kRowKeys[i]) + ".measured", rows[i].measured);
    manifest.set_int(std::string(kRowKeys[i]) + ".pass",
                     rows[i].pass() ? 1 : 0);
  }
  manifest.set_int("failures", failures);
  manifest.write();
  std::printf("\n%d/%zu rows pass.\n", static_cast<int>(rows.size()) - failures,
              rows.size());
  return failures;
}
