// E15 — Section 5 discussion: with an associative aggregation function,
// CogComp's message size stays O(polylog n) words, whereas collecting raw
// values forwards Theta(subtree) words.
//
// The harness runs CogComp in both modes and reports the largest message
// ever transmitted: constant for sum, linear in n for collect-all.
#include <cstdio>

#include "bench_common.h"

using namespace cogradio;
using namespace cogradio::bench;

namespace {

double max_words(int n, int c, int k, AggOp op, int trials,
                 std::uint64_t base_seed, int jobs) {
  const auto samples = sweep_trials(
      trials, base_seed, jobs, [&](Rng& rng) -> std::optional<double> {
        SharedCoreAssignment assignment(n, c, k, LabelMode::LocalRandom,
                                        Rng(rng()));
        CogCompRunConfig config;
        config.params = {n, c, k, 4.0};
        config.seed = rng();
        config.op = op;
        const auto values = make_values(n, rng());
        const auto out = run_cogcomp(assignment, values, config);
        if (!out.completed) return std::nullopt;
        return static_cast<double>(out.stats.max_message_words);
      });
  return summarize(samples).max;
}

}  // namespace

int main(int argc, char** argv) {
  CliArgs args(argc, argv);
  const int trials = static_cast<int>(args.get_int("trials", 10));
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  const int jobs = args.get_jobs();
  const int c = static_cast<int>(args.get_int("c", 12));
  const int k = static_cast<int>(args.get_int("k", 3));
  args.finish();
  BenchManifest manifest("e15_message_overhead", &args);

  std::printf("E15: aggregation message overhead   (Section 5 discussion, "
              "c=%d, k=%d, %d trials/point)\n",
              c, k, trials);

  Table table({"n", "max msg words (sum)", "max msg words (collect)",
               "collect/n"});
  std::vector<double> xs, ys;
  for (int n : {8, 16, 32, 64, 128}) {
    const double sum_words =
        max_words(n, c, k, AggOp::Sum, trials,
                  seed + static_cast<std::uint64_t>(n), jobs);
    const double col_words =
        max_words(n, c, k, AggOp::CollectAll, trials,
                  seed + 900 + static_cast<std::uint64_t>(n), jobs);
    manifest.set("n" + std::to_string(n) + ".sum.max_words", sum_words);
    manifest.set("n" + std::to_string(n) + ".collect.max_words", col_words);
    table.add_row({Table::num(static_cast<std::int64_t>(n)),
                   Table::num(sum_words, 0), Table::num(col_words, 0),
                   Table::num(col_words / n, 2)});
    xs.push_back(n);
    ys.push_back(col_words);
  }
  table.print_with_title("largest single message on air during CogComp");
  print_fit("n", xs, ys, 1.0);
  std::printf("theory: sum column is O(1) words; collect column is Theta(n).\n");
  manifest.write();
  return 0;
}
