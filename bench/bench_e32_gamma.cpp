// E32 — calibrating the hidden constant of Theorem 4.
//
// The paper proves completion within Theta((c/k) max{1,c/n} lg n) slots
// "w.h.p." without fixing the constant. Everything in this repository
// uses gamma = 4 (CogCastParams::gamma). This harness justifies that
// choice empirically: for each gamma it runs many broadcasts and reports
// the fraction that finish within gamma * shape slots — the empirical
// failure probability of the w.h.p. statement — across patterns and
// sizes. gamma = 4 should sit comfortably in the ~zero-failure region
// while gamma <= 1 visibly fails.
#include <cstdio>

#include "bench_common.h"

using namespace cogradio;
using namespace cogradio::bench;

int main(int argc, char** argv) {
  CliArgs args(argc, argv);
  const int trials = static_cast<int>(args.get_int("trials", 200));
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  const int jobs = args.get_jobs();
  args.finish();
  BenchManifest manifest("e32_gamma", &args);

  std::printf("E32: Theorem 4 constant calibration   (%d trials/cell; cell = "
              "fraction of runs exceeding gamma * shape)\n",
              trials);

  struct Config {
    const char* pattern;
    int n, c, k;
  };
  const Config configs[] = {{"partitioned", 64, 16, 2},
                            {"partitioned", 256, 32, 4},
                            {"shared-core", 64, 16, 2},
                            {"pigeonhole", 128, 16, 8}};

  Table table({"pattern", "n", "c", "k", "gamma 0.5", "gamma 1", "gamma 2",
               "gamma 4", "gamma 8"});
  for (const Config& cfg : configs) {
    std::vector<std::string> row{cfg.pattern,
                                 Table::num(static_cast<std::int64_t>(cfg.n)),
                                 Table::num(static_cast<std::int64_t>(cfg.c)),
                                 Table::num(static_cast<std::int64_t>(cfg.k))};
    // One set of completion samples per config; thresholds re-used.
    const auto slots = sweep_outcomes(
        trials, seed + static_cast<std::uint64_t>(cfg.n * 7 + cfg.c), jobs,
        [&](Rng& rng) {
          auto assignment = make_assignment(cfg.pattern, cfg.n, cfg.c, cfg.k,
                                            LabelMode::LocalRandom, Rng(rng()));
          CogCastRunConfig config;
          config.params = {cfg.n, cfg.c, cfg.k, 4.0};
          config.seed = rng();
          config.max_slots = 256 * config.params.horizon();
          const auto out = run_cogcast(*assignment, config);
          return out.completed ? static_cast<double>(out.slots) : 1e18;
        });
    const double shape =
        theorem4_shape_effective(cfg.pattern, cfg.n, cfg.c, cfg.k);
    const std::string tag = std::string(cfg.pattern) + ".n" +
                            std::to_string(cfg.n) + ".c" +
                            std::to_string(cfg.c) + ".k" +
                            std::to_string(cfg.k);
    for (double gamma : {0.5, 1.0, 2.0, 4.0, 8.0}) {
      int late = 0;
      for (double s : slots)
        if (s > gamma * shape) ++late;
      manifest.set(
          tag + ".late_frac.gamma" + std::to_string(static_cast<int>(gamma * 10)),
          static_cast<double>(late) / trials);
      row.push_back(Table::num(static_cast<double>(late) / trials, 3));
    }
    table.add_row(row);
  }
  table.print_with_title(
      "empirical P[completion > gamma * (c/k_eff) max{1,c/n} lg n]");
  std::printf("\nreading: the gamma=4 column (the repository default) should\n"
              "be ~0 everywhere — the 'high probability' made concrete.\n");
  manifest.write();
  return 0;
}
