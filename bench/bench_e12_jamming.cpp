// E12 — Theorem 18: CogCast solves n-uniform jamming-resistant broadcast.
//
// In a multi-channel network where Eve jams up to j channels per node per
// slot, every pair of nodes keeps >= c - 2j mutually clear channels, which
// is exactly the dynamic CRN overlap guarantee — so CogCast completes in
// O((c/(c-2j)) * max{1, c/n} * lg n) slots. The harness sweeps the jamming
// budget and strategy and reports measured medians against that shape.
#include <cstdio>
#include <memory>

#include "bench_common.h"
#include "sim/jamming.h"

using namespace cogradio;
using namespace cogradio::bench;

namespace {

Summary jammed_cogcast(int n, int c, int budget, const std::string& strategy,
                       int trials, std::uint64_t base_seed, int jobs) {
  return summarize(sweep_trials(
      trials, base_seed, jobs, [&](Rng& rng) -> std::optional<double> {
        IdentityAssignment assignment(n, c, LabelMode::LocalRandom, Rng(rng()));
        std::unique_ptr<Jammer> jammer;
        if (strategy == "random")
          jammer = std::make_unique<RandomJammer>(n, c, budget, Rng(rng()));
        else if (strategy == "sweep")
          jammer = std::make_unique<SweepJammer>(n, c, budget);
        else
          jammer = std::make_unique<ReactiveJammer>(n, c, budget);

        CogCastRunConfig config;

        const int k_eff = std::max(1, c - 2 * budget);
        config.params = {n, c, k_eff, 4.0};
        config.seed = rng();
        config.jammer = budget > 0 ? jammer.get() : nullptr;
        config.max_slots = 64 * config.params.horizon();
        const auto out = run_cogcast(assignment, config);
        if (!out.completed) return std::nullopt;
        return static_cast<double>(out.slots);
      }));
}

}  // namespace

int main(int argc, char** argv) {
  CliArgs args(argc, argv);
  const int trials = static_cast<int>(args.get_int("trials", 20));
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  const int jobs = args.get_jobs();
  const int n = static_cast<int>(args.get_int("n", 32));
  const int c = static_cast<int>(args.get_int("c", 16));
  args.finish();
  BenchManifest manifest("e12_jamming", &args);

  std::printf("E12: CogCast vs n-uniform jamming   (Theorem 18, n=%d, c=%d, "
              "%d trials/point)\n",
              n, c, trials);

  for (const std::string strategy : {"random", "sweep", "reactive"}) {
    Table table({"jam budget j", "eff. overlap c-2j", "median", "p95",
                 "theory shape", "median/theory"});
    for (int j : {0, 2, 4, 6}) {
      const int k_eff = std::max(1, c - 2 * j);
      const double theory = theorem4_shape(n, c, k_eff);
      const Summary s = jammed_cogcast(n, c, j, strategy, trials,
                                       seed + static_cast<std::uint64_t>(j * 17),
                                       jobs);
      manifest.add_summary(strategy + ".j" + std::to_string(j), s);
      table.add_row({Table::num(static_cast<std::int64_t>(j)),
                     Table::num(static_cast<std::int64_t>(k_eff)),
                     Table::num(s.median, 1), Table::num(s.p95, 1),
                     Table::num(theory, 1),
                     Table::num(safe_ratio(s.median, theory), 3)});
    }
    table.print_with_title("jammer strategy: " + strategy);
  }
  manifest.write();
  return 0;
}
