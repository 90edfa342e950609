// E12 — Theorem 18: CogCast solves n-uniform jamming-resistant broadcast.
//
// In a multi-channel network where Eve jams up to j channels per node per
// slot, every pair of nodes keeps >= c - 2j mutually clear channels, which
// is exactly the dynamic CRN overlap guarantee — so CogCast completes in
// O((c/(c-2j)) * max{1, c/n} * lg n) slots. The harness sweeps the jamming
// budget and strategy and reports measured medians against that shape.
#include <cstdio>

#include "analysis/theory.h"
#include "bench_common.h"

using namespace cogradio;
using namespace cogradio::bench;

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
      const double shape = theory::cogcast_slots(n, c, k_eff);
      const Summary s = summarize(completed_slots(jammed_cogcast_trials(
          "identity", n, c, k_eff, strategy, j, 64, trials,
          seed + static_cast<std::uint64_t>(j * 17), jobs)));
      add_summary(manifest, strategy + ".j" + std::to_string(j), s);
      table.add_row({Table::num(static_cast<std::int64_t>(j)),
                     Table::num(static_cast<std::int64_t>(k_eff)),
                     Table::num(s.median, 1), Table::num(s.p95, 1),
                     Table::num(shape, 1),
                     Table::num(safe_ratio(s.median, shape), 3)});
    }
    table.print_with_title("jammer strategy: " + strategy);
  }
  manifest.write();
  return 0;
}
