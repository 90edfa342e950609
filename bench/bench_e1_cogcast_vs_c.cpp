// E1 — Theorem 4, scaling in c (n >= c regime).
//
// Claim: CogCast completes local broadcast in O((c/k) * lg n) slots when
// n >= c. Fixing k and n and sweeping c, the measured median completion
// should grow ~linearly in c across all overlap patterns.
#include <cstdio>

#include "bench_common.h"

using namespace cogradio;
using namespace cogradio::bench;

int main(int argc, char** argv) {
  CliArgs args(argc, argv);
  const int trials = static_cast<int>(args.get_int("trials", 25));
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  const int jobs = args.get_jobs();
  const int n = static_cast<int>(args.get_int("n", 256));
  const int k = static_cast<int>(args.get_int("k", 2));
  args.finish();
  BenchManifest manifest("e1_cogcast_vs_c", &args);

  std::printf("E1: CogCast completion vs c   (Theorem 4, n=%d >= c, k=%d, "
              "%d trials/point)\n",
              n, k, trials);

  // The theory column uses the pattern's *effective* overlap: partitioned
  // realizes exactly k, while shared-core/pigeonhole sets overlap far more
  // than the guarantee, which speeds the broadcast up accordingly.
  for (const auto& pattern : static_pattern_names()) {
    Table table({"c", "k_eff", "theory (c/k_eff)lg n", "median", "p95",
                 "median/theory"});
    std::vector<double> xs, ys;
    for (int c : {8, 16, 32, 64, 128}) {
      const double theory = theorem4_shape_effective(pattern, n, c, k);
      const Summary s = cogcast_slots(pattern, n, c, k, trials, seed + c, jobs);
      add_summary(manifest, pattern + ".c" + std::to_string(c), s);
      table.add_row({Table::num(static_cast<std::int64_t>(c)),
                     Table::num(effective_overlap(pattern, c, k), 1),
                     Table::num(theory, 1), Table::num(s.median, 1),
                     Table::num(s.p95, 1),
                     Table::num(safe_ratio(s.median, theory), 3)});
      xs.push_back(c);
      ys.push_back(s.median);
    }
    table.print_with_title("pattern: " + pattern);
    if (pattern == "partitioned") print_fit("c", xs, ys, 1.0);
  }
  manifest.write();
  return 0;
}
