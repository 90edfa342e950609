// E2 — Theorem 4, scaling in k.
//
// Claim: CogCast's completion time scales as 1/k — doubling the guaranteed
// pairwise overlap halves the broadcast time. Fixing n and c and sweeping
// k, the fitted power-law exponent of median slots vs k should be ~ -1.
#include <cstdio>

#include "bench_common.h"

using namespace cogradio;
using namespace cogradio::bench;

int main(int argc, char** argv) {
  CliArgs args(argc, argv);
  const int trials = static_cast<int>(args.get_int("trials", 25));
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  const int jobs = args.get_jobs();
  const int n = static_cast<int>(args.get_int("n", 128));
  const int c = static_cast<int>(args.get_int("c", 32));
  args.finish();
  BenchManifest manifest("e2_cogcast_vs_k", &args);

  std::printf("E2: CogCast completion vs k   (Theorem 4, n=%d, c=%d, "
              "%d trials/point)\n",
              n, c, trials);

  // The 1/k shape is cleanest on the partitioned pattern, whose realized
  // overlap is exactly k; the other patterns over-deliver overlap (see
  // the k_eff column), which flattens their curves.
  for (const auto& pattern : static_pattern_names()) {
    Table table({"k", "k_eff", "theory (c/k_eff)lg n", "median", "p95",
                 "median/theory"});
    std::vector<double> xs, ys;
    for (int k : {1, 2, 4, 8, 16, 32}) {
      if (k > c) continue;
      const double theory = theorem4_shape_effective(pattern, n, c, k);
      const Summary s = cogcast_slots(pattern, n, c, k, trials, seed + k, jobs);
      add_summary(manifest, pattern + ".k" + std::to_string(k), s);
      table.add_row({Table::num(static_cast<std::int64_t>(k)),
                     Table::num(effective_overlap(pattern, c, k), 1),
                     Table::num(theory, 1), Table::num(s.median, 1),
                     Table::num(s.p95, 1),
                     Table::num(safe_ratio(s.median, theory), 3)});
      xs.push_back(k);
      ys.push_back(s.median);
    }
    table.print_with_title("pattern: " + pattern);
    if (pattern == "partitioned") print_fit("k", xs, ys, -1.0);
  }
  manifest.write();
  return 0;
}
