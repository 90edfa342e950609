// E3 — Theorem 4, the max{1, c/n} factor and the n = c crossover.
//
// Claim: for n < c the bound carries an extra c/n factor (few listeners
// make the source hard to find); for n >= c it disappears and time grows
// only with lg n. Sweeping n across c at fixed (c, k), the measured median
// should fall as n approaches c and then flatten to ~lg n growth.
#include <cstdio>

#include "bench_common.h"

using namespace cogradio;
using namespace cogradio::bench;

int main(int argc, char** argv) {
  CliArgs args(argc, argv);
  const int trials = static_cast<int>(args.get_int("trials", 25));
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  const int jobs = args.get_jobs();
  const int c = static_cast<int>(args.get_int("c", 32));
  const int k = static_cast<int>(args.get_int("k", 4));
  args.finish();
  BenchManifest manifest("e3_cogcast_vs_n", &args);

  std::printf("E3: CogCast completion vs n   (Theorem 4 crossover at n=c=%d, "
              "k=%d, %d trials/point)\n",
              c, k, trials);

  for (const auto& pattern : static_pattern_names()) {
    Table table({"n", "regime", "theory", "median", "p95", "median/theory"});
    for (int n : {4, 8, 16, 32, 64, 128, 256, 512}) {
      const double theory = theorem4_shape_effective(pattern, n, c, k);
      const Summary s = cogcast_slots(pattern, n, c, k, trials, seed + n, jobs);
      add_summary(manifest, pattern + ".n" + std::to_string(n), s);
      table.add_row({Table::num(static_cast<std::int64_t>(n)),
                     n < c ? "c>n (x c/n)" : "n>=c",
                     Table::num(theory, 1), Table::num(s.median, 1),
                     Table::num(s.p95, 1),
                     Table::num(safe_ratio(s.median, theory), 3)});
    }
    table.print_with_title("pattern: " + pattern);
  }
  manifest.write();
  return 0;
}
