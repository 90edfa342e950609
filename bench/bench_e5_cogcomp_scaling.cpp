// E5 — Theorem 10: CogComp completes data aggregation in
// O((c/k) * max{1, c/n} * lg n + n) slots, with phase 4 bounded by O(n).
//
// Sweeping n at fixed (c, k), the table reports the per-phase slot
// breakdown; phase 4 must stay within 3(n+1) slots and the total within
// the theorem's shape.
#include <cstdio>

#include "analysis/theory.h"
#include "bench_common.h"

using namespace cogradio;
using namespace cogradio::bench;

int main(int argc, char** argv) {
  CliArgs args(argc, argv);
  const int trials = static_cast<int>(args.get_int("trials", 15));
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  const int jobs = args.get_jobs();
  const int c = static_cast<int>(args.get_int("c", 16));
  const int k = static_cast<int>(args.get_int("k", 4));
  args.finish();
  BenchManifest manifest("e5_cogcomp_scaling", &args);

  std::printf("E5: CogComp scaling vs n   (Theorem 10, c=%d, k=%d, "
              "%d trials/point)\n",
              c, k, trials);

  Table table({"n", "phase1 (bcast)", "phase2 (n)", "phase3 (rewind)",
               "phase4 med", "phase4 bound 3(n+1)", "total med",
               "theory shape", "ok"});
  for (int n : {8, 16, 32, 64, 128, 256}) {
    std::vector<double> total, p4;
    int failures = 0;
    for (const AggregationOutcome& out :
         cogcomp_trials("shared-core", n, c, k, trials,
                        seed + static_cast<std::uint64_t>(n), jobs)) {
      if (!out.completed || out.result != out.expected) {
        ++failures;
        continue;
      }
      total.push_back(static_cast<double>(out.slots));
      p4.push_back(static_cast<double>(out.phase4_slots));
    }
    const CogCompParams params{n, c, k, 4.0};
    const double shape = theory::cogcomp_slots(n, c, k);
    const std::string tag = "n" + std::to_string(n);
    add_summary(manifest, tag + ".total", summarize(total));
    add_summary(manifest, tag + ".phase4", summarize(p4));
    manifest.set_int(tag + ".failures", failures);
    table.add_row(
        {Table::num(static_cast<std::int64_t>(n)),
         Table::num(params.phase1_end()),
         Table::num(static_cast<std::int64_t>(n)),
         Table::num(params.phase1_end()), Table::num(summarize(p4).median, 1),
         Table::num(static_cast<std::int64_t>(3 * (n + 1))),
         Table::num(summarize(total).median, 1), Table::num(shape, 1),
         failures == 0 ? "yes" : "FAIL"});
  }
  table.print_with_title("CogComp phase breakdown (shared-core pattern)");
  manifest.write();
  return 0;
}
