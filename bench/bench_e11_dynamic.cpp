// E11 — Section 7 discussion: CogCast's guarantee survives the dynamic
// model unchanged.
//
// Because the algorithm re-randomizes every slot and never relies on a
// fixed assignment, re-drawing the entire channel assignment each slot
// (preserving the pairwise-k invariant) should leave the completion-time
// distribution essentially unchanged. The table compares static vs
// per-slot-re-drawn variants of the same pattern.
#include <cstdio>
#include <set>

#include "bench_common.h"

using namespace cogradio;
using namespace cogradio::bench;

int main(int argc, char** argv) {
  CliArgs args(argc, argv);
  const int trials = static_cast<int>(args.get_int("trials", 30));
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  const int jobs = args.get_jobs();
  const int n = static_cast<int>(args.get_int("n", 64));
  args.finish();
  BenchManifest manifest("e11_dynamic", &args);

  std::printf("E11: CogCast under dynamic channel assignments   (Section 7, "
              "n=%d, %d trials/point)\n",
              n, trials);

  Table table({"c", "k", "static med", "dynamic med", "dynamic/static"});
  for (int c : {8, 16, 32}) {
    const std::set<int> ks{2, std::max(1, c / 4)};
    for (int k : ks) {
      const Summary stat =
          cogcast_slots("shared-core", n, c, k, trials, seed + c + k, jobs);
      const Summary dyn = cogcast_slots("dynamic-shared-core", n, c, k, trials,
                                        seed + 50 + c + k, jobs);
      const std::string tag =
          "shared-core.c" + std::to_string(c) + ".k" + std::to_string(k);
      add_summary(manifest, tag + ".static", stat);
      add_summary(manifest, tag + ".dynamic", dyn);
      table.add_row({Table::num(static_cast<std::int64_t>(c)),
                     Table::num(static_cast<std::int64_t>(k)),
                     Table::num(stat.median, 1), Table::num(dyn.median, 1),
                     Table::num(safe_ratio(dyn.median, stat.median), 3)});
    }
  }
  table.print_with_title("shared-core pattern, static vs per-slot re-drawn");

  Table table2({"c", "k", "static med", "dynamic med", "dynamic/static"});
  for (int c : {8, 16, 32}) {
    const int k = c / 2;
    const Summary stat =
        cogcast_slots("pigeonhole", n, c, k, trials, seed + 500 + c, jobs);
    const Summary dyn = cogcast_slots("dynamic-pigeonhole", n, c, k, trials,
                                      seed + 600 + c, jobs);
    add_summary(manifest, "pigeonhole.c" + std::to_string(c) + ".static", stat);
    add_summary(manifest, "pigeonhole.c" + std::to_string(c) + ".dynamic", dyn);
    table2.add_row({Table::num(static_cast<std::int64_t>(c)),
                    Table::num(static_cast<std::int64_t>(k)),
                    Table::num(stat.median, 1), Table::num(dyn.median, 1),
                    Table::num(safe_ratio(dyn.median, stat.median), 3)});
  }
  table2.print_with_title("pigeonhole pattern, static vs per-slot re-drawn");
  std::printf("\nTheory: ratios ~ 1 (Theorem 4's proof never uses staticness).\n");
  manifest.write();
  return 0;
}
