// E26 — all-to-all gossip vs repeated local broadcast.
//
// Gossip (every node spreads its own rumor, sets merge on every meeting)
// generalizes the paper's single-source broadcast. The natural baseline
// from the paper's toolbox is n *sequential* CogCast executions — one per
// rumor — costing n * O((c/k_eff) lg n). Set-merging gossip shares the
// meetings between all rumors at once, so its completion should grow far
// slower than linearly in n, at the cost of Theta(n)-word messages.
#include <cstdio>

#include "bench_common.h"
#include "core/gossip.h"

using namespace cogradio;
using namespace cogradio::bench;

int main(int argc, char** argv) {
  CliArgs args(argc, argv);
  const int trials = static_cast<int>(args.get_int("trials", 15));
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  const int jobs = args.get_jobs();
  const int c = static_cast<int>(args.get_int("c", 8));
  const int k = static_cast<int>(args.get_int("k", 2));
  args.finish();
  BenchManifest manifest("e26_gossip", &args);

  std::printf("E26: all-to-all gossip   (c=%d, k=%d, %d trials/point)\n", c, k,
              trials);

  Table table({"n", "gossip med", "p95", "1 cogcast med",
               "n sequential cogcasts", "gossip/sequential"});
  for (int n : {8, 16, 32, 64, 128}) {
    std::vector<double> gossip_slots;
    Rng seeder(seed + static_cast<std::uint64_t>(n));
    for (int t = 0; t < trials; ++t) {
      SharedCoreAssignment assignment(n, c, k, LabelMode::LocalRandom,
                                      Rng(seeder()));
      const auto values = make_values(n, seeder());
      GossipConfig config;
      config.seed = seeder();
      const auto out = run_gossip(assignment, values, config);
      if (out.completed)
        gossip_slots.push_back(static_cast<double>(out.slots));
    }
    const Summary gossip = summarize(gossip_slots);
    const Summary one_cast =
        cogcast_slots("shared-core", n, c, k, trials,
                      seed + 500 + static_cast<std::uint64_t>(n), jobs);
    const double sequential = one_cast.median * n;
    const std::string tag = "n" + std::to_string(n);
    add_summary(manifest, tag + ".gossip", gossip);
    manifest.set(tag + ".one_cast_median", one_cast.median);
    manifest.set(tag + ".gossip_vs_sequential",
                 safe_ratio(gossip.median, sequential));
    table.add_row({Table::num(static_cast<std::int64_t>(n)),
                   Table::num(gossip.median, 1), Table::num(gossip.p95, 1),
                   Table::num(one_cast.median, 1), Table::num(sequential, 1),
                   Table::num(safe_ratio(gossip.median, sequential), 3)});
  }
  table.print_with_title("all rumors at all nodes (shared-core pattern)");
  std::printf("\ntheory: the gossip/sequential ratio should *fall* with n —\n"
              "meetings are shared across all n rumors simultaneously.\n");
  manifest.write();
  return 0;
}
