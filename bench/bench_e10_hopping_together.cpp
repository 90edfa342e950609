// E10 — Section 6 discussion: with global labels and c >> n, the
// hopping-together sequential scan beats CogCast.
//
// Paper example: c = n^2, k = c-1 on the Theorem 16 network. The scan
// completes in O(C/k) = O(1) expected slots, while CogCast needs
// O((c^2/(nk)) lg n) = O(n lg n). The second table sweeps k at fixed (n,c)
// to expose the crossover between the two algorithms.
#include <cstdio>

#include "bench_common.h"

using namespace cogradio;
using namespace cogradio::bench;

namespace {

Summary hopping_slots(int n, int c, int k, int trials,
                      std::uint64_t base_seed) {
  std::vector<double> samples;
  Rng seeder(base_seed);
  for (int t = 0; t < trials; ++t) {
    PartitionedAssignment assignment(n, c, k, LabelMode::Global,
                                     Rng(seeder()));
    BaselineRunConfig config;
    config.seed = seeder();
    config.max_slots = 8LL * assignment.total_channels();
    const auto out = run_hopping_together(assignment, config);
    if (out.completed) samples.push_back(static_cast<double>(out.slots));
  }
  return summarize(samples);
}

}  // namespace

int main(int argc, char** argv) {
  CliArgs args(argc, argv);
  const int trials = static_cast<int>(args.get_int("trials", 25));
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  const int jobs = args.get_jobs();
  args.finish();
  BenchManifest manifest("e10_hopping_together", &args);

  std::printf("E10: hopping-together vs CogCast   (Section 6 discussion, "
              "%d trials/point)\n",
              trials);

  Table example({"n", "c=n^2", "k=c-1", "C", "hopping med",
                 "cogcast med", "cogcast theory n*lg n"});
  for (int n : {3, 4, 5, 6, 8}) {
    const int c = n * n;
    const int k = c - 1;
    const int big_c = k + n * (c - k);
    const Summary hop = hopping_slots(n, c, k, trials, seed + n);
    const Summary cog =
        cogcast_slots("partitioned", n, c, k, trials, seed + 100 + n, jobs);
    add_summary(manifest, "example.n" + std::to_string(n) + ".hopping", hop);
    add_summary(manifest, "example.n" + std::to_string(n) + ".cogcast", cog);
    example.add_row({Table::num(static_cast<std::int64_t>(n)),
                     Table::num(static_cast<std::int64_t>(c)),
                     Table::num(static_cast<std::int64_t>(k)),
                     Table::num(static_cast<std::int64_t>(big_c)),
                     Table::num(hop.median, 1), Table::num(cog.median, 1),
                     Table::num(n * std::log2(std::max(2, n)), 1)});
  }
  example.print_with_title("the paper's worked example (c = n^2, k = c-1)");

  Table crossover({"k", "C", "hopping med (C/k)", "cogcast med",
                   "winner"});
  const int n = 8, c = 32;
  for (int k : {1, 2, 4, 8, 16, 31}) {
    const int big_c = k + n * (c - k);
    const Summary hop = hopping_slots(n, c, k, trials, seed + 200 + k);
    const Summary cog =
        cogcast_slots("partitioned", n, c, k, trials, seed + 300 + k, jobs);
    add_summary(manifest, "crossover.k" + std::to_string(k) + ".hopping", hop);
    add_summary(manifest, "crossover.k" + std::to_string(k) + ".cogcast", cog);
    crossover.add_row({Table::num(static_cast<std::int64_t>(k)),
                       Table::num(static_cast<std::int64_t>(big_c)),
                       Table::num(hop.median, 1), Table::num(cog.median, 1),
                       hop.median < cog.median ? "hopping" : "cogcast"});
  }
  crossover.print_with_title("crossover sweep (n=8, c=32, Theorem 16 network)");
  manifest.write();
  return 0;
}
