// E9 — Theorem 16: under global channel labels, any algorithm needs
// expected Omega(c/k) slots — exactly (c+1)/(k+1) in the theorem's setup —
// because the source must first land on one of its k overlapping channels
// out of c, and the overlap positions are uniformly random.
//
// The harness simulates the two canonical source strategies on the
// Theorem 16 network (k shared channels + disjoint private blocks):
//   scan:    probe own channels in random order without repeats — the
//            optimal oblivious strategy; expected hit slot (c+1)/(k+1);
//   uniform: i.i.d. uniform hopping (CogCast's move); expectation c/k.
// It then runs full CogCast and reports the completion / lower-bound
// ratio, which Theorem 15/16 predict to be O(lg n).
#include <cstdio>

#include "bench_common.h"

using namespace cogradio;
using namespace cogradio::bench;

namespace {

// Slots until a source probing its c channels (k of which are "shared",
// in uniformly random positions) first hits a shared one.
double first_hit_scan(int c, int k, Rng& rng) {
  // Random probe order without repeats == random permutation; the hit slot
  // is the position of the first of the k shared channels.
  auto order = rng.sample_without_replacement(c, c);
  for (int slot = 1; slot <= c; ++slot)
    if (order[static_cast<std::size_t>(slot - 1)] < k) return slot;
  return c;
}

double first_hit_uniform(int c, int k, Rng& rng) {
  for (int slot = 1;; ++slot)
    if (rng.below(static_cast<std::uint64_t>(c)) <
        static_cast<std::uint64_t>(k))
      return slot;
}

}  // namespace

int main(int argc, char** argv) {
  CliArgs args(argc, argv);
  const int trials = static_cast<int>(args.get_int("trials", 4000));
  const int cast_trials = static_cast<int>(args.get_int("cast-trials", 20));
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  const int jobs = args.get_jobs();
  const int n = static_cast<int>(args.get_int("n", 32));
  args.finish();
  BenchManifest manifest("e9_global_lb", &args);

  std::printf("E9: global-label lower bound   (Theorem 16, %d trials/point)\n",
              trials);

  Table table({"c", "k", "theory (c+1)/(k+1)", "scan mean", "uniform mean",
               "uniform theory c/k"});
  Rng rng(seed);
  for (int c : {16, 32, 64}) {
    for (int k : {1, 2, 4, 8}) {
      double scan_sum = 0, uni_sum = 0;
      for (int t = 0; t < trials; ++t) {
        scan_sum += first_hit_scan(c, k, rng);
        uni_sum += first_hit_uniform(c, k, rng);
      }
      const std::string tag =
          "c" + std::to_string(c) + ".k" + std::to_string(k);
      manifest.set(tag + ".scan_mean", scan_sum / trials);
      manifest.set(tag + ".uniform_mean", uni_sum / trials);
      table.add_row({Table::num(static_cast<std::int64_t>(c)),
                     Table::num(static_cast<std::int64_t>(k)),
                     Table::num(static_cast<double>(c + 1) / (k + 1), 2),
                     Table::num(scan_sum / trials, 2),
                     Table::num(uni_sum / trials, 2),
                     Table::num(static_cast<double>(c) / k, 2)});
    }
  }
  table.print_with_title("slots until the source first hits an overlap channel");

  Table gap({"c", "k", "lower bound", "cogcast median (full bcast)",
             "ratio (theory O(lg n))"});
  for (int c : {16, 32}) {
    for (int k : {2, 4}) {
      const Summary s =
          cogcast_slots("partitioned", n, c, k, cast_trials, seed + c + k, jobs);
      const double lb = static_cast<double>(c + 1) / (k + 1);
      add_summary(manifest,
                  "cogcast.c" + std::to_string(c) + ".k" + std::to_string(k),
                  s);
      gap.add_row({Table::num(static_cast<std::int64_t>(c)),
                   Table::num(static_cast<std::int64_t>(k)),
                   Table::num(lb, 2), Table::num(s.median, 1),
                   Table::num(safe_ratio(s.median, lb), 2)});
    }
  }
  gap.print_with_title(
      "CogCast completion vs the lower bound on the Theorem 16 network (n=" +
      std::to_string(n) + ")");
  manifest.write();
  return 0;
}
