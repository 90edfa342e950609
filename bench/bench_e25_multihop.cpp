// E25 — multi-hop extension: the paper's local broadcast as a primitive
// for network-wide dissemination (related work [14]/[20] setting).
//
// The lifted epidemic (core/multihop_cast.h) floods a message across a
// connectivity graph; each hop costs one "local broadcast epoch" of
// O(L * (c/k_eff) * lg n) slots. The harness sweeps topologies and reports
// completion against D * per-hop-shape, where D is the graph diameter —
// the pipeline effect (interior nodes relay while the frontier advances)
// typically beats the naive product.
#include <cstdio>

#include "bench_common.h"

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
  BenchManifest manifest("e25_multihop", &args);

  std::printf("E25: multi-hop epidemic broadcast   (c=%d, k=%d, "
              "%d trials/point)\n",
              c, k, trials);

  Table table({"topology", "n", "diameter D", "median", "p95",
               "median/D", "slots/hop trend"});
  struct Config {
    const char* shape;
    int n;
  };
  for (const Config cfg :
       {Config{"line", 16}, Config{"line", 32}, Config{"line", 64},
        Config{"ring", 32}, Config{"grid", 32}, Config{"grid", 64},
        Config{"geometric", 48}}) {
    const auto runs =
        multihop_cast_trials("shared-core", cfg.shape, cfg.n, c, k, trials,
                             seed + static_cast<std::uint64_t>(cfg.n), jobs);
    // The geometric graph is redrawn per trial: the last trial's diameter.
    const int diameter = runs.empty() ? 0 : runs.back().diameter;
    const Summary s = summarize(completed_slots(runs));
    add_summary(manifest, std::string(cfg.shape) + ".n" + std::to_string(cfg.n),
                s);
    table.add_row({cfg.shape, Table::num(static_cast<std::int64_t>(cfg.n)),
                   Table::num(static_cast<std::int64_t>(diameter)),
                   Table::num(s.median, 1), Table::num(s.p95, 1),
                   Table::num(safe_ratio(s.median, diameter), 2),
                   diameter > 0 ? "linear in D" : "-"});
  }
  table.print_with_title("flooding time across topologies");
  std::printf("\ntheory: completion ~ D x per-hop epoch; the 'median/D' column\n"
              "(slots per hop) should be roughly constant per topology family.\n");
  manifest.write();
  return 0;
}
