// E33 — multi-hop convergecast: aggregation over the flood tree.
//
// Completes the multi-hop story (E25 floods; this drains): values flow up
// deepest-first in depth-scheduled epochs with addressed, acked,
// deduplicated transfers. Completion cost is dominated by
// epochs x epoch length, i.e. ~ tree depth x (c^2/k) — the multi-hop
// analogue of the single-hop Omega(n/k) discussion, paid per *level*
// rather than per node thanks to in-network combining.
#include <cstdio>

#include "bench_common.h"
#include "core/multihop_converge.h"

using namespace cogradio;
using namespace cogradio::bench;

int main(int argc, char** argv) {
  CliArgs args(argc, argv);
  const int trials = static_cast<int>(args.get_int("trials", 8));
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  const int jobs = args.get_jobs();
  const int c = static_cast<int>(args.get_int("c", 6));
  const int k = static_cast<int>(args.get_int("k", 2));
  args.finish();
  BenchManifest manifest("e33_multihop_converge", &args);

  std::printf("E33: multi-hop convergecast   (c=%d, k=%d, %d trials/point)\n",
              c, k, trials);

  Table table({"topology", "n", "diameter", "median slots", "exact results",
               "coverage failures"});
  struct Config {
    const char* shape;
    int n;
  };
  for (const Config cfg : {Config{"line", 12}, Config{"line", 24},
                           Config{"ring", 16}, Config{"grid", 16},
                           Config{"grid", 32}, Config{"clique", 16}}) {
    struct ConvergeTrial {
      bool completed = false;
      bool exact = false;
      double slots = 0;
      int diameter = 0;
    };
    const std::uint64_t base = seed + static_cast<std::uint64_t>(cfg.n);
    const auto outcomes = sweep_outcomes(trials, base, jobs, [&](Rng& rng) {
      const std::string shape = cfg.shape;
      Topology topo = shape == "line"   ? Topology::line(cfg.n)
                      : shape == "ring" ? Topology::ring(cfg.n)
                      : shape == "grid"
                          ? Topology::grid(cfg.n / 4, 4)
                          : Topology::clique(cfg.n);
      ConvergeTrial trial;
      trial.diameter = topo.diameter();
      SharedCoreAssignment assignment(cfg.n, c, k, LabelMode::LocalRandom,
                                      Rng(rng()));
      const auto values = make_values(cfg.n, rng());
      MultihopConvergeConfig config;
      config.seed = rng();
      const auto out = run_multihop_converge(assignment, topo, values, config);
      trial.completed = out.completed;
      trial.exact = out.completed && out.result == out.expected;
      trial.slots = static_cast<double>(out.slots);
      return trial;
    });
    std::vector<double> slots;
    int exact = 0, shortfall = 0;
    int diameter = 0;
    for (const ConvergeTrial& trial : outcomes) {
      diameter = trial.diameter;
      if (!trial.completed) {
        ++shortfall;
        continue;
      }
      if (trial.exact) ++exact;
      slots.push_back(trial.slots);
    }
    const std::string tag =
        std::string(cfg.shape) + ".n" + std::to_string(cfg.n);
    manifest.set(tag + ".median_slots", summarize(slots).median);
    manifest.set_int(tag + ".exact", exact);
    manifest.set_int(tag + ".shortfall", shortfall);
    table.add_row({cfg.shape, Table::num(static_cast<std::int64_t>(cfg.n)),
                   Table::num(static_cast<std::int64_t>(diameter)),
                   Table::num(summarize(slots).median, 1),
                   Table::num(static_cast<std::int64_t>(exact)) + "/" +
                       Table::num(static_cast<std::int64_t>(trials)),
                   Table::num(static_cast<std::int64_t>(shortfall))});
  }
  table.print_with_title("aggregation back to the source over the flood tree");
  std::printf("\nreading: exact results whenever coverage completes; slots\n"
              "scale with the scheduled epochs (n-1 levels x epoch length).\n");
  manifest.write();
  return 0;
}
