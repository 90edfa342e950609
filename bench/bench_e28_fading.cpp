// E28 — robustness boundary under per-delivery fading.
//
// The paper's model is loss-free; real channels fade. With every delivery
// independently lost with probability q:
//   * CogCast degrades gracefully — informed nodes re-broadcast forever,
//     so each lost copy is retried; completion inflates by ~1/(1-q);
//   * CogComp's phases 2-4 are built on the loss-free model's certainty
//     (announcement censuses, rewind deliveries, acks); under fading its
//     guarantees vanish — the run must *detect* that (completed=false or a
//     short count at the source), never return a silently wrong aggregate
//     claimed complete.
#include <cstdio>

#include "bench_common.h"

using namespace cogradio;
using namespace cogradio::bench;

int main(int argc, char** argv) {
  CliArgs args(argc, argv);
  const int trials = static_cast<int>(args.get_int("trials", 20));
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  const int jobs = args.get_jobs();
  const int n = static_cast<int>(args.get_int("n", 32));
  const int c = static_cast<int>(args.get_int("c", 8));
  const int k = static_cast<int>(args.get_int("k", 2));
  args.finish();
  BenchManifest manifest("e28_fading", &args);

  std::printf("E28: per-delivery fading   (n=%d, c=%d, k=%d, "
              "%d trials/point)\n",
              n, c, k, trials);

  Table table({"loss q", "cogcast med", "vs q=0", "1/(1-q)",
               "cogcomp completed", "cogcomp wrong&claimed-ok"});
  double base_median = 0;
  for (double q : {0.0, 0.1, 0.25, 0.5, 0.75}) {
    struct FadeTrial {
      bool cast_ok = false;
      double cast_slots = 0;
      bool comp_ok = false;
      bool comp_silent_wrong = false;
    };
    const std::uint64_t base = seed + static_cast<std::uint64_t>(q * 100);
    const auto outcomes = sweep_outcomes(trials, base, jobs, [&](Rng& rng) {
      FadeTrial trial;
      {
        SharedCoreAssignment assignment(n, c, k, LabelMode::LocalRandom,
                                        Rng(rng()));
        CogCastRunConfig config;
        config.params = {n, c, k, 4.0};
        config.seed = rng();
        config.net.loss_prob = q;
        config.max_slots = 256 * config.params.horizon();
        const auto out = run_cogcast(assignment, config);
        trial.cast_ok = out.completed;
        trial.cast_slots = static_cast<double>(out.slots);
      }
      {
        SharedCoreAssignment assignment(n, c, k, LabelMode::LocalRandom,
                                        Rng(rng()));
        CogCompRunConfig config;
        config.params = {n, c, k, 4.0};
        config.seed = rng();
        config.net.loss_prob = q;
        const auto values = make_values(n, rng());
        const auto out = run_cogcomp(assignment, values, config);
        trial.comp_ok = out.completed && out.result == out.expected;
        // The failure mode that must never occur: claiming completeness
        // with a wrong result.
        trial.comp_silent_wrong = out.completed && out.result != out.expected;
      }
      return trial;
    });
    std::vector<double> cast_slots;
    int comp_ok = 0, comp_silent_wrong = 0;
    for (const FadeTrial& trial : outcomes) {
      if (trial.cast_ok) cast_slots.push_back(trial.cast_slots);
      if (trial.comp_ok) ++comp_ok;
      if (trial.comp_silent_wrong) ++comp_silent_wrong;
    }
    const Summary s = summarize(cast_slots);
    // cograd-lint: allow(R6) q iterates exact sweep grid values; 0.0 is the literal baseline point
    if (q == 0.0) base_median = s.median;
    const std::string tag = "q" + std::to_string(static_cast<int>(q * 100));
    add_summary(manifest, tag + ".cogcast", s);
    manifest.set_int(tag + ".cogcomp_ok", comp_ok);
    manifest.set_int(tag + ".cogcomp_silent_wrong", comp_silent_wrong);
    table.add_row(
        {Table::num(q, 2), Table::num(s.median, 1),
         Table::num(safe_ratio(s.median, base_median), 2),
         Table::num(1.0 / (1.0 - q + 1e-9), 2),
         Table::num(static_cast<std::int64_t>(comp_ok)) + "/" +
             Table::num(static_cast<std::int64_t>(trials)),
         Table::num(static_cast<std::int64_t>(comp_silent_wrong))});
  }
  table.print_with_title("CogCast vs CogComp under fading");
  std::printf("\ntheory: cogcast inflation ~ 1/(1-q); cogcomp loses its\n"
              "guarantee under loss but must never be silently wrong.\n");
  manifest.write();
  return 0;
}
