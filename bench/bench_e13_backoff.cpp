// E13 — footnote 4 / appendix: decay backoff implements the one-winner
// collision model on a raw collision-loss radio in O(log^2 n) micro-slots
// per contended channel-slot, w.h.p.
//
// Table 1 sweeps the contender count and reports micro-slot cost and
// emulation failure rate. Table 2 runs CogCast end-to-end over the
// emulated radio and reports the total micro-slot overhead factor.
#include <cstdio>

#include "bench_common.h"

using namespace cogradio;
using namespace cogradio::bench;

int main(int argc, char** argv) {
  CliArgs args(argc, argv);
  const int trials = static_cast<int>(args.get_int("trials", 2000));
  const int cast_trials = static_cast<int>(args.get_int("cast-trials", 15));
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  const int jobs = args.get_jobs();
  args.finish();
  BenchManifest manifest("e13_backoff", &args);

  std::printf("E13: decay backoff substrate   (footnote 4, %d trials/point)\n",
              trials);

  Table table({"contenders m", "phase len", "budget", "decay median",
               "decay p95", "log2^2(m)", "decay failures",
               "CD-split median", "CD-split p95"});
  for (int m : {2, 4, 8, 16, 32, 64, 128, 256, 512}) {
    const auto params = backoff_params_for(m);
    // Two sweeps, each from its own base seed: decay backoff, then tree
    // splitting with the same micro-slot budget.
    const std::vector<double> slots = resolved_micro_slots(decay_backoff_trials(
        m, trials, seed + static_cast<std::uint64_t>(m), jobs));
    const std::vector<double> cd_slots = resolved_micro_slots(cd_split_trials(
        m, params.budget, trials, seed + 1000 + static_cast<std::uint64_t>(m),
        jobs));
    const int failures = trials - static_cast<int>(slots.size());
    const Summary s = summarize(slots);
    const Summary sc = summarize(cd_slots);
    const double lg = std::log2(static_cast<double>(m));
    const std::string tag = "m" + std::to_string(m);
    add_summary(manifest, tag + ".decay.micro_slots", s);
    add_summary(manifest, tag + ".cd.micro_slots", sc);
    manifest.set_int(tag + ".decay.failures", failures);
    table.add_row({Table::num(static_cast<std::int64_t>(m)),
                   Table::num(static_cast<std::int64_t>(params.phase_length)),
                   Table::num(params.budget), Table::num(s.median, 1),
                   Table::num(s.p95, 1), Table::num(lg * lg, 1),
                   Table::num(static_cast<double>(failures) / trials, 4),
                   Table::num(sc.median, 1), Table::num(sc.p95, 1)});
  }
  table.print_with_title(
      "micro-slots to resolve one contended channel-slot "
      "(decay: no CD; tree-splitting: with CD)");

  Table e2e({"n", "c", "k", "slots", "micro-slots", "micro/success",
             "budget/chan-slot", "emulation failures"});
  for (int n : {16, 64, 256}) {
    const int c = 16, k = 4;
    const auto outcomes = sweep_outcomes(
        cast_trials, seed + static_cast<std::uint64_t>(n), jobs,
        [&](Rng& rng) {
          SharedCoreAssignment assignment(n, c, k, LabelMode::LocalRandom,
                                          Rng(rng()));
          CogCastRunConfig config;
          config.params = {n, c, k, 4.0};
          config.seed = rng();
          config.net.emulate_backoff = true;
          config.net.backoff = backoff_params_for(n);
          return run_cogcast(assignment, config);
        });
    double slots_sum = 0, micro_sum = 0, success_sum = 0, fail_sum = 0;
    int ok = 0;
    for (const BroadcastOutcome& out : outcomes) {
      if (!out.completed) continue;
      ++ok;
      slots_sum += static_cast<double>(out.slots);
      micro_sum += static_cast<double>(out.stats.micro_slots);
      success_sum += static_cast<double>(out.stats.successes);
      fail_sum += static_cast<double>(out.stats.backoff_failures);
    }
    const std::string tag = "e2e.n" + std::to_string(n);
    manifest.set(tag + ".slots_mean", slots_sum / std::max(1, ok));
    manifest.set(tag + ".micro_slots_mean", micro_sum / std::max(1, ok));
    manifest.set_int(tag + ".completed", ok);
    e2e.add_row({Table::num(static_cast<std::int64_t>(n)),
                 Table::num(static_cast<std::int64_t>(c)),
                 Table::num(static_cast<std::int64_t>(k)),
                 Table::num(slots_sum / std::max(1, ok), 1),
                 Table::num(micro_sum / std::max(1, ok), 1),
                 Table::num(safe_ratio(micro_sum, success_sum), 2),
                 Table::num(backoff_params_for(n).budget),
                 Table::num(fail_sum / std::max(1, ok), 2)});
  }
  e2e.print_with_title("CogCast end-to-end over the emulated radio");
  manifest.write();
  return 0;
}
