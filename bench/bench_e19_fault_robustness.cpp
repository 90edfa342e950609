// E19 — robustness under simulator-level faults (Section 1 / Section 4
// discussion): "because nodes do the same thing in every slot, it can
// gracefully handle changes to the network conditions, temporary faults,
// and so on".
//
// Every run is harness/claims.h's faulted_cogcast_trials, the body the
// smoke suite's smoke_e19_fault_recovery runs too: run_cogcast with
// radio-level faults injected inside the engine (sim/fault_engine.h). Two
// sweeps:
//
//   burst/recovery   a correlated churn burst knocks out a growing node
//                    subset early in the broadcast; we measure the time to
//                    recover (completion slot minus burst end), survivor
//                    completion, and goodput under faults;
//   per-kind         a fixed budget of deaf / mute / babble / feedback-drop
//                    windows, measuring per-kind completion degradation
//                    against the fault-free baseline.
//
// The epidemic should degrade gracefully: recovery takes O(burst length +
// re-spread), never diverges, and no fault kind is fatal.
#include <algorithm>
#include <cstdio>

#include "bench_common.h"

using namespace cogradio;
using namespace cogradio::bench;

namespace {

struct SweepResult {
  Summary slots;
  Summary recover;
  Summary goodput;
  int failures = 0;      // runs that hit the cap with nodes uninformed
  int informed_min = 0;  // worst-case survivor completion across trials
};

// `trials` CogCast runs, each under the fault windows `schedule` adds;
// `burst_end` (kNoSlot without a burst) is where time-to-recover starts.
SweepResult sweep(int n, int c, int k, int trials, std::uint64_t base_seed,
                  int jobs, const FaultSchedule& schedule,
                  Slot burst_end = kNoSlot) {
  SweepResult res;
  res.informed_min = n;
  std::vector<double> slots, recover, goodput;
  for (const BroadcastOutcome& out :
       faulted_cogcast_trials("shared-core", n, c, k, 500'000, schedule,
                              trials, base_seed, jobs)) {
    const auto informed = static_cast<int>(
        std::count_if(out.informed_slot.begin(), out.informed_slot.end(),
                      [](Slot s) { return s != kNoSlot; }));
    res.informed_min = std::min(res.informed_min, informed);
    goodput.push_back(out.slots > 0
                          ? static_cast<double>(out.stats.successes) /
                                static_cast<double>(out.slots)
                          : 0.0);
    if (!out.completed) {
      ++res.failures;
      continue;
    }
    slots.push_back(static_cast<double>(out.slots));
    recover.push_back(static_cast<double>(
        burst_end == kNoSlot ? 0 : std::max<Slot>(0, out.slots - burst_end)));
  }
  res.slots = summarize(slots);
  res.recover = summarize(recover);
  res.goodput = summarize(goodput);
  return res;
}

void add_result(BenchManifest& manifest, const std::string& prefix,
                const SweepResult& res) {
  add_summary(manifest, prefix + ".slots", res.slots);
  add_summary(manifest, prefix + ".recover", res.recover);
  add_summary(manifest, prefix + ".goodput", res.goodput);
  manifest.set_int(prefix + ".failures", res.failures);
  manifest.set_int(prefix + ".informed_min", res.informed_min);
}

}  // namespace

int main(int argc, char** argv) {
  CliArgs args(argc, argv);
  const int trials = static_cast<int>(args.get_int("trials", 25));
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  const int jobs = args.get_jobs();
  const int n = static_cast<int>(args.get_int("n", 48));
  const int c = static_cast<int>(args.get_int("c", 12));
  const int k = static_cast<int>(args.get_int("k", 3));
  const Slot burst_len = args.get_int("burst-len", 24);
  args.finish();
  BenchManifest manifest("e19_fault_robustness", &args);

  std::printf("E19: CogCast recovery under engine-level faults   "
              "(n=%d, c=%d, k=%d, %d trials/point)\n",
              n, c, k, trials);

  const SweepResult base =
      sweep(n, c, k, trials, seed, jobs, [](FaultEngine&, Rng&) {});
  add_result(manifest, "fault_free", base);

  // --- Correlated churn bursts: knock out a subset, measure recovery. ----
  Table burst({"burst nodes", "window", "median slots", "time-to-recover",
               "goodput", "vs fault-free", "failed runs"});
  burst.add_row({"0", "-", Table::num(base.slots.median, 1), "-",
                 Table::num(base.goodput.median, 2), "1.00",
                 Table::num(static_cast<std::int64_t>(base.failures))});
  for (int affected : {n / 8, n / 4, n / 2}) {
    // A random subset excluding the source, hit over [5, 5+len).
    const SweepResult res = sweep(
        n, c, k, trials, seed + 100 + static_cast<std::uint64_t>(affected),
        jobs, churn_burst(n, affected, 5, burst_len), 5 + burst_len);
    add_result(manifest, "burst.a" + std::to_string(affected), res);
    char window[32];
    std::snprintf(window, sizeof(window), "[5, %lld)",
                  static_cast<long long>(5 + burst_len));
    burst.add_row({Table::num(static_cast<std::int64_t>(affected)), window,
                   Table::num(res.slots.median, 1),
                   Table::num(res.recover.median, 1),
                   Table::num(res.goodput.median, 2),
                   Table::num(safe_ratio(res.slots.median, base.slots.median), 2),
                   Table::num(static_cast<std::int64_t>(res.failures))});
  }
  burst.print_with_title("correlated churn bursts (recovery telemetry)");

  // --- Per-kind degradation: a fixed budget of each radio pathology. ------
  struct KindCase {
    const char* name;
    FaultProfile profile;
  };
  const int budget = std::max(1, n / 6);
  const KindCase kinds[] = {
      {"deaf", {budget, 0, 0, 0, 0, 0, 0}},
      {"mute", {0, budget, 0, 0, 0, 0, 0}},
      {"babble", {0, 0, budget, 0, 0, 0, 0}},
      {"feedback_drop", {0, 0, 0, budget, 0, 0, 0}},
      {"churn", {0, 0, 0, 0, budget, 0, 0}},
  };
  Table kind_table({"fault kind", "faulty nodes", "median slots", "goodput",
                    "vs fault-free", "failed runs"});
  // Draw windows across the *active* part of the run: the fault-free
  // epidemic finishes in ~median slots, so a horizon of twice that keeps
  // every scheduled window relevant instead of landing after completion.
  const Slot horizon =
      std::max<Slot>(8, static_cast<Slot>(2 * base.slots.median));
  std::uint64_t salt = 500;
  for (const KindCase& kc : kinds) {
    const SweepResult res = sweep(n, c, k, trials, seed + salt++, jobs,
                                  [&](FaultEngine& engine, Rng&) {
                                    engine.add_random(kc.profile, horizon);
                                  });
    add_result(manifest, std::string("kind.") + kc.name, res);
    kind_table.add_row(
        {kc.name, Table::num(static_cast<std::int64_t>(budget)),
         Table::num(res.slots.median, 1), Table::num(res.goodput.median, 2),
         Table::num(safe_ratio(res.slots.median, base.slots.median), 2),
         Table::num(static_cast<std::int64_t>(res.failures))});
  }
  kind_table.print_with_title("per-kind degradation (budgeted windows)");

  std::printf("\ntheory: the oblivious epidemic resumes as soon as faults\n"
              "clear; recovery is O(burst length + re-spread) and no kind\n"
              "is fatal (Section 4 discussion).\n");
  manifest.write();
  return 0;
}
