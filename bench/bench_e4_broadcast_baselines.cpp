// E4 — Section 1: CogCast vs the rendezvous straw man.
//
// Claim: the straightforward "everyone runs randomized rendezvous with the
// source" solves local broadcast in O((c^2/k) lg n), while CogCast needs
// only O((c/k) lg n) for n >= c — a factor-c speedup. Sweeping c, the
// measured baseline/CogCast ratio should grow ~linearly in c.
//
// The second table compares *pairwise* rendezvous primitives (n = 2):
// randomized hopping (~c^2/k) vs the deterministic bit-phased fast/slow
// schedule (O(c^2 lg I)) — the determinism premium the paper's footnote 1
// discusses.
#include <cstdio>
#include <memory>

#include "baselines/det_rendezvous.h"
#include "bench_common.h"
#include "sim/network.h"

using namespace cogradio;
using namespace cogradio::bench;

namespace {

double det_rendezvous_slots(int c, int k, std::uint64_t seed) {
  SharedCoreAssignment assignment(2, c, k, LabelMode::LocalRandom, Rng(seed));
  Message payload;
  payload.type = MessageType::Data;
  DetRendezvousNode holder(0, c, true, payload);
  DetRendezvousNode seeker(1, c, false, payload);
  Network net(assignment, {&holder, &seeker});
  net.run(100LL * c * c);
  return static_cast<double>(seeker.informed()
                                 ? seeker.informed_slot()
                                 : net.now());
}

}  // namespace

int main(int argc, char** argv) {
  CliArgs args(argc, argv);
  const int trials = static_cast<int>(args.get_int("trials", 20));
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  const int jobs = args.get_jobs();
  const int n = static_cast<int>(args.get_int("n", 64));
  const int k = static_cast<int>(args.get_int("k", 2));
  args.finish();
  BenchManifest manifest("e4_broadcast_baselines", &args);

  std::printf("E4: CogCast vs rendezvous broadcast   (n=%d, k=%d, "
              "%d trials/point; expected ratio ~ c)\n",
              n, k, trials);

  // The partitioned pattern realizes the pairwise overlap *exactly* k, so
  // the ratio should track the claimed factor c cleanly.
  Table table({"c", "cogcast med", "rendezvous med", "ratio", "ratio/c"});
  for (int c : {8, 16, 32, 64}) {
    const Summary cog =
        cogcast_slots("partitioned", n, c, k, trials, seed + c, jobs);
    const Summary rv = rendezvous_broadcast_slots("partitioned", n, c, k,
                                                  trials, seed + c, jobs);
    const double ratio = safe_ratio(rv.median, cog.median);
    const std::string tag = "c" + std::to_string(c);
    add_summary(manifest, tag + ".cogcast", cog);
    add_summary(manifest, tag + ".rendezvous", rv);
    manifest.set(tag + ".ratio", ratio);
    table.add_row({Table::num(static_cast<std::int64_t>(c)),
                   Table::num(cog.median, 1), Table::num(rv.median, 1),
                   Table::num(ratio, 2), Table::num(ratio / c, 3)});
  }
  table.print_with_title("local broadcast, partitioned pattern (overlap = k exactly)");

  Table pairwise({"c", "rand rendezvous med", "deterministic med",
                  "theory c^2/k", "theory bound c^2 lgI"});
  for (int c : {4, 8, 16, 32}) {
    std::vector<double> rnd, det;
    Rng seeder(seed * 7 + c);
    for (int t = 0; t < trials; ++t) {
      SharedCoreAssignment a(2, c, k, LabelMode::LocalRandom, Rng(seeder()));
      BaselineRunConfig config;
      config.seed = seeder();
      const auto out = run_rendezvous_broadcast(a, config);
      rnd.push_back(static_cast<double>(out.slots));
      det.push_back(det_rendezvous_slots(c, k, seeder()));
    }
    add_summary(manifest, "pairwise.c" + std::to_string(c) + ".random",
                summarize(rnd));
    add_summary(manifest, "pairwise.c" + std::to_string(c) + ".deterministic",
                summarize(det));
    pairwise.add_row(
        {Table::num(static_cast<std::int64_t>(c)),
         Table::num(summarize(rnd).median, 1),
         Table::num(summarize(det).median, 1),
         Table::num(static_cast<double>(c) * c / k, 1),
         Table::num(static_cast<double>(c) * c * 20, 0)});
  }
  pairwise.print_with_title("pairwise rendezvous (n = 2)");
  manifest.write();
  return 0;
}
