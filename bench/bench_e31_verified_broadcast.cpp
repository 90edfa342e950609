// E31 — verified broadcast and multi-source broadcast: two compositions
// of the paper's primitives.
//
// Table 1: the cost of certification. Plain CogCast gives the source no
// completion signal; appending a CogComp counting round (Result #2 over
// Result #1) buys an exact certificate for a fixed extra budget. The
// harness reports the overhead factor and the certificate's correctness.
//
// Table 2: replicated sources. Starting the epidemic from m nodes skips
// ~lg m doubling steps; completion falls with m until the per-slot
// channel-capacity floor.
#include <cstdio>
#include <memory>

#include "bench_common.h"
#include "core/verified_broadcast.h"
#include "sim/network.h"

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
  BenchManifest manifest("e31_verified_broadcast", &args);

  std::printf("E31: verified & multi-source broadcast   (c=%d, k=%d, "
              "%d trials/point)\n",
              c, k, trials);

  Table cert({"n", "plain cogcast med", "verified med", "overhead",
              "certificates correct"});
  for (int n : {8, 16, 32, 64}) {
    const Summary plain =
        cogcast_slots("shared-core", n, c, k, trials,
                      seed + static_cast<std::uint64_t>(n), jobs);
    std::vector<double> slots;
    int correct = 0;
    Rng seeder(seed + 400 + static_cast<std::uint64_t>(n));
    for (int t = 0; t < trials; ++t) {
      const VerifiedBroadcastParams params{n, c, k, 4.0};
      SharedCoreAssignment assignment(n, c, k, LabelMode::LocalRandom,
                                      Rng(seeder()));
      Message payload;
      payload.type = MessageType::Data;
      Rng node_seeder(seeder());
      std::vector<std::unique_ptr<VerifiedBroadcastNode>> nodes;
      std::vector<Protocol*> protocols;
      for (NodeId u = 0; u < n; ++u) {
        nodes.push_back(std::make_unique<VerifiedBroadcastNode>(
            u, params, u == 0, payload,
            node_seeder.split(static_cast<std::uint64_t>(u))));
        protocols.push_back(nodes.back().get());
      }
      NetworkOptions opt;
      opt.seed = seeder();
      Network net(assignment, protocols, opt);
      const Slot end = net.run(params.max_slots());
      slots.push_back(static_cast<double>(end));
      // Certificate correctness: verified iff everyone is informed.
      bool all_informed = true;
      for (const auto& node : nodes)
        all_informed = all_informed && node->informed();
      if (nodes[0]->verified() == all_informed) ++correct;
    }
    const Summary ver = summarize(slots);
    const std::string tag = "cert.n" + std::to_string(n);
    manifest.set(tag + ".plain_median", plain.median);
    manifest.set(tag + ".verified_median", ver.median);
    manifest.set_int(tag + ".certificates_correct", correct);
    cert.add_row({Table::num(static_cast<std::int64_t>(n)),
                  Table::num(plain.median, 1), Table::num(ver.median, 1),
                  Table::num(safe_ratio(ver.median, plain.median), 2),
                  Table::num(static_cast<std::int64_t>(correct)) + "/" +
                      Table::num(static_cast<std::int64_t>(trials))});
  }
  cert.print_with_title("certification overhead (CogComp count round)");

  Table multi({"initial sources m", "median", "p95", "vs m=1"});
  const int n = 96;
  double base = 0;
  for (int m : {1, 2, 4, 8, 16}) {
    std::vector<double> slots;
    Rng seeder(seed + 900 + static_cast<std::uint64_t>(m));
    for (int t = 0; t < trials; ++t) {
      SharedCoreAssignment assignment(n, c, k, LabelMode::LocalRandom,
                                      Rng(seeder()));
      CogCastRunConfig config;
      config.params = {n, c, k, 4.0};
      config.seed = seeder();
      for (NodeId u = 1; u < m; ++u) config.extra_sources.push_back(u);
      const auto out = run_cogcast(assignment, config);
      if (out.completed) slots.push_back(static_cast<double>(out.slots));
    }
    const Summary s = summarize(slots);
    if (m == 1) base = s.median;
    add_summary(manifest, "multi.m" + std::to_string(m), s);
    multi.add_row({Table::num(static_cast<std::int64_t>(m)),
                   Table::num(s.median, 1), Table::num(s.p95, 1),
                   Table::num(safe_ratio(s.median, base), 2)});
  }
  multi.print_with_title("multi-source epidemic (n=96)");
  std::printf("\ntheory: certification costs a fixed additive CogComp budget;\n"
              "m sources save ~lg m doubling steps.\n");
  manifest.write();
  return 0;
}
