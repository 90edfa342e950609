// E30 — design ablation: uniform channel choice vs Zipf-biased choice.
//
// CogCast picks its channel uniformly at random; this harness asks what a
// common bias (everyone preferring their low labels, Zipf(s)) would do.
// Two regimes with opposite predictions:
//
//   local random labels:  each node's label-to-channel map is an
//       independent permutation, so a common bias does NOT align across
//       nodes. The expected pairwise meeting probability stays k/c^2, but
//       its pair-to-pair variance grows with s — and completion is a
//       maximum over pairs, so the tail (and the median with it) gets
//       worse. Uniform is the right default exactly because labels mean
//       nothing (the paper's model).
//
//   global labels, shared-core-low topology: the k shared channels carry
//       the k lowest global ids, so label rank aligns with shared-ness
//       and everyone's bias points at the same channels — broadcast
//       *speeds up* with s (the hopping-together effect, Section 6).
//
// Together: channel bias is only useful with coordination that local
// labels rule out; under the paper's assumptions the uniform rule wins.
#include <cstdio>
#include <memory>

#include "bench_common.h"
#include "core/cogcast.h"
#include "sim/network.h"

using namespace cogradio;
using namespace cogradio::bench;

namespace {

Summary biased_cogcast(int n, int c, int k, double zipf_s, LabelMode labels,
                       int trials, std::uint64_t base_seed, int jobs) {
  Message payload;
  payload.type = MessageType::Data;
  return summarize(sweep_trials(
      trials, base_seed, jobs, [&](Rng& rng) -> std::optional<double> {
        // Under global labels pin the shared core to channels 0..k-1 so that
        // low label rank == shared channel (the aligned regime).
        SharedCoreAssignment assignment(
            n, c, k, labels, Rng(rng()),
            /*total_channels=*/4 * c,
            /*low_core=*/labels == LabelMode::Global);
        Rng node_seeder(rng());
        std::vector<std::unique_ptr<CogCastNode>> nodes;
        std::vector<Protocol*> protocols;
        for (NodeId u = 0; u < n; ++u) {
          nodes.push_back(std::make_unique<CogCastNode>(
              u, c, u == 0, payload,
              node_seeder.split(static_cast<std::uint64_t>(u))));
          nodes.back()->set_channel_bias(zipf_s);
          protocols.push_back(nodes.back().get());
        }
        NetworkOptions opt;
        opt.seed = rng();
        Network net(assignment, protocols, opt);
        net.run(500'000);
        if (!net.all_done()) return std::nullopt;
        return static_cast<double>(net.now());
      }));
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
  args.finish();
  BenchManifest manifest("e30_channel_bias", &args);

  std::printf("E30: channel-selection bias ablation   (n=%d, c=%d, k=%d, "
              "%d trials/point)\n",
              n, c, k, trials);

  for (const LabelMode mode : {LabelMode::LocalRandom, LabelMode::Global}) {
    const bool local = mode == LabelMode::LocalRandom;
    Table table({"zipf s", "median", "p95", "vs uniform"});
    double base = 0;
    bool first_point = true;  // the s=0.0 uniform point anchors the ratios
    for (double s : {0.0, 0.5, 1.0, 2.0, 4.0}) {
      const Summary summary =
          biased_cogcast(n, c, k, s, mode, trials,
                         seed + static_cast<std::uint64_t>(s * 10) +
                             (local ? 0 : 7000),
                         jobs);
      if (first_point) {
        base = summary.median;
        first_point = false;
      }
      add_summary(manifest,
                  std::string(local ? "local" : "global") + ".s" +
                      std::to_string(static_cast<int>(s * 10)),
                  summary);
      table.add_row({Table::num(s, 1), Table::num(summary.median, 1),
                     Table::num(summary.p95, 1),
                     Table::num(safe_ratio(summary.median, base), 2)});
    }
    table.print_with_title(local
                               ? "local random labels (bias cannot align)"
                               : "global labels, shared channels lowest "
                                 "(bias aligns)");
  }
  std::printf("\ntheory: under local labels bias only adds variance (ratios "
              ">= 1,\ngrowing with s); under aligned global labels it "
              "*helps* (ratios < 1).\n");
  manifest.write();
  return 0;
}
