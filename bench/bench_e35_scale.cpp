// E35 — million-node slot-engine scaling.
//
// Not a paper claim but the enabler of large-n sweeps: the slot engine
// (sim/network.cpp) plus the BatchClient traffic interface must keep a
// mostly idle fleet's slot cost O(active). The workload is a duty-cycled
// fleet (one of kDutyPeriod node residue classes awake per slot, ~1%
// activity) — the mostly-idle regime large deployments actually sit in,
// where per-node protocols still pay a virtual call per node per slot
// while the batch path is O(active). This harness pins that down three
// ways:
//
//   * equivalence — one fixed workload stepped with per-node protocols
//     and with a batch client must finish with TraceStats byte-identical
//     to one run of the reference engine (sim/reference_network.h) over
//     the same slots (deterministic equiv.* metrics, always 1);
//   * throughput — node-slots/sec of the two legs at --n, each the median
//     of kThroughputRepeats runs in alternating leg order (volatile; the
//     engine's throughput is measured and bounded by perfbench);
//   * scale — a doubling sweep of the batch leg up to --sweep-max
//     (default 2^20 nodes) whose per-n rates should stay near-flat, and a
//     steady-state allocation probe at --alloc-n (default 10^5) that must
//     report ZERO heap allocations for both traffic interfaces (the
//     counter is alloc_count.h's, shared with E18).
//
// With --compare BASELINE [--tolerances FILE] the run self-gates: its
// manifest is diffed against the committed baseline via the same
// compare_bench_manifests used by `cograd bench`, and the exit code
// reflects the gate verdict (the CI perf-smoke step runs exactly this at
// reduced --slots; the n values never change, so metric names and the
// deterministic section stay comparable).
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "alloc_count.h"
#include "bench_common.h"
#include "sim/assignment.h"
#include "sim/network.h"
#include "sim/reference_network.h"
#include "util/bench_gate.h"
#include "util/bench_report.h"
#include "util/cli.h"
#include "util/json.h"
#include "util/rng.h"
#include "util/stats.h"

namespace cogradio {
namespace {

constexpr int kChannelsPerNode = 16;
constexpr int kOverlap = 4;
// Runs per throughput leg; each leg's rate is the median of its runs.
constexpr int kThroughputRepeats = 5;

// Duty cycle of the workload: each slot exactly one of kDutyPeriod node
// residue classes is awake, so ~1% of the fleet acts per slot. This is the
// regime the batch interface is built for — epochs of a large deployment
// where most radios are waiting out their phase — and it is where the
// interfaces separate: per-node protocols still cost a virtual call per
// node per slot, while the batch path does O(active) work.
constexpr int kDutyPeriod = 100;

inline std::uint64_t chatter_mix(std::uint64_t x) {
  x ^= x >> 29;
  x *= 0x94D049BB133111EBull;
  x ^= x >> 32;
  return x;
}

// The residue class that is awake this slot.
inline int chatter_phase(Slot slot) {
  return static_cast<int>(
      chatter_mix(static_cast<std::uint64_t>(slot) * 0x9E3779B97F4A7C15ull) %
      static_cast<std::uint64_t>(kDutyPeriod));
}

// Deterministic feedback-oblivious traffic shared by the per-node protocol
// and the batch client: a pure hash of (slot, node) decides mode, label and
// payload, so every leg offers byte-identical load and their final
// TraceStats must agree exactly (the equiv.* metrics).
struct ChatterDecision {
  Mode mode = Mode::Idle;
  LocalLabel label = 0;
};

// Decision for an awake node (callers check the duty phase first).
inline ChatterDecision chatter(Slot slot, NodeId node) {
  const std::uint64_t h =
      chatter_mix(static_cast<std::uint64_t>(slot) * 0x9E3779B97F4A7C15ull +
                  static_cast<std::uint64_t>(node) * 0xBF58476D1CE4E5B9ull);
  ChatterDecision d;
  const std::uint64_t roll = h % 10;
  if (roll == 0) return d;  // idle even within its duty phase
  d.mode = roll < 5 ? Mode::Broadcast : Mode::Listen;
  d.label = static_cast<LocalLabel>((h >> 8) %
                                    static_cast<std::uint64_t>(kChannelsPerNode));
  return d;
}

inline Message chatter_msg(Slot slot, NodeId node) {
  Message m;
  m.type = MessageType::Data;
  m.a = slot * 1000 + node;
  return m;
}

class ChatterNode : public Protocol {
 public:
  explicit ChatterNode(NodeId id) : id_(id) {}

  Action on_slot(Slot slot) override {
    if (id_ % kDutyPeriod != chatter_phase(slot)) return Action::idle();
    const ChatterDecision d = chatter(slot, id_);
    switch (d.mode) {
      case Mode::Broadcast:
        return Action::broadcast(d.label, chatter_msg(slot, id_));
      case Mode::Listen:
        return Action::listen(d.label);
      case Mode::Idle:
        break;
    }
    return Action::idle();
  }
  void on_feedback(Slot, const SlotResult& result) override {
    sink_ += result.tx_success ? 1 : 0;
  }
  bool done() const override { return false; }

  std::int64_t sink_ = 0;  // keeps feedback from being optimized away

 private:
  NodeId id_;
};

class ChatterClient : public BatchClient {
 public:
  explicit ChatterClient(int n) : n_(n) {}

  void begin_slot(Slot slot, std::span<Mode> mode,
                  std::span<LocalLabel> label) override {
    // The mode span arrives Idle-prefilled, so only the awake residue
    // class needs writing: this is the O(active) slot cost the batched
    // interface exists for.
    for (NodeId u = chatter_phase(slot); u < n_; u += kDutyPeriod) {
      const ChatterDecision d = chatter(slot, u);
      mode[static_cast<std::size_t>(u)] = d.mode;
      label[static_cast<std::size_t>(u)] = d.label;
    }
  }
  Message source_message(Slot slot, NodeId node) override {
    return chatter_msg(slot, node);
  }
  void end_slot(const BatchFeedback& fb) override {
    // Touch the feedback like a real consumer would, over the nodes this
    // client knows it woke (the protocol twin's on_feedback does the
    // equivalent single-node read).
    for (NodeId u = chatter_phase(fb.slot); u < n_; u += kDutyPeriod)
      sink_ += (fb.flags[static_cast<std::size_t>(u)] & slotflag::kTxSuccess)
                   ? 1
                   : 0;
  }
  bool done() const override { return false; }

  std::int64_t sink_ = 0;

 private:
  int n_;
};

struct LegResult {
  double node_slots_per_sec = 0.0;
  TraceStats stats;
};

NetworkOptions leg_options() {
  NetworkOptions opt;
  opt.seed = 35;
  opt.loss_prob = 0.125;  // keeps the fade-coin path on the measured track
  return opt;
}

// One per-node-protocol leg on `Engine`: fixed topology, warmup (sizes the
// scratch), timed window. The reference engine's run is only read for its
// TraceStats.
template <typename Engine>
LegResult run_protocol_leg(int n, int warmup, int slots) {
  SharedCoreAssignment assignment(n, kChannelsPerNode, kOverlap,
                                  LabelMode::LocalRandom, Rng(1));
  std::vector<std::unique_ptr<ChatterNode>> nodes;
  std::vector<Protocol*> protocols;
  nodes.reserve(static_cast<std::size_t>(n));
  protocols.reserve(static_cast<std::size_t>(n));
  for (NodeId u = 0; u < n; ++u) {
    nodes.push_back(std::make_unique<ChatterNode>(u));
    protocols.push_back(nodes.back().get());
  }
  Engine net(assignment, std::move(protocols), leg_options());
  for (int s = 0; s < warmup; ++s) net.step();
  const double start = monotonic_seconds();
  for (int s = 0; s < slots; ++s) net.step();
  const double elapsed = monotonic_seconds() - start;
  LegResult out;
  out.node_slots_per_sec = static_cast<double>(n) * slots / elapsed;
  out.stats = net.stats();
  return out;
}

// The batch-client leg over the identical topology and traffic.
LegResult run_batch_leg(int n, int warmup, int slots) {
  SharedCoreAssignment assignment(n, kChannelsPerNode, kOverlap,
                                  LabelMode::LocalRandom, Rng(1));
  ChatterClient client(n);
  Network net(assignment, client, leg_options());
  for (int s = 0; s < warmup; ++s) net.step();
  const double start = monotonic_seconds();
  for (int s = 0; s < slots; ++s) net.step();
  const double elapsed = monotonic_seconds() - start;
  LegResult out;
  out.node_slots_per_sec = static_cast<double>(n) * slots / elapsed;
  out.stats = net.stats();
  return out;
}

// Steady-state allocation count of a window of steps after warmup.
template <typename StepFn>
std::uint64_t count_window_allocs(StepFn&& step, int warmup, int window) {
  for (int s = 0; s < warmup; ++s) step();
  const std::uint64_t before = bench::allocation_count();
  for (int s = 0; s < window; ++s) step();
  return bench::allocation_count() - before;
}

std::optional<std::string> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

// Self-gate: diff this run's manifest against a committed baseline with
// the shared bench gate. Returns the process exit code.
int self_gate(const RunManifest& manifest, const std::string& compare_path,
              const std::string& tolerances_path) {
  std::string error;
  const auto current = parse_json(manifest.to_json(), &error);
  if (!current) {
    std::fprintf(stderr, "e35: own manifest invalid: %s\n", error.c_str());
    return 1;
  }
  const auto baseline_text = read_file(compare_path);
  if (!baseline_text) {
    std::fprintf(stderr, "e35: cannot read baseline %s\n",
                 compare_path.c_str());
    return 1;
  }
  const auto baseline = parse_json(*baseline_text, &error);
  if (!baseline) {
    std::fprintf(stderr, "e35: baseline %s invalid: %s\n",
                 compare_path.c_str(), error.c_str());
    return 1;
  }
  GateTolerances tolerances;
  if (!tolerances_path.empty()) {
    const auto text = read_file(tolerances_path);
    if (!text) {
      std::fprintf(stderr, "e35: cannot read tolerances %s\n",
                   tolerances_path.c_str());
      return 1;
    }
    const auto doc = parse_json(*text, &error);
    std::optional<GateTolerances> parsed;
    if (doc) parsed = parse_tolerances(*doc, &error);
    if (!parsed) {
      std::fprintf(stderr, "e35: tolerances %s invalid: %s\n",
                   tolerances_path.c_str(), error.c_str());
      return 1;
    }
    tolerances = *parsed;
  }
  const GateResult result =
      compare_bench_manifests(*current, *baseline, tolerances);
  const std::string report = result.report();
  std::fputs(report.c_str(), stdout);
  return result.ok() ? 0 : 1;
}

int run(CliArgs& args) {
  const int n = static_cast<int>(args.get_int("n", 4096));
  const int slots = static_cast<int>(args.get_int("slots", 2048));
  const int warmup = static_cast<int>(args.get_int("warmup", 256));
  const std::int64_t sweep_max = args.get_int("sweep-max", std::int64_t{1} << 20);
  const int alloc_n = static_cast<int>(args.get_int("alloc-n", 100000));
  const std::string compare_path = args.get_string("compare", "");
  const std::string tolerances_path = args.get_string("tolerances", "");
  args.finish();

  std::printf("E35: slot-engine scaling (n=%d, c=%d, k=%d)\n\n", n,
              kChannelsPerNode, kOverlap);
  bench::BenchManifest manifest("e35_scale", &args);

  // --- Throughput + equivalence at the headline n ------------------------
  // One reference run over the legs' warmup + slots gives the TraceStats
  // every leg must reproduce. Each leg runs kThroughputRepeats times, the
  // two legs in an order that alternates every repeat, and its rate is the
  // median of its runs. Equivalence must hold on every repeat.
  TraceStats reference;
  {
    auto t = manifest.phase("reference");
    reference = run_protocol_leg<ReferenceNetwork>(n, warmup, slots).stats;
  }
  enum Leg { kProtocol, kBatch, kLegs };
  std::vector<double> rates[kLegs];
  bool protocol_matches = true;
  bool batch_matches = true;
  {
    auto t = manifest.phase("throughput");
    for (int r = 0; r < kThroughputRepeats; ++r) {
      LegResult legs[kLegs];
      for (int j = 0; j < kLegs; ++j) {
        const int leg = (r + j) % kLegs;
        legs[leg] = leg == kBatch ? run_batch_leg(n, warmup, slots)
                                  : run_protocol_leg<Network>(n, warmup, slots);
      }
      for (int leg = 0; leg < kLegs; ++leg)
        rates[leg].push_back(legs[leg].node_slots_per_sec);
      protocol_matches = protocol_matches && legs[kProtocol].stats == reference;
      batch_matches = batch_matches && legs[kBatch].stats == reference;
    }
  }
  const double protocol_rate = percentile(rates[kProtocol], 0.5);
  const double batch_rate = percentile(rates[kBatch], 0.5);
  std::printf("throughput (%d slots after %d warmup, median of %d runs):\n",
              slots, warmup, kThroughputRepeats);
  std::printf("  %-14s  %18s\n", "leg", "node-slots/sec");
  std::printf("  %-14s  %18.3e\n", "protocol", protocol_rate);
  std::printf("  %-14s  %18.3e\n", "batch", batch_rate);
  manifest.manifest().set_volatile("soa.node_slots_per_sec", protocol_rate);
  manifest.manifest().set_volatile("batch.node_slots_per_sec", batch_rate);

  // The equiv.* names predate the reference engine, when it was a layout
  // of Network; they stay so the committed baseline still pins them.
  std::printf("\nequivalence: protocol %s reference, batch %s reference\n",
              protocol_matches ? "==" : "!=", batch_matches ? "==" : "!=");
  manifest.set_int("equiv.soa_protocol_matches_aos", protocol_matches ? 1 : 0);
  manifest.set_int("equiv.soa_batch_matches_aos", batch_matches ? 1 : 0);

  // --- Scaling sweep (batch leg) ----------------------------------------
  {
    auto t = manifest.phase("sweep");
    std::printf("\nbatch-leg scaling sweep (4x steps, short windows):\n");
    std::printf("  %8s  %18s\n", "n", "node-slots/sec");
    for (std::int64_t sweep_n = 4096; sweep_n <= sweep_max; sweep_n *= 4) {
      // Keep roughly constant total node-slots per point so the million-
      // node legs stay affordable in CI.
      const int sweep_slots = static_cast<int>(
          std::max<std::int64_t>(16, (std::int64_t{1} << 22) / sweep_n));
      const int sweep_warmup = std::max(8, sweep_slots / 4);
      const LegResult r = run_batch_leg(static_cast<int>(sweep_n),
                                        sweep_warmup, sweep_slots);
      std::printf("  %8lld  %18.3e\n", static_cast<long long>(sweep_n),
                  r.node_slots_per_sec);
      manifest.manifest().set_volatile(
          "sweep.n" + std::to_string(sweep_n) + ".node_slots_per_sec",
          r.node_slots_per_sec);
    }
  }

  // --- Steady-state allocation probe ------------------------------------
  {
    auto t = manifest.phase("alloc");
    SharedCoreAssignment assignment(alloc_n, kChannelsPerNode, kOverlap,
                                    LabelMode::LocalRandom, Rng(1));
    std::uint64_t batch_allocs = 0;
    {
      ChatterClient client(alloc_n);
      Network net(assignment, client, leg_options());
      batch_allocs = count_window_allocs([&] { net.step(); }, 64, 256);
    }
    std::uint64_t protocol_allocs = 0;
    {
      std::vector<std::unique_ptr<ChatterNode>> nodes;
      std::vector<Protocol*> protocols;
      for (NodeId u = 0; u < alloc_n; ++u) {
        nodes.push_back(std::make_unique<ChatterNode>(u));
        protocols.push_back(nodes.back().get());
      }
      Network net(assignment, std::move(protocols), leg_options());
      protocol_allocs = count_window_allocs([&] { net.step(); }, 64, 256);
    }
    std::printf("\nsteady-state allocs at n=%d (256 slots): batch %llu, "
                "protocol %llu\n",
                alloc_n, static_cast<unsigned long long>(batch_allocs),
                static_cast<unsigned long long>(protocol_allocs));
    manifest.set_int("alloc.batch_steady_state_allocs",
                     static_cast<std::int64_t>(batch_allocs));
    manifest.set_int("alloc.protocol_steady_state_allocs",
                     static_cast<std::int64_t>(protocol_allocs));
  }

  manifest.write();

  if (!compare_path.empty())
    return self_gate(manifest.manifest(), compare_path, tolerances_path);
  return 0;
}

}  // namespace
}  // namespace cogradio

int main(int argc, char** argv) {
  cogradio::CliArgs args(argc, argv);
  return cogradio::run(args);
}
