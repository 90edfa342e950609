// duty_fleet — a 2^20-node BatchClient fleet running E35's 1%-duty
// chatter (c = 16, k = 4, fading on) on one thread.
//
// Each slot one of 100 node residue classes wakes; a pure hash of (seed,
// slot, node) picks each awake node's mode and label. The engine's
// O(active) batch path then works on a memory-bound working set (the
// per-node arrays and the label snapshot run to hundreds of MB), while
// protocol callbacks and the sweep pool do nothing. Set-up — the
// 2^20-node assignment, its label snapshot and the Network — is a large
// share of a run, which is why setup_s is measured here.
#include <algorithm>
#include <memory>
#include <optional>

#include "probes.h"
#include "sim/assignment.h"
#include "sim/network.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace cogradio;

constexpr int kNodes = 1 << 20;
constexpr int kChannels = 16;
constexpr int kOverlap = 4;
constexpr int kDutyPeriod = 100;
constexpr int kChunk = 32;          // slots per throughput sample
constexpr Slot kDigestSlot = 1024;  // TraceStats at this slot form the digest
constexpr int kFleets = 5;  // builds per run, each timed as set-up

std::uint64_t mix(std::uint64_t x) {
  x ^= x >> 29;
  x *= 0x94D049BB133111EBull;
  x ^= x >> 32;
  return x;
}

class Chatter : public BatchClient {
 public:
  Chatter(int n, std::uint64_t seed) : n_(n), seed_(seed) {}

  // Client time, measured only when tracing.
  bool timed = false;
  double client_ns = 0;
  std::int64_t msg_calls = 0;
  std::int64_t msg_samples = 0;
  double msg_sampled_ns = 0;

  // What the client asked for and saw, for the accounting check.
  std::int64_t issued_tx = 0;
  std::int64_t issued_listen = 0;
  std::int64_t seen_success = 0;

  void begin_slot(Slot slot, std::span<Mode> mode,
                  std::span<LocalLabel> label) override {
    const std::int64_t t0 = timed ? now_ns() : 0;
    for (NodeId u = phase(slot); u < n_; u += kDutyPeriod) {
      const std::uint64_t h =
          mix(seed_ ^ (static_cast<std::uint64_t>(slot) * 0x9E3779B97F4A7C15ull +
                       static_cast<std::uint64_t>(u) * 0xBF58476D1CE4E5B9ull));
      const std::uint64_t roll = h % 10;
      if (roll == 0) continue;  // idle even within its duty phase
      const auto i = static_cast<std::size_t>(u);
      if (roll < 5) {
        mode[i] = Mode::Broadcast;
        ++issued_tx;
      } else {
        mode[i] = Mode::Listen;
        ++issued_listen;
      }
      label[i] = static_cast<LocalLabel>((h >> 8) % kChannels);
    }
    if (timed) client_ns += static_cast<double>(now_ns() - t0);
  }

  Message source_message(Slot slot, NodeId node) override {
    auto make = [&] {
      Message m;
      m.type = MessageType::Data;
      m.a = slot * 1000 + node;
      return m;
    };
    if (!timed) return make();
    return sampled_call(msg_calls, msg_samples, msg_sampled_ns, make);
  }

  void end_slot(const BatchFeedback& fb) override {
    const std::int64_t t0 = timed ? now_ns() : 0;
    for (NodeId u = phase(fb.slot); u < n_; u += kDutyPeriod)
      seen_success +=
          (fb.flags[static_cast<std::size_t>(u)] & slotflag::kTxSuccess) ? 1 : 0;
    if (timed) client_ns += static_cast<double>(now_ns() - t0);
  }

  bool done() const override { return false; }

  double estimated_msg_ns() const {
    return LayerProbe::scaled(msg_sampled_ns, msg_calls, msg_samples);
  }

 private:
  int phase(Slot slot) const {
    return static_cast<int>(
        mix(seed_ + static_cast<std::uint64_t>(slot) * 0x9E3779B97F4A7C15ull) %
        kDutyPeriod);
  }

  int n_;
  std::uint64_t seed_;
};

// One built fleet. The traced run routes the assignment through a probe
// so the label snapshot's global_channel calls and the slot boundaries
// are seen. Members are destroyed network first: it refers to the rest.
struct Fleet {
  std::unique_ptr<SharedCoreAssignment> assignment;
  std::unique_ptr<TracedAssignment> traced;
  std::unique_ptr<Chatter> client;
  std::unique_ptr<Network> network;
  double build_s = 0;
  double construct_s = 0;
};

void build(Fleet& f, std::uint64_t seed, LayerProbe* probe) {
  Rng rng(seed);
  const std::uint64_t assign_seed = rng();
  const std::uint64_t net_seed = rng();
  const std::uint64_t chatter_seed = rng();
  const std::int64_t t0 = now_ns();
  f.assignment = std::make_unique<SharedCoreAssignment>(
      kNodes, kChannels, kOverlap, LabelMode::LocalRandom, Rng(assign_seed));
  const std::int64_t t1 = now_ns();
  f.client = std::make_unique<Chatter>(kNodes, chatter_seed);
  NetworkOptions opt;
  opt.seed = net_seed;
  opt.loss_prob = 0.125;  // E35's setting: keeps the fade coins on the path
  ChannelAssignment* assignment = f.assignment.get();
  if (probe != nullptr) {
    f.traced = std::make_unique<TracedAssignment>(*f.assignment, *probe);
    assignment = f.traced.get();
  }
  f.network = std::make_unique<Network>(*assignment, *f.client, opt);
  const std::int64_t t2 = now_ns();
  f.build_s = static_cast<double>(t1 - t0) * 1e-9;
  f.construct_s = static_cast<double>(t2 - t1) * 1e-9;
}

// The accounting check: per-node activity must add up to the engine's
// TraceStats and to what the client asked for and saw.
void check_activity(const Fleet& f, Report& report) {
  const Network& net = *f.network;
  const TraceStats& s = net.stats();
  NodeActivity sum;
  for (NodeId u = 0; u < kNodes; ++u) {
    const NodeActivity a = net.activity(u);
    sum.tx += a.tx;
    sum.tx_success += a.tx_success;
    sum.listen += a.listen;
    sum.received += a.received;
    sum.idle += a.idle;
    sum.jammed += a.jammed;
  }
  const std::int64_t node_slots = static_cast<std::int64_t>(kNodes) * s.slots;
  if (sum.tx + sum.listen + sum.idle + sum.jammed != node_slots)
    report.problem("per-node activity does not sum to slots x n");
  if (sum.idle != s.idle_node_slots)
    report.problem("per-node idle slots differ from TraceStats");
  if (sum.tx != s.broadcasts || sum.tx != f.client->issued_tx)
    report.problem("per-node broadcasts differ from TraceStats or the client");
  if (sum.listen != f.client->issued_listen)
    report.problem("per-node listens differ from what the client issued");
  if (sum.tx_success != s.successes || sum.tx_success != f.client->seen_success)
    report.problem("per-node successes differ from TraceStats or feedback");
  if (sum.received != s.deliveries)
    report.problem("per-node receptions differ from TraceStats deliveries");
}

}  // namespace

Report run_duty_fleet(const Options& options) {
  Report report;
  LayerProbe probe;
  Tracer tracer(options.trace,
                {"sim.network.slot", "sim.assignment.begin_slot", "unused"});
  probe.lane = tracer.lane();
  probe.slot_name = 0;
  probe.assign_begin_name = 1;
  probe.jam_begin_name = 2;

  // --- Each of kFleets builds is timed as set-up and then stepped for an
  // equal share of the window: a build's physical pages, and so its cache
  // conflicts, differ from run to run, and the median over several builds
  // evens that out. Every build must reproduce the first one's digest.
  std::vector<double> setup_s, build_s, construct_s;
  std::int64_t snapshot_calls = 0;
  std::uint64_t steady_allocs = 0;
  std::vector<double> step_ms, node_rate;
  std::vector<double> plain_rate, traced_rate, traced_slot_us;
  double traced_ns = 0, traced_client_ns = 0, traced_assign_ns = 0;
  std::int64_t traced_active = 0, traced_slots = 0;
  std::optional<std::uint64_t> first_digest;
  for (int rep = 0; rep < kFleets; ++rep) {
    Fleet fleet;
    const std::int64_t gc_before = probe.gc_calls;
    build(fleet, options.seed, options.trace ? &probe : nullptr);
    snapshot_calls = probe.gc_calls - gc_before;
    setup_s.push_back(fleet.build_s + fleet.construct_s);
    build_s.push_back(fleet.build_s);
    construct_s.push_back(fleet.construct_s);
    Network& net = *fleet.network;
    Chatter& client = *fleet.client;

    // Warm-up sizes every scratch buffer; the first build then runs the
    // steady-state allocation probe over a fixed window.
    for (int s = 0; s < 16; ++s) net.step();
    if (rep == 0) {
      const std::uint64_t alloc0 = probe.engine_allocs();
      for (int s = 0; s < 256; ++s) net.step();
      steady_allocs = probe.engine_allocs() - alloc0;
    }

    // Chunks of kChunk slots. The traced run alternates plain and
    // timed-client chunks so the overhead compares like with like.
    std::optional<std::uint64_t> digest;
    const std::int64_t deadline =
        now_ns() + static_cast<std::int64_t>(options.seconds / kFleets * 1e9);
    for (int chunk = 0; now_ns() < deadline || !digest || chunk < 2; ++chunk) {
      const bool timed = options.trace && chunk % 2 == 1;
      client.timed = timed;
      const double client_before = client.client_ns + client.estimated_msg_ns();
      const double assign_before = probe.assign_begin_ns;
      const TraceStats before = net.stats();
      const std::int64_t c0 = now_ns();
      for (int s = 0; s < kChunk; ++s) {
        const std::int64_t t0 = now_ns();
        net.step();
        const std::int64_t t1 = now_ns();
        step_ms.push_back(static_cast<double>(t1 - t0) * 1e-6);
        if (timed) traced_slot_us.push_back(static_cast<double>(t1 - t0) * 1e-3);
        if (net.now() == kDigestSlot) {
          Digest d;
          feed_stats(d, net.stats());
          digest = d.value();
        }
      }
      const double wall = static_cast<double>(now_ns() - c0);
      const TraceStats& after = net.stats();
      const std::int64_t active =
          static_cast<std::int64_t>(kNodes) * (after.slots - before.slots) -
          (after.idle_node_slots - before.idle_node_slots);
      const double rate = static_cast<double>(active) / (wall * 1e-9);
      if (!options.trace) {
        node_rate.push_back(rate);
      } else if (timed) {
        traced_rate.push_back(rate);
        traced_ns += wall;
        traced_client_ns += client.client_ns + client.estimated_msg_ns() - client_before;
        traced_assign_ns += probe.assign_begin_ns - assign_before;
        traced_active += active;
        traced_slots += kChunk;
      } else {
        plain_rate.push_back(rate);
      }
    }
    probe.close_slot(now_ns());
    if (!first_digest) first_digest = digest;
    if (digest != first_digest)
      report.problem("fleet build " + std::to_string(rep) +
                     " differs from the first build at slot " +
                     std::to_string(kDigestSlot));
    check_activity(fleet, report);
    report.attempted += net.now();
  }
  Digest d;
  d.i64(static_cast<std::int64_t>(*first_digest));
  report.digest = d.hex();
  report.failed = static_cast<std::int64_t>(report.problems.size());

  if (!options.trace) {
    const auto chunks = static_cast<std::int64_t>(node_rate.size());
    report.set("setup_s", median(setup_s), "s", kFleets);
    report.set("active_node_slots_per_s", median(node_rate), "1/s", chunks);
    report.set_percentile("job_latency_p50_ms", chunked_percentile(step_ms, 0.5),
                          "ms", true);
    report.set_percentile("job_latency_p99_ms", chunked_percentile(step_ms, 0.99),
                          "ms", true);
    report.set("peak_rss_mb", peak_rss_mb(), "MB", 1);
    report.set("ok_frac",
               static_cast<double>(report.attempted - report.failed) /
                   static_cast<double>(report.attempted),
               "ratio", report.attempted);
    return report;
  }

  const double self_ns = traced_ns - traced_client_ns - traced_assign_ns;
  report.set("sim.network.self_ns_per_active_node_slot",
             self_ns / static_cast<double>(traced_active), "ns", traced_active);
  report.set("sim.network.step_share", self_ns / traced_ns, "ratio", traced_slots);
  report.set_percentile("sim.network.slot_us_p50", percentile(traced_slot_us, 0.5),
                        "us", false);
  report.set_percentile("sim.network.slot_us_p99",
                        percentile(traced_slot_us, 0.99), "us", false);
  report.set("sim.network.construct_s", median(construct_s), "s", kFleets);
  report.set("sim.network.steady_allocs", static_cast<double>(steady_allocs),
             "count", 256);
  report.set("sim.assignment.build_s", median(build_s), "s", kFleets);
  report.set("sim.assignment.global_channel_calls",
             static_cast<double>(snapshot_calls), "count", 1);
  report.set("sim.assignment.step_share", traced_assign_ns / traced_ns, "ratio",
             traced_slots);
  report.set("core.protocol.step_share", 0.0, "ratio", 0);
  report.set("bench.client_us_per_slot",
             traced_client_ns * 1e-3 / static_cast<double>(traced_slots), "us",
             traced_slots);
  report.set("bench.trace_overhead_frac", median(plain_rate) / median(traced_rate) - 1.0,
             "ratio", static_cast<std::int64_t>(traced_rate.size()));
  const std::string path = options.out_dir + "/spans-duty_fleet-" +
                           std::to_string(options.seed) + ".tsv";
  if (!tracer.write(path)) report.problem("could not write " + path);
  return report;
}

}  // namespace perfbench
