// Differential tests between the two slot-engine layouts (sim/network.h,
// EngineLayout): the structure-of-arrays hot path must be bit-identical to
// the per-node array-of-structs reference on every scenario family —
// identical ResolvedAction streams, TraceStats, and NodeActivity — because
// both consume the engine RNG in the documented draw order (DETERMINISM.md,
// "Engine layouts and the batched draw order").
//
// The families cover all three collision models, backoff emulation, fading,
// jamming, the full FaultEngine kind set, a dynamic assignment, and the
// sparse grouping fallback (channel universe too large for dense bitmaps).
// A separate suite pins the BatchClient interface against a per-node
// protocol twin generating the same traffic.
#include "sim/network.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <optional>
#include <ostream>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/assignment.h"
#include "sim/fault_engine.h"
#include "sim/jamming.h"
#include "util/proptest.h"
#include "util/rng.h"

namespace cogradio {
namespace {

// Everything observable from one run: the full resolved-action stream (one
// entry per node per slot, via the observer), final stats, and per-node
// activity counters.
struct RunTrace {
  std::vector<ResolvedAction> actions;
  TraceStats stats;
  std::vector<NodeActivity> activity;
};

struct Family {
  std::string name;
  CollisionModel collision = CollisionModel::OneWinner;
  bool backoff = false;
  double loss_prob = 0.0;
  bool jammed = false;
  bool faulted = false;
  bool dynamic = false;
};

// Print a family by name. gtest's default dump of an unprintable struct
// would show the raw bytes of `name`, including its buffer address, and
// so change the discovered ctest name whenever the heap layout moves.
void PrintTo(const Family& fam, std::ostream* os) { *os << fam.name; }

// One fixed randomized run of a family under the given layout. All seeds
// are pinned, so for a fixed family the layout is the *only* difference
// between the two runs being compared.
RunTrace run_family(const Family& fam, EngineLayout layout) {
  const int n = 48, c = 8, k = 2;
  const Slot slots = 64;

  std::unique_ptr<ChannelAssignment> assignment;
  if (fam.dynamic) {
    assignment = std::make_unique<DynamicAssignment>(
        n, c, k, 2 * c,
        [&](Rng slot_rng) {
          return std::make_unique<SharedCoreAssignment>(
              n, c, k, LabelMode::LocalRandom, slot_rng);
        },
        Rng(101));
  } else {
    assignment = std::make_unique<SharedCoreAssignment>(
        n, c, k, LabelMode::LocalRandom, Rng(101));
  }

  Rng seeder(202);
  std::vector<std::unique_ptr<RandomTrafficNode>> nodes;
  std::vector<Protocol*> protocols;
  for (NodeId u = 0; u < n; ++u) {
    nodes.push_back(std::make_unique<RandomTrafficNode>(
        c, seeder.split(static_cast<std::uint64_t>(u))));
    protocols.push_back(nodes.back().get());
  }

  NetworkOptions opt;
  opt.layout = layout;
  opt.seed = 303;
  opt.collision = fam.collision;
  opt.emulate_backoff = fam.backoff;
  opt.loss_prob = fam.loss_prob;
  Network net(*assignment, std::move(protocols), opt);

  std::optional<RandomJammer> jammer;
  if (fam.jammed) {
    jammer.emplace(n, assignment->total_channels(), /*budget=*/2, Rng(404));
    net.set_jammer(&*jammer);
  }
  std::optional<FaultEngine> faults;
  if (fam.faulted) {
    faults.emplace(n, c, Rng(505));
    FaultProfile profile;
    profile.deaf = 3;
    profile.mute = 3;
    profile.babble = 3;
    profile.feedback_drop = 3;
    profile.churn = 2;
    profile.burst_nodes = 4;
    profile.burst_len = 6;
    faults->add_random(profile, slots);
    net.set_fault_engine(&*faults);
  }

  RunTrace out;
  net.set_observer([&](Slot, std::span<const ResolvedAction> actions) {
    out.actions.insert(out.actions.end(), actions.begin(), actions.end());
  });
  for (Slot s = 0; s < slots; ++s) net.step();
  out.stats = net.stats();
  for (NodeId u = 0; u < n; ++u) out.activity.push_back(net.activity(u));
  return out;
}

void expect_identical(const RunTrace& soa, const RunTrace& aos) {
  EXPECT_EQ(soa.stats, aos.stats);
  EXPECT_EQ(soa.activity, aos.activity);
  ASSERT_EQ(soa.actions.size(), aos.actions.size());
  for (std::size_t i = 0; i < soa.actions.size(); ++i) {
    ASSERT_EQ(soa.actions[i], aos.actions[i]) << "action index " << i;
  }
}

class EngineLayoutDifferential : public ::testing::TestWithParam<Family> {};

TEST_P(EngineLayoutDifferential, SoAMatchesAoSBitForBit) {
  const Family& fam = GetParam();
  expect_identical(run_family(fam, EngineLayout::SoA),
                   run_family(fam, EngineLayout::AoS));
}

INSTANTIATE_TEST_SUITE_P(
    Families, EngineLayoutDifferential,
    ::testing::Values(
        Family{.name = "plain"},
        Family{.name = "backoff", .backoff = true},
        Family{.name = "fading", .loss_prob = 0.25},
        Family{.name = "jammed", .jammed = true},
        Family{.name = "faulted", .faulted = true},
        Family{.name = "all_delivered",
               .collision = CollisionModel::AllDelivered},
        Family{.name = "collision_loss",
               .collision = CollisionModel::CollisionLoss},
        Family{.name = "dynamic", .dynamic = true},
        Family{.name = "kitchen_sink",
               .loss_prob = 0.125,
               .jammed = true,
               .faulted = true}),
    [](const ::testing::TestParamInfo<Family>& info) {
      return info.param.name;
    });

// The sparse grouping fallback: a Partitioned universe with C = k + n(c-k)
// physical channels blows past the dense-bitmap affordability bound
// (ChannelBitmaps::affordable), so the SoA path must fall back to the
// counting-sort grouping — and still match the reference exactly.
TEST(EngineLayoutSparse, PartitionedUniverseMatchesAcrossLayouts) {
  const int n = 300, c = 16, k = 2;
  const Slot slots = 48;
  ASSERT_FALSE(ChannelBitmaps::affordable(k + n * (c - k), n));

  const auto run_once = [&](EngineLayout layout) {
    PartitionedAssignment assignment(n, c, k, LabelMode::LocalRandom, Rng(7));
    Rng seeder(8);
    std::vector<std::unique_ptr<RandomTrafficNode>> nodes;
    std::vector<Protocol*> protocols;
    for (NodeId u = 0; u < n; ++u) {
      nodes.push_back(std::make_unique<RandomTrafficNode>(
          c, seeder.split(static_cast<std::uint64_t>(u))));
      protocols.push_back(nodes.back().get());
    }
    NetworkOptions opt;
    opt.layout = layout;
    opt.seed = 9;
    opt.loss_prob = 0.125;
    Network net(assignment, std::move(protocols), opt);
    RunTrace out;
    net.set_observer([&](Slot, std::span<const ResolvedAction> actions) {
      out.actions.insert(out.actions.end(), actions.begin(), actions.end());
    });
    for (Slot s = 0; s < slots; ++s) net.step();
    out.stats = net.stats();
    for (NodeId u = 0; u < n; ++u) out.activity.push_back(net.activity(u));
    return out;
  };

  expect_identical(run_once(EngineLayout::SoA), run_once(EngineLayout::AoS));
}

// --- Batch-client twin --------------------------------------------------

// Deterministic feedback-oblivious traffic shared by the per-node protocol
// and the batch client: a pure hash of (slot, node) decides mode, label,
// and payload, so both interfaces generate byte-identical offered load.
struct ChatterDecision {
  Mode mode = Mode::Idle;
  LocalLabel label = 0;
};

ChatterDecision chatter(Slot slot, NodeId node, int c) {
  std::uint64_t h = static_cast<std::uint64_t>(slot) * 0x9E3779B97F4A7C15ull +
                    static_cast<std::uint64_t>(node) * 0xBF58476D1CE4E5B9ull;
  h ^= h >> 29;
  h *= 0x94D049BB133111EBull;
  h ^= h >> 32;
  ChatterDecision d;
  const std::uint64_t roll = h % 10;
  if (roll == 0) return d;  // idle
  d.mode = roll < 5 ? Mode::Broadcast : Mode::Listen;
  d.label = static_cast<LocalLabel>((h >> 8) % static_cast<std::uint64_t>(c));
  return d;
}

Message chatter_msg(Slot slot, NodeId node) {
  Message m;
  m.type = MessageType::Data;
  m.a = slot * 1000 + node;
  return m;
}

// What each traffic side accumulates from feedback; must agree exactly
// between the per-node and batch runs.
struct ChatterTally {
  std::int64_t tx_success = 0;
  std::int64_t jammed = 0;
  std::int64_t received = 0;
  std::int64_t received_payload_sum = 0;

  bool operator==(const ChatterTally&) const = default;
};

class ChatterNode : public Protocol {
 public:
  ChatterNode(NodeId id, int c, ChatterTally* tally)
      : id_(id), c_(c), tally_(tally) {}

  Action on_slot(Slot slot) override {
    const ChatterDecision d = chatter(slot, id_, c_);
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
    if (result.jammed) ++tally_->jammed;
    if (result.tx_success) ++tally_->tx_success;
    tally_->received += static_cast<std::int64_t>(result.received.size());
    for (const Message& m : result.received) tally_->received_payload_sum += m.a;
  }

  bool done() const override { return false; }

 private:
  NodeId id_;
  int c_;
  ChatterTally* tally_;
};

class ChatterClient : public BatchClient {
 public:
  ChatterClient(int n, int c, Slot slots, ChatterTally* tally)
      : n_(n), c_(c), slots_(slots), tally_(tally) {}

  void begin_slot(Slot slot, std::span<Mode> mode,
                  std::span<LocalLabel> label) override {
    for (NodeId u = 0; u < n_; ++u) {
      const ChatterDecision d = chatter(slot, u, c_);
      mode[static_cast<std::size_t>(u)] = d.mode;
      label[static_cast<std::size_t>(u)] = d.label;
    }
  }

  Message source_message(Slot slot, NodeId node) override {
    return chatter_msg(slot, node);
  }

  void end_slot(const BatchFeedback& fb) override {
    for (NodeId u = 0; u < n_; ++u) {
      const auto i = static_cast<std::size_t>(u);
      const std::uint8_t f = fb.flags[i];
      // A blanked node saw an empty SlotResult: ignore its other bits and
      // its rx view, exactly as the per-node path delivers it.
      if (f & slotflag::kFeedbackBlank) continue;
      if (f & slotflag::kJammed) ++tally_->jammed;
      if (f & slotflag::kTxSuccess) ++tally_->tx_success;
      const std::int32_t count = fb.rx_count[i];
      tally_->received += count;
      for (std::int32_t m = 0; m < count; ++m) {
        tally_->received_payload_sum +=
            fb.messages[static_cast<std::size_t>(fb.rx_offset[i] + m)].a;
      }
    }
    last_slot_ = fb.slot;
  }

  bool done() const override { return last_slot_ >= slots_; }

 private:
  int n_;
  int c_;
  Slot slots_;
  Slot last_slot_ = 0;
  ChatterTally* tally_;
};

// One input to the batch-vs-protocol twin below. `adversaries` attaches a
// RandomJammer and the full fault kind set; a run without them is the only
// one whose batch leg takes the word-scan collect.
struct TwinInput {
  const char* name;
  int n, c, k;
  Slot slots;
  CollisionModel collision = CollisionModel::OneWinner;
  double loss_prob = 0.0;
  bool adversaries = false;
};

struct TwinRun {
  TraceStats stats;
  std::vector<NodeActivity> activity;
  ChatterTally tally;
};

// Runs `in` through the batch interface (`batch`) or per-node protocols on
// `layout`: same assignment, seeds and offered load either way.
TwinRun run_twin(const TwinInput& in, bool batch, EngineLayout layout) {
  SharedCoreAssignment assignment(in.n, in.c, in.k, LabelMode::LocalRandom,
                                  Rng(33));
  ChatterTally tally;
  std::optional<ChatterClient> client;
  std::vector<std::unique_ptr<ChatterNode>> nodes;
  NetworkOptions opt;
  opt.layout = layout;
  opt.seed = 77;
  opt.collision = in.collision;
  opt.loss_prob = in.loss_prob;
  std::optional<Network> net;
  if (batch) {
    client.emplace(in.n, in.c, in.slots, &tally);
    net.emplace(assignment, *client, opt);
  } else {
    std::vector<Protocol*> protocols;
    for (NodeId u = 0; u < in.n; ++u) {
      nodes.push_back(std::make_unique<ChatterNode>(u, in.c, &tally));
      protocols.push_back(nodes.back().get());
    }
    net.emplace(assignment, std::move(protocols), opt);
  }
  std::optional<RandomJammer> jammer;
  std::optional<FaultEngine> faults;
  if (in.adversaries) {
    jammer.emplace(in.n, assignment.total_channels(), 2, Rng(44));
    net->set_jammer(&*jammer);
    faults.emplace(in.n, in.c, Rng(55));
    FaultProfile profile;
    profile.deaf = 4;
    profile.mute = 4;
    profile.babble = 4;
    profile.feedback_drop = 4;
    profile.churn = 3;
    profile.burst_nodes = 5;
    profile.burst_len = 8;
    faults->add_random(profile, in.slots);
    net->set_fault_engine(&*faults);
  }
  TwinRun out;
  for (Slot s = 0; s < in.slots; ++s) net->step();
  out.stats = net->stats();
  for (NodeId u = 0; u < in.n; ++u) out.activity.push_back(net->activity(u));
  out.tally = tally;
  return out;
}

// The batched-traffic interface must be a pure packaging change: a batch
// run and a per-node protocol run generating identical offered load see
// identical engine accounting and identical feedback content, on either
// layout.
TEST(EngineLayoutBatch, BatchClientMatchesProtocolTwin) {
  const TwinInput inputs[] = {
      // Jamming, fading, and the full fault kind set.
      {.name = "adversarial", .n = 64, .c = 8, .k = 2, .slots = 96,
       .loss_prob = 0.125, .adversaries = true},
      // Every listener's rx view spans its channel's whole message range.
      {.name = "all_delivered", .n = 64, .c = 8, .k = 2, .slots = 64,
       .collision = CollisionModel::AllDelivered},
      // No jammer and no fault engine: the batch leg's word-scan collect.
      {.name = "clean", .n = 4500, .c = 16, .k = 3, .slots = 24,
       .loss_prob = 0.125},
  };
  for (const TwinInput& in : inputs) {
    SCOPED_TRACE(in.name);
    const TwinRun batch = run_twin(in, /*batch=*/true, EngineLayout::SoA);
    const TwinRun soa = run_twin(in, /*batch=*/false, EngineLayout::SoA);
    const TwinRun aos = run_twin(in, /*batch=*/false, EngineLayout::AoS);

    EXPECT_EQ(batch.stats, soa.stats);
    EXPECT_EQ(batch.stats, aos.stats);
    EXPECT_EQ(batch.activity, soa.activity);
    EXPECT_EQ(batch.activity, aos.activity);
    EXPECT_EQ(batch.tally, soa.tally);
    EXPECT_EQ(batch.tally, aos.tally);

    // The run did something: traffic flowed and adversaries actually bit.
    EXPECT_GT(batch.stats.deliveries, 0);
    if (in.adversaries) {
      EXPECT_GT(batch.stats.jammed_node_slots, 0);
      EXPECT_GT(batch.stats.feedback_drops, 0);
    }
  }
}

// The batch interface is a SoA feature: constructing one on the AoS
// reference layout must be rejected loudly.
TEST(EngineLayoutBatch, BatchClientRequiresSoALayout) {
  const int n = 4, c = 2;
  IdentityAssignment assignment(n, c, LabelMode::Global, Rng(1));
  ChatterTally tally;
  ChatterClient client(n, c, 1, &tally);
  NetworkOptions opt;
  opt.layout = EngineLayout::AoS;
  EXPECT_THROW(Network(assignment, client, opt), std::invalid_argument);
}

}  // namespace
}  // namespace cogradio
