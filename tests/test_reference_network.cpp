// Differential tests between the slot engine (sim/network.h) and the
// reference engine (sim/reference_network.h): the engine must be
// bit-identical to the plainly written model on every scenario family —
// identical ResolvedAction streams, TraceStats, and NodeActivity, the
// reference's counted idle against the engine's derived one — because
// both consume the engine RNG in the documented draw order (DETERMINISM.md,
// "The slot engine, its reference, and the draw order").
//
// The families cover all three collision models, backoff emulation, fading,
// jamming, the full FaultEngine kind set, a dynamic assignment, and a
// channel universe far larger than the set of nodes acting in a slot.
// A separate suite pins the BatchClient interface against a per-node
// protocol twin generating the same traffic, both against the reference,
// and both against the same runs over a forwarding assignment that lends
// the engine no label table.
#include "sim/reference_network.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <memory>
#include <optional>
#include <ostream>
#include <set>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "chatter.h"
#include "harness/proptest.h"
#include "sim/assignment.h"
#include "sim/fault_engine.h"
#include "sim/jamming.h"
#include "sim/network.h"
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
  std::int64_t touched_words_read = 0;  // Network only
};

// The touched-map words a run's grouping must read: per slot, the
// distinct 64-channel words holding a channel some unjammed node acted on.
std::int64_t expected_touched_words(const RunTrace& run, int n) {
  std::int64_t words = 0;
  for (std::size_t slot = 0; slot < run.actions.size();
       slot += static_cast<std::size_t>(n)) {
    std::set<Channel> touched;
    for (std::size_t i = slot; i < slot + static_cast<std::size_t>(n); ++i) {
      const ResolvedAction& r = run.actions[i];
      if (r.mode != Mode::Idle && !r.jammed) touched.insert(r.channel / 64);
    }
    words += static_cast<std::int64_t>(touched.size());
  }
  return words;
}

struct Family {
  std::string name;
  CollisionModel collision = CollisionModel::OneWinner;
  bool backoff = false;
  double loss_prob = 0.0;
  bool jammed = false;
  bool faulted = false;
  bool dynamic = false;
  // With `faulted`: the fault engine is detached before this slot (0 =
  // never), while windows that never close keep babblers, churned nodes
  // and feedback-drop nodes flagged.
  Slot detach_faults_at = 0;
};

// The nodes that hold a never-closing window in a detach family.
constexpr NodeId kDetachBabblers[] = {1, 2};
constexpr NodeId kDetachChurned[] = {3, 4, 5};
constexpr NodeId kDetachFeedbackDrop[] = {6, 7, 8, 9, 10, 11, 12, 13};

// Print a family by name. gtest's default dump of an unprintable struct
// would show the raw bytes of `name`, including its buffer address, and
// so change the discovered ctest name whenever the heap layout moves.
void PrintTo(const Family& fam, std::ostream* os) { *os << fam.name; }

// The channel universe a family runs in, with the seeds of its run.
struct Universe {
  int n, c, k;
  Slot slots;
  bool partitioned = false;  // Partitioned: C = k + n(c-k) channels
  std::uint64_t assignment_seed, traffic_seed, engine_seed;
  int jam_budget = 2;  // channels the RandomJammer cuts per node per slot
  // Broadcasts carry AggPayload items (SizedTrafficNode), so a landed
  // message's word count tells a client's payload from a babbler's garbage.
  bool sized_payloads = false;
};

// n = 48 on a shared-core assignment with C = 2c = 16 channels: most
// channels are contended.
constexpr Universe kSharedCore{.n = 48, .c = 8, .k = 2, .slots = 64,
                               .assignment_seed = 101, .traffic_seed = 202,
                               .engine_seed = 303};
// n = 300 on a Partitioned assignment with C = 4202 channels: most
// channels go untouched in any slot, nearly every touched one holds a
// single node, and the touched map's summary spans two words. The jammer
// cuts a sixteenth of the universe per node, so it still bites: about one
// action in sixteen lands on a jammed channel.
constexpr Universe kPartitioned{.n = 300, .c = 16, .k = 2, .slots = 48,
                                .partitioned = true, .assignment_seed = 7,
                                .traffic_seed = 8, .engine_seed = 9,
                                .jam_budget = 4202 / 16,
                                .sized_payloads = true};

// RandomTrafficNode whose broadcasts carry 0-3 payload items, so each
// landed message's wire size depends on whose payload it is.
class SizedTrafficNode : public RandomTrafficNode {
 public:
  using RandomTrafficNode::RandomTrafficNode;
  Action on_slot(Slot slot) override {
    Action action = RandomTrafficNode::on_slot(slot);
    if (action.mode == Mode::Broadcast) {
      action.msg.type = MessageType::Value;
      const auto items = static_cast<std::size_t>(action.msg.a % 4);
      action.msg.payload.items.resize(items);
    }
    return action;
  }
};

// One fixed randomized run of a family on `Engine` in `universe`. All
// seeds are pinned, so for a fixed family and universe the engine is the
// *only* difference between the two runs being compared.
template <typename Engine>
RunTrace run_family(const Family& fam, const Universe& universe) {
  const int n = universe.n, c = universe.c, k = universe.k;
  const Slot slots = universe.slots;

  std::unique_ptr<ChannelAssignment> assignment;
  const Rng assignment_rng(universe.assignment_seed);
  if (fam.dynamic) {
    assignment = DynamicAssignment::shared_core(n, c, k, assignment_rng);
  } else if (universe.partitioned) {
    assignment = std::make_unique<PartitionedAssignment>(
        n, c, k, LabelMode::LocalRandom, assignment_rng);
  } else {
    assignment = std::make_unique<SharedCoreAssignment>(
        n, c, k, LabelMode::LocalRandom, assignment_rng);
  }

  Rng seeder(universe.traffic_seed);
  std::vector<std::unique_ptr<RandomTrafficNode>> nodes;
  std::vector<Protocol*> protocols;
  for (NodeId u = 0; u < n; ++u) {
    const Rng rng = seeder.split(static_cast<std::uint64_t>(u));
    if (universe.sized_payloads)
      nodes.push_back(std::make_unique<SizedTrafficNode>(c, rng));
    else
      nodes.push_back(std::make_unique<RandomTrafficNode>(c, rng));
    protocols.push_back(nodes.back().get());
  }

  NetworkOptions opt;
  opt.seed = universe.engine_seed;
  opt.collision = fam.collision;
  opt.emulate_backoff = fam.backoff;
  opt.loss_prob = fam.loss_prob;
  Engine net(*assignment, std::move(protocols), opt);

  std::optional<RandomJammer> jammer;
  if (fam.jammed) {
    jammer.emplace(n, assignment->total_channels(), universe.jam_budget,
                   Rng(404));
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
    if (fam.detach_faults_at > 0) {
      const Slot from = fam.detach_faults_at - 8;
      for (const NodeId u : kDetachBabblers)
        faults->add(u, FaultKind::Babble, from);
      for (const NodeId u : kDetachChurned)
        faults->add(u, FaultKind::Churn, from);
      for (const NodeId u : kDetachFeedbackDrop)
        faults->add(u, FaultKind::FeedbackDrop, from);
    }
    net.set_fault_engine(&*faults);
  }

  RunTrace out;
  net.set_observer([&](Slot, std::span<const ResolvedAction> actions) {
    out.actions.insert(out.actions.end(), actions.begin(), actions.end());
  });
  for (Slot s = 1; s <= slots; ++s) {
    if (s == fam.detach_faults_at) net.set_fault_engine(nullptr);
    net.step();
  }
  out.stats = net.stats();
  for (NodeId u = 0; u < n; ++u) out.activity.push_back(net.activity(u));
  if constexpr (std::is_same_v<Engine, Network>)
    out.touched_words_read = net.touched_words_read();
  return out;
}

void expect_identical(const RunTrace& engine, const RunTrace& reference) {
  EXPECT_EQ(engine.stats, reference.stats);
  EXPECT_EQ(engine.activity, reference.activity);
  ASSERT_EQ(engine.actions.size(), reference.actions.size());
  for (std::size_t i = 0; i < engine.actions.size(); ++i) {
    ASSERT_EQ(engine.actions[i], reference.actions[i]) << "action index " << i;
  }
}

// A detach family's run: in the slot before the detach, babblers, churned
// nodes and feedback-drop nodes were flagged, some of them idle, so the
// engine wrote fault and flag bytes outside its active list; from the
// detach on, no node carries a fault byte.
void expect_detached_mid_fault(const RunTrace& run, int n, Slot detach) {
  const auto slot_of = [&](Slot slot) {
    return std::span(run.actions)
        .subspan(static_cast<std::size_t>((slot - 1) * n),
                 static_cast<std::size_t>(n));
  };
  int babbling = 0, churned = 0, dropped = 0, idle = 0;
  for (const ResolvedAction& r : slot_of(detach - 1)) {
    babbling += (r.fault & faultflag::kBabble) != 0;
    churned += (r.fault & faultflag::kChurnedOut) != 0;
    dropped += (r.fault & faultflag::kFeedbackDrop) != 0;
    idle += r.fault != 0 && r.mode == Mode::Idle;
  }
  EXPECT_GT(babbling, 0);
  EXPECT_GT(churned, 0);
  EXPECT_GT(dropped, 0);
  EXPECT_GT(idle, churned);  // a flagged node idled by its own choice
  const auto total = static_cast<Slot>(run.actions.size()) / n;
  for (Slot slot = detach; slot <= total; ++slot)
    for (const ResolvedAction& r : slot_of(slot))
      ASSERT_EQ(r.fault, 0) << "slot " << slot << " node " << r.node;
}

class ReferenceDifferential : public ::testing::TestWithParam<Family> {};

TEST_P(ReferenceDifferential, MatchesBitForBit) {
  const Family& fam = GetParam();
  const RunTrace engine = run_family<Network>(fam, kSharedCore);
  expect_identical(engine, run_family<ReferenceNetwork>(fam, kSharedCore));
  EXPECT_EQ(engine.touched_words_read,
            expected_touched_words(engine, kSharedCore.n));
  if (fam.detach_faults_at > 0)
    expect_detached_mid_fault(engine, kSharedCore.n, fam.detach_faults_at);
}

// The families that run in both universes; "dynamic" redraws a shared
// core, so it runs in kSharedCore only.
const Family kFamilies[] = {
    Family{.name = "plain"},
    Family{.name = "backoff", .backoff = true},
    Family{.name = "fading", .loss_prob = 0.25},
    Family{.name = "jammed", .jammed = true},
    Family{.name = "faulted", .faulted = true},
    Family{.name = "all_delivered", .collision = CollisionModel::AllDelivered},
    Family{.name = "collision_loss",
           .collision = CollisionModel::CollisionLoss},
    Family{.name = "kitchen_sink",
           .loss_prob = 0.125,
           .jammed = true,
           .faulted = true},
    Family{.name = "faults_detached", .faulted = true, .detach_faults_at = 24},
};

std::string family_name(const ::testing::TestParamInfo<Family>& info) {
  return info.param.name;
}

INSTANTIATE_TEST_SUITE_P(Families, ReferenceDifferential,
                         ::testing::ValuesIn([] {
                           std::vector<Family> all(std::begin(kFamilies),
                                                   std::end(kFamilies));
                           all.push_back({.name = "dynamic", .dynamic = true});
                           return all;
                         }()),
                         family_name);

// A Partitioned universe: C = k + n(c-k) physical channels, so most
// channels go untouched in any slot and the engine grouping's touched map
// spans dozens of words — and the result must still match the reference
// exactly. OneWinner with fading on RandomTrafficNode's own traffic.
TEST(ReferenceSparse, PartitionedUniverseMatchesReference) {
  Universe universe = kPartitioned;
  universe.sized_payloads = false;
  const Family fam{.name = "fading", .loss_prob = 0.125};
  expect_identical(run_family<Network>(fam, universe),
                   run_family<ReferenceNetwork>(fam, universe));
}

// Every family in the Partitioned universe, where a slot's channels are
// mostly lone broadcasters and listeners: the engine resolves those runs
// by their contention alone (a broadcaster-less run is skipped, a lone
// broadcaster spends only its coin and its accounting), and the result
// must still match the reference's full resolution, draw for draw.
class ReferenceSparseDifferential : public ::testing::TestWithParam<Family> {};

TEST_P(ReferenceSparseDifferential, MatchesBitForBit) {
  const Family& fam = GetParam();
  const RunTrace engine = run_family<Network>(fam, kPartitioned);
  expect_identical(engine, run_family<ReferenceNetwork>(fam, kPartitioned));
  // The grouping read only the words holding this slot's channels: none
  // of the universe's other words, and nothing an earlier slot left set.
  EXPECT_EQ(engine.touched_words_read,
            expected_touched_words(engine, kPartitioned.n));
  // The adversaries actually bit.
  if (fam.jammed) {
    EXPECT_GT(engine.stats.jammed_node_slots, 0);
  }
  if (fam.faulted) {
    EXPECT_GT(engine.stats.babble_node_slots, 0);
  }
  if (fam.detach_faults_at > 0)
    expect_detached_mid_fault(engine, kPartitioned.n, fam.detach_faults_at);
}

INSTANTIATE_TEST_SUITE_P(SparseFamilies, ReferenceSparseDifferential,
                         ::testing::ValuesIn(kFamilies), family_name);

// --- Batch-client twin --------------------------------------------------

// Forwards every call to an inner assignment but lends no table(), so
// the engine reads the label map the other two ways: from its own
// construction-time snapshot (static inner) or one global_channel call
// per acting node (dynamic inner).
class ForwardingAssignment : public ChannelAssignment {
 public:
  explicit ForwardingAssignment(ChannelAssignment& inner)
      : ChannelAssignment(inner.num_nodes(), inner.channels_per_node(),
                          inner.min_overlap(), inner.total_channels()),
        inner_(inner) {}

  bool is_dynamic() const override { return inner_.is_dynamic(); }
  void begin_slot(Slot slot) override { inner_.begin_slot(slot); }
  Channel global_channel(NodeId node, LocalLabel label) const override {
    return inner_.global_channel(node, label);
  }

 private:
  ChannelAssignment& inner_;
};

// One input to the batch-vs-protocol twin below. `adversaries` attaches a
// RandomJammer and the full fault kind set. `dynamic` re-draws the
// shared-core assignment every slot; `partitioned` swaps it for a
// Partitioned one, whose channel space grows with n. `duty` is the
// chatter's duty period.
struct TwinInput {
  const char* name;
  int n, c, k;
  Slot slots;
  CollisionModel collision = CollisionModel::OneWinner;
  double loss_prob = 0.0;
  bool adversaries = false;
  bool dynamic = false;
  bool partitioned = false;
  int duty = 1;
};

struct TwinRun {
  TraceStats stats;
  std::vector<NodeActivity> activity;
  ChatterTally tally;
  std::vector<ResolvedAction> actions;  // observer stream, when observed
};

// Who drives a twin run: a batch client or per-node protocols on Network,
// or per-node protocols on the reference.
enum class TwinLeg { Batch, Protocols, Reference };

// Runs `in` on `leg`: same assignment, seeds and offered load either way.
// With `lend_table` false the engine sees the assignment only through a
// ForwardingAssignment; `observe` records the observer stream.
TwinRun run_twin(const TwinInput& in, TwinLeg leg, bool lend_table = true,
                 bool observe = false) {
  std::unique_ptr<ChannelAssignment> table;
  if (in.dynamic)
    table = DynamicAssignment::shared_core(in.n, in.c, in.k, Rng(33));
  else if (in.partitioned)
    table = std::make_unique<PartitionedAssignment>(
        in.n, in.c, in.k, LabelMode::LocalRandom, Rng(33));
  else
    table = std::make_unique<SharedCoreAssignment>(
        in.n, in.c, in.k, LabelMode::LocalRandom, Rng(33));
  std::optional<ForwardingAssignment> forwarding;
  ChannelAssignment& assignment =
      lend_table ? *table : forwarding.emplace(*table);
  ChatterTally tally;
  const Chatter traffic{.c = in.c, .duty = in.duty};
  ChatterClient client(in.n, traffic, in.slots, &tally);
  std::vector<std::unique_ptr<ChatterNode>> nodes;
  std::vector<Protocol*> protocols;
  for (NodeId u = 0; u < in.n; ++u) {
    nodes.push_back(std::make_unique<ChatterNode>(u, traffic, &tally));
    protocols.push_back(nodes.back().get());
  }
  NetworkOptions opt;
  opt.seed = 77;
  opt.collision = in.collision;
  opt.loss_prob = in.loss_prob;
  std::optional<RandomJammer> jammer;
  std::optional<FaultEngine> faults;
  if (in.adversaries) {
    jammer.emplace(in.n, assignment.total_channels(), 2, Rng(44));
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
  }
  TwinRun out;
  const auto drive = [&](auto& net) {
    if (jammer) net.set_jammer(&*jammer);
    if (faults) net.set_fault_engine(&*faults);
    if (observe)
      net.set_observer([&](Slot, std::span<const ResolvedAction> actions) {
        out.actions.insert(out.actions.end(), actions.begin(), actions.end());
      });
    for (Slot s = 0; s < in.slots; ++s) net.step();
    out.stats = net.stats();
    for (NodeId u = 0; u < in.n; ++u) out.activity.push_back(net.activity(u));
  };
  if (leg == TwinLeg::Batch) {
    Network net(assignment, client, opt);
    drive(net);
  } else if (leg == TwinLeg::Protocols) {
    Network net(assignment, protocols, opt);
    drive(net);
  } else {
    ReferenceNetwork net(assignment, protocols, opt);
    drive(net);
  }
  out.tally = tally;
  return out;
}

// The batched-traffic interface must be a pure packaging change: a batch
// run and a per-node protocol run generating identical offered load see
// identical engine accounting, feedback content and observer stream, and
// both match the reference. The observed reference run checks the
// engine's grouping and the channel its observer derives from each label.
TEST(ReferenceBatch, BatchClientMatchesProtocolTwin) {
  const TwinInput inputs[] = {
      // Jamming, fading, and the full fault kind set.
      {.name = "adversarial", .n = 64, .c = 8, .k = 2, .slots = 96,
       .loss_prob = 0.125, .adversaries = true},
      // Every listener's rx view spans its channel's whole message range.
      {.name = "all_delivered", .n = 64, .c = 8, .k = 2, .slots = 64,
       .collision = CollisionModel::AllDelivered},
      // No jammer and no fault engine, at 4500 nodes.
      {.name = "clean", .n = 4500, .c = 16, .k = 3, .slots = 24,
       .loss_prob = 0.125},
      // A fresh label table every slot, re-read after each begin_slot.
      {.name = "dynamic", .n = 64, .c = 8, .k = 2, .slots = 48,
       .loss_prob = 0.125, .adversaries = true, .dynamic = true},
      // C = 2c = 80 channels: the touched-channel map spans two words.
      {.name = "two_touched_words", .n = 96, .c = 40, .k = 3, .slots = 48,
       .loss_prob = 0.125},
      // C = k + n(c-k) = 1202 channels, far more than the ~180 nodes
      // acting per slot: most channels go untouched.
      {.name = "partitioned", .n = 200, .c = 8, .k = 2, .slots = 32,
       .loss_prob = 0.125, .adversaries = true, .partitioned = true},
      // A 1%-duty fleet at the engine's prefetch threshold (2^14 nodes,
      // kPrefetchMinNodes in network.cpp): the prefetching gather and
      // resolve walks, on the mostly idle load perfbench's duty_fleet runs.
      {.name = "duty_fleet", .n = 1 << 14, .c = 16, .k = 4, .slots = 32,
       .loss_prob = 0.125, .duty = 100},
  };
  for (const TwinInput& in : inputs) {
    SCOPED_TRACE(in.name);
    const TwinRun batch = run_twin(in, TwinLeg::Batch);
    const TwinRun protocols = run_twin(in, TwinLeg::Protocols);
    const TwinRun reference = run_twin(in, TwinLeg::Reference,
                                       /*lend_table=*/true, /*observe=*/true);

    EXPECT_EQ(batch.stats, protocols.stats);
    EXPECT_EQ(batch.stats, reference.stats);
    EXPECT_EQ(batch.activity, protocols.activity);
    EXPECT_EQ(batch.activity, reference.activity);
    EXPECT_EQ(batch.tally, protocols.tally);
    EXPECT_EQ(batch.tally, reference.tally);

    // The run did something: traffic flowed and adversaries actually bit.
    EXPECT_GT(batch.stats.deliveries, 0);
    if (in.adversaries) {
      EXPECT_GT(batch.stats.jammed_node_slots, 0);
      EXPECT_GT(batch.stats.feedback_drops, 0);
    }
    // A duty-cycled fleet stays mostly idle: at most 2% of its node-slots act.
    if (in.duty > 1) {
      std::int64_t acting = 0;
      for (const NodeActivity& a : batch.activity) acting += in.slots - a.idle;
      EXPECT_LE(acting * 50, std::int64_t{in.n} * in.slots);
    }

    // Borrowed table vs none: the same engine runs, observed, over the
    // assignment itself and over a forwarding wrapper that lends no table
    // (snapshot path when static, per-node calls when dynamic).
    std::vector<ResolvedAction> streams[2];  // [batch_leg]
    for (const bool batch_leg : {true, false}) {
      SCOPED_TRACE(batch_leg ? "batch client" : "per-node protocols");
      const TwinLeg leg = batch_leg ? TwinLeg::Batch : TwinLeg::Protocols;
      const TwinRun lent =
          run_twin(in, leg, /*lend_table=*/true, /*observe=*/true);
      const TwinRun forwarded =
          run_twin(in, leg, /*lend_table=*/false, /*observe=*/true);
      EXPECT_EQ(lent.stats, forwarded.stats);
      EXPECT_EQ(lent.activity, forwarded.activity);
      EXPECT_EQ(lent.tally, forwarded.tally);
      EXPECT_EQ(lent.actions, forwarded.actions);
      EXPECT_EQ(lent.actions.size(),
                static_cast<std::size_t>(in.n) * static_cast<std::size_t>(in.slots));
      // Attaching the observer changes nothing it observes.
      EXPECT_EQ(lent.stats, batch.stats);
      EXPECT_EQ(lent.activity, batch.activity);
      streams[batch_leg] = lent.actions;
    }
    // Both clients resolve every node-slot identically, and as the
    // reference does.
    EXPECT_EQ(streams[0], streams[1]);
    EXPECT_EQ(reference.actions, streams[0]);
  }
}

}  // namespace
}  // namespace cogradio
