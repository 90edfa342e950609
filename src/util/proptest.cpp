#include "util/proptest.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <sstream>

// The property harness is a deliberate layering exception: it lives in util
// so every module can reuse it, but it must *drive* the protocols it
// fuzzes. Each upward include is individually accepted below; none of them
// leaks into util's headers except the three Scenario value types.
// cograd-lint: allow(R7) the harness executes CogCast to fuzz it end to end
#include "core/cogcast.h"
// cograd-lint: allow(R7) gossip epidemic runs are one of the fuzzed protocols
#include "core/gossip.h"
// cograd-lint: allow(R7) scenarios materialize SharedCoreAssignment instances
#include "sim/assignment.h"
// cograd-lint: allow(R7) the resume differential snapshots and restores worlds
#include "sim/checkpoint.h"
// cograd-lint: allow(R7) every trial is checked against the sim invariant suite
#include "sim/invariants.h"
// cograd-lint: allow(R7) scenarios randomize jamming adversaries
#include "sim/jamming.h"
// cograd-lint: allow(R7) trials construct the Network engine they execute on
#include "sim/network.h"
// cograd-lint: allow(R7) every trial is diffed against the reference engine
#include "sim/reference_network.h"
#include "util/sweep.h"

namespace cogradio {

namespace {

const char* name_of(ScnPattern p) {
  switch (p) {
    case ScnPattern::SharedCore: return "shared-core";
    case ScnPattern::Partitioned: return "partitioned";
    case ScnPattern::Pigeonhole: return "pigeonhole";
    case ScnPattern::Identity: return "identity";
    case ScnPattern::DynamicSharedCore: return "dynamic-shared-core";
    case ScnPattern::DynamicPigeonhole: return "dynamic-pigeonhole";
  }
  return "?";
}

const char* name_of(ScnProtocol p) {
  switch (p) {
    case ScnProtocol::Random: return "random";
    case ScnProtocol::CogCast: return "cogcast";
    case ScnProtocol::Gossip: return "gossip";
  }
  return "?";
}

const char* name_of(ScnJammer j) {
  switch (j) {
    case ScnJammer::None: return "none";
    case ScnJammer::Random: return "random";
    case ScnJammer::Sweep: return "sweep";
    case ScnJammer::Reactive: return "reactive";
  }
  return "?";
}

const char* name_of(ScnEngine e) {
  switch (e) {
    case ScnEngine::Plain: return "plain";
    case ScnEngine::Backoff: return "backoff";
    case ScnEngine::AllDelivered: return "all-delivered";
    case ScnEngine::CollisionLoss: return "collision-loss";
  }
  return "?";
}

std::unique_ptr<ChannelAssignment> build_assignment(const Scenario& s,
                                                    Rng rng) {
  const LabelMode labels = LabelMode::LocalRandom;
  switch (s.pattern) {
    case ScnPattern::SharedCore:
      return std::make_unique<SharedCoreAssignment>(s.n, s.c, s.k, labels, rng);
    case ScnPattern::Partitioned:
      return std::make_unique<PartitionedAssignment>(s.n, s.c, s.k, labels,
                                                     rng);
    case ScnPattern::Pigeonhole:
      return std::make_unique<PigeonholeAssignment>(s.n, s.c, s.k, labels, rng);
    case ScnPattern::Identity:
      return std::make_unique<IdentityAssignment>(s.n, s.c, labels, rng);
    case ScnPattern::DynamicSharedCore:
      return DynamicAssignment::shared_core(s.n, s.c, s.k, rng);
    case ScnPattern::DynamicPigeonhole:
      return DynamicAssignment::pigeonhole(s.n, s.c, s.k, rng);
  }
  return nullptr;
}

std::unique_ptr<Jammer> build_jammer(const Scenario& s, int total_channels,
                                     Rng rng) {
  switch (s.jammer) {
    case ScnJammer::None:
      return nullptr;
    case ScnJammer::Random:
      return std::make_unique<RandomJammer>(s.n, total_channels, s.jam_budget,
                                            rng);
    case ScnJammer::Sweep:
      return std::make_unique<SweepJammer>(s.n, total_channels, s.jam_budget);
    case ScnJammer::Reactive:
      return std::make_unique<ReactiveJammer>(s.n, total_channels,
                                              s.jam_budget);
  }
  return nullptr;
}

std::unique_ptr<Protocol> build_node(const Scenario& s, NodeId u, Rng rng) {
  switch (s.protocol) {
    case ScnProtocol::Random:
      return std::make_unique<RandomTrafficNode>(s.c, rng);
    case ScnProtocol::CogCast: {
      Message payload;
      payload.type = MessageType::Data;
      payload.a = 7;
      return std::make_unique<CogCastNode>(u, s.c, u == 0, payload, rng);
    }
    case ScnProtocol::Gossip:
      return std::make_unique<GossipNode>(u, s.c, s.n,
                                          static_cast<Value>(u) * 3 + 1, rng);
  }
  return nullptr;
}

struct RunOutcome {
  std::string violation;
  std::uint64_t fingerprint = 0;
  // Order-sensitive hash of TraceStats and every NodeActivity. The action
  // fingerprint deliberately ignores winner identity (so plain and backoff
  // engines can agree); the digest does not, which is what the reference
  // differential needs — a diverging winner draw changes
  // tx_success/deliveries and therefore this hash.
  std::uint64_t digest = 0;
};

std::uint64_t mix64(std::uint64_t h, std::int64_t v) {
  h ^= static_cast<std::uint64_t>(v) + 0x9e3779b97f4a7c15ull + (h << 6) +
       (h >> 2);
  return h;
}

// Either engine: Network derives each node's idle count, the reference
// counts it.
template <typename Engine>
std::uint64_t accounting_digest(const Engine& net) {
  const TraceStats& s = net.stats();
  std::uint64_t h = 0x517cc1b727220a95ull;
  for (const auto counter : kTraceStatsCounters) h = mix64(h, s.*counter);
  for (NodeId u = 0; u < net.num_nodes(); ++u) {
    const NodeActivity& a = net.activity(u);
    for (const std::int64_t v :
         {a.tx, a.tx_success, a.listen, a.received, a.idle, a.jammed})
      h = mix64(h, v);
  }
  return h;
}

// The run's coin streams, split from scn.salt in this fixed order, so
// every component of a materialization draws the same coins every time.
struct Streams {
  Rng assign;
  Rng proto;
  Rng jam;
  Rng fault;  // crash and outage windows
  std::uint64_t net_seed = 0;
};

Streams streams_of(const Scenario& scn) {
  Rng root(scn.salt);
  Streams s{root.split(1), root.split(2), root.split(3), root.split(4)};
  s.net_seed = root.split(5)();
  return s;
}

// Builds the scenario's FaultEngine schedule: its crashes and outages as
// Churn windows, then its FaultProfile. Crashes and outages hit distinct
// nodes, each draw shuffling the nodes still healthy and taking the first
// `count`: a crash is off from a uniform slot in [1, slots] on, an outage
// over a uniform [from, to) inside [1, slots]. The profile's coins are a
// stream of their own, so the same scenario replays the same windows.
FaultEngine build_fault_engine(const Scenario& scn) {
  Rng root(scn.salt);
  FaultEngine engine(scn.n, scn.c, root.split(6));
  Rng rng = streams_of(scn).fault;
  const Slot horizon = std::max(2, scn.slots);
  std::vector<bool> faulty(static_cast<std::size_t>(scn.n), false);
  const auto pick_healthy = [&](int count) {
    std::vector<NodeId> healthy;
    for (NodeId u = 0; u < scn.n; ++u)
      if (!faulty[static_cast<std::size_t>(u)]) healthy.push_back(u);
    rng.shuffle(healthy);
    healthy.resize(std::min(healthy.size(), static_cast<std::size_t>(count)));
    for (const NodeId u : healthy) faulty[static_cast<std::size_t>(u)] = true;
    return healthy;
  };
  for (const NodeId u : pick_healthy(scn.crashes))
    engine.add(u, FaultKind::Churn, rng.between(1, horizon));
  for (const NodeId u : pick_healthy(scn.outages)) {
    const Slot from = rng.between(1, horizon - 1);
    engine.add(u, FaultKind::Churn, from, rng.between(from + 1, horizon));
  }
  if (scn.faults.any()) engine.add_random(scn.faults, scn.slots);
  return engine;
}

// A fully materialized scenario: every component run_once (and the resume
// and reference differentials) steps, owned together so the twin world of
// a resume leg is built by the exact same code path — and therefore from
// the exact same coin streams — as the original.
template <typename Engine>
struct World {
  std::unique_ptr<ChannelAssignment> assignment;
  std::unique_ptr<Jammer> jammer;
  std::unique_ptr<FaultEngine> fault_engine;
  std::unique_ptr<InvariantChecker> checker;  // null for untapped legs
  // The checkpoint surface: the nodes themselves, never the checker's
  // taps (observation, not state).
  std::vector<std::unique_ptr<Protocol>> nodes;
  std::unique_ptr<Engine> net;
};

// Materializes the scenario on a Network or the reference, with `engine`
// (which may override scn.engine for the differential check). Every coin
// — assignment, protocols, jammer, faults, winner draws — is a fixed
// stream of scn.salt, so the same scenario materializes bit-identically
// every time. With `with_checker` every protocol is tapped; the caller
// attaches the checker.
template <typename Engine = Network>
World<Engine> materialize(const Scenario& scn, ScnEngine engine,
                          const CheckOptions& options, bool with_checker) {
  Streams streams = streams_of(scn);
  World<Engine> world;
  world.assignment = build_assignment(scn, streams.assign);
  world.jammer =
      build_jammer(scn, world.assignment->total_channels(), streams.jam);
  world.fault_engine = std::make_unique<FaultEngine>(build_fault_engine(scn));

  NetworkOptions opt;
  opt.seed = streams.net_seed;
  opt.loss_prob = scn.loss_prob;
  opt.testonly_fault_mutation = options.mutation;
  switch (engine) {
    case ScnEngine::Plain:
      break;
    case ScnEngine::Backoff:
      opt.emulate_backoff = true;
      opt.backoff = backoff_params_for(scn.n);
      break;
    case ScnEngine::AllDelivered:
      opt.collision = CollisionModel::AllDelivered;
      break;
    case ScnEngine::CollisionLoss:
      opt.collision = CollisionModel::CollisionLoss;
      break;
  }

  if (with_checker) world.checker = std::make_unique<InvariantChecker>();
  std::vector<Protocol*> protocols;  // what the network actually drives
  for (NodeId u = 0; u < scn.n; ++u) {
    world.nodes.push_back(build_node(
        scn, u, streams.proto.split(static_cast<std::uint64_t>(u))));
    Protocol& node = *world.nodes.back();
    protocols.push_back(with_checker ? world.checker->tap(node) : &node);
  }

  world.net = std::make_unique<Engine>(*world.assignment, protocols, opt);
  if (world.jammer) world.net->set_jammer(world.jammer.get());
  if (world.fault_engine->num_windows() > 0)
    world.net->set_fault_engine(world.fault_engine.get());
  return world;
}

// Runs the scenario to scn.slots under the oracle.
RunOutcome run_once(const Scenario& scn, ScnEngine engine,
                    const CheckOptions& options) {
  World<Network> world =
      materialize(scn, engine, options, /*with_checker=*/true);
  world.checker->attach(*world.net);
  for (int s = 0; s < scn.slots; ++s) world.net->step();

  RunOutcome out;
  out.fingerprint = world.checker->action_fingerprint();
  out.digest = accounting_digest(*world.net);
  if (!world.checker->ok()) out.violation = world.checker->first_violation();
  if (options.injections != nullptr)
    options.injections->record(world.net->stats());
  return out;
}

// The reference leg: the scenario, untapped, on the reference engine,
// reduced to the fingerprint and digest the primary run reports.
RunOutcome run_reference(const Scenario& scn) {
  World<ReferenceNetwork> world = materialize<ReferenceNetwork>(
      scn, scn.engine, CheckOptions{}, /*with_checker=*/false);
  ActionFingerprint fingerprint;
  world.net->set_observer([&](Slot slot, std::span<const ResolvedAction> acts) {
    fingerprint.fold(slot, acts);
  });
  for (int s = 0; s < scn.slots; ++s) world.net->step();
  return {"", fingerprint.value(), accounting_digest(*world.net)};
}

// Snapshot/restore composition of the resume differential: network
// accounting + engine RNG, jammer, fault-engine runtime state, then every
// node. Fixed order on both sides; CheckpointReader's section tags turn
// any drift into a named diagnostic.
void save_world(const World<Network>& world, CheckpointWriter& w) {
  world.net->save_state(w);
  if (world.jammer) world.jammer->save_state(w);
  world.fault_engine->save_state(w);
  for (const auto& node : world.nodes) node->save_state(w);
}

void restore_world(World<Network>& world, CheckpointReader& r) {
  world.net->restore_state(r);
  if (world.jammer) world.jammer->restore_state(r);
  world.fault_engine->restore_state(r);
  for (const auto& node : world.nodes) node->restore_state(r);
  r.expect_end();
}

// The resume leg: run a fresh world to scn.snap, snapshot it, restore the
// snapshot into a second fresh world, continue that twin to scn.slots, and
// return its accounting digest — which check_scenario requires to equal
// the uninterrupted run's. With `skew`, the snapshot restored is the one
// taken a slot *early* (a resume from the wrong slot boundary); the twin
// then replays a shifted coin stream and the digest compare must bite.
std::uint64_t run_resumed(const Scenario& scn, const CheckOptions& options,
                          bool skew) {
  World<Network> original =
      materialize(scn, scn.engine, options, /*with_checker=*/false);
  std::string early;  // state after snap - 1 slots, used by the skew leg
  for (int s = 0; s < scn.snap; ++s) {
    if (skew && s == scn.snap - 1) {
      CheckpointWriter w;
      save_world(original, w);
      early = w.bytes();
    }
    original.net->step();
  }
  CheckpointWriter w;
  save_world(original, w);

  World<Network> twin =
      materialize(scn, scn.engine, options, /*with_checker=*/false);
  CheckpointReader r(skew ? early : w.bytes());
  restore_world(twin, r);
  for (int s = scn.snap; s < scn.slots; ++s) twin.net->step();
  return accounting_digest(*twin.net);
}

}  // namespace

void RandomTrafficNode::save_state(CheckpointWriter& w) const {
  w.section("rtrf");
  w.rng(rng_);
}

void RandomTrafficNode::restore_state(CheckpointReader& r) {
  r.section("rtrf");
  r.rng(rng_);
}

Action RandomTrafficNode::on_slot(Slot) {
  const auto roll = rng_.below(10);
  if (roll == 0) return Action::idle();
  const auto label =
      static_cast<LocalLabel>(rng_.below(static_cast<std::uint64_t>(c_)));
  if (roll <= 4) {
    Message m;
    m.type = MessageType::Data;
    m.a = static_cast<std::int64_t>(rng_.below(1000));
    return Action::broadcast(label, m);
  }
  return Action::listen(label);
}

Scenario canonicalize(Scenario s) {
  s.n = std::clamp(s.n, 1, 64);
  s.c = std::clamp(s.c, 1, 8);
  s.k = std::clamp(s.k, 1, s.c);
  if (s.pattern == ScnPattern::Identity) s.k = s.c;
  // Jammers need budget < total channels, and Identity has exactly c of
  // them, so c - 1 is the safe cap across every assignment family.
  if (s.c <= 1) s.jammer = ScnJammer::None;
  if (s.jammer == ScnJammer::None)
    s.jam_budget = 0;
  else
    s.jam_budget = std::clamp(s.jam_budget, 1, s.c - 1);
  // Fading exists only on the one-winner engines; quantize so describe()
  // round-trips and shrinking is stable.
  if (s.engine == ScnEngine::AllDelivered ||
      s.engine == ScnEngine::CollisionLoss)
    s.loss_prob = 0.0;
  s.loss_prob =
      std::clamp(std::round(s.loss_prob * 16.0) / 16.0, 0.0, 0.5);
  s.slots = std::clamp(s.slots, 8, 512);
  s.crashes = std::clamp(s.crashes, 0, s.n);
  s.outages = std::clamp(s.outages, 0, std::max(0, s.n - s.crashes));
  // FaultEngine budgets: small per-kind counts keep schedules attributable
  // (add_random gives each faulted node one window); the burst is bounded
  // by the run so recovery is observable. A burst needs both nodes and
  // length — zeroing either zeroes both, so shrinking is stable.
  s.faults.deaf = std::clamp(s.faults.deaf, 0, 3);
  s.faults.mute = std::clamp(s.faults.mute, 0, 3);
  s.faults.babble = std::clamp(s.faults.babble, 0, 3);
  s.faults.feedback_drop = std::clamp(s.faults.feedback_drop, 0, 3);
  s.faults.churn = std::clamp(s.faults.churn, 0, 3);
  s.faults.burst_nodes = std::clamp(s.faults.burst_nodes, 0, s.n);
  s.faults.burst_len = std::clamp<Slot>(s.faults.burst_len, 0, s.slots / 2);
  if (s.faults.burst_nodes == 0 || s.faults.burst_len == 0) {
    s.faults.burst_nodes = 0;
    s.faults.burst_len = 0;
  }
  // Strictly inside the run: snap = 0 would make the resume leg a plain
  // restart and snap = slots would leave the twin nothing to replay —
  // neither exercises the contract.
  s.snap = std::clamp(s.snap, 1, s.slots - 1);
  return s;
}

Scenario generate_scenario(Rng& rng, bool with_faults) {
  Scenario s;
  s.n = 1 + static_cast<int>(rng.below(20));
  s.c = 1 + static_cast<int>(rng.below(6));
  s.k = 1 + static_cast<int>(rng.below(static_cast<std::uint64_t>(s.c)));
  s.pattern = static_cast<ScnPattern>(rng.below(6));
  s.protocol = static_cast<ScnProtocol>(rng.below(3));
  s.jammer = static_cast<ScnJammer>(rng.below(4));
  s.jam_budget = 1 + static_cast<int>(rng.below(static_cast<std::uint64_t>(s.c)));
  s.engine = static_cast<ScnEngine>(rng.below(4));
  s.loss_prob =
      rng.below(2) == 0 ? 0.0 : static_cast<double>(1 + rng.below(8)) / 16.0;
  s.slots = 16 + static_cast<int>(rng.below(240));
  s.crashes = static_cast<int>(rng.below(3));
  s.outages = static_cast<int>(rng.below(3));
  s.salt = rng();
  // Fault draws come strictly after every historical field, so enabling
  // them never perturbs the fault-free scenario of a (seed, trial) pair.
  if (with_faults) {
    s.faults.deaf = static_cast<int>(rng.below(3));
    s.faults.mute = static_cast<int>(rng.below(3));
    s.faults.babble = static_cast<int>(rng.below(3));
    s.faults.feedback_drop = static_cast<int>(rng.below(3));
    s.faults.churn = static_cast<int>(rng.below(3));
    if (rng.below(2) == 0) {
      s.faults.burst_nodes = 1 + static_cast<int>(rng.below(8));
      s.faults.burst_len = 4 + static_cast<Slot>(rng.below(32));
    }
  }
  // Snapshot slot for the resume differential, derived from the salt
  // instead of consuming a draw: both legacy (seed, trial) spaces —
  // fault-free and faulted — keep their exact historical coin streams, and
  // stripping a fault profile still recovers the fault-free scenario field
  // for field. canonicalize clamps it into the run.
  s.snap =
      1 + static_cast<int>((s.salt * 0xD1B54A32D192ED03ull) >> 56);
  return canonicalize(s);
}

Scenario scenario_for(std::uint64_t seed, int trial, bool with_faults) {
  Rng rng = trial_rng(seed, static_cast<std::uint64_t>(trial));
  return generate_scenario(rng, with_faults);
}

std::string describe(const Scenario& s) {
  std::ostringstream os;
  os << "n=" << s.n << " c=" << s.c << " k=" << s.k
     << " pattern=" << name_of(s.pattern) << " proto=" << name_of(s.protocol)
     << " jam=" << name_of(s.jammer);
  if (s.jammer != ScnJammer::None) os << "/" << s.jam_budget;
  os << " engine=" << name_of(s.engine) << " loss=" << s.loss_prob
     << " slots=" << s.slots << " crash=" << s.crashes
     << " outage=" << s.outages;
  if (s.faults.any()) {
    os << " faults=[deaf=" << s.faults.deaf << " mute=" << s.faults.mute
       << " babble=" << s.faults.babble
       << " fbdrop=" << s.faults.feedback_drop << " churn=" << s.faults.churn;
    if (s.faults.burst_nodes > 0)
      os << " burst=" << s.faults.burst_nodes << "x" << s.faults.burst_len;
    os << "]";
  }
  os << " snap=" << s.snap;
  os << " salt=0x" << std::hex << s.salt;
  return os.str();
}

std::string check_scenario(const Scenario& raw) {
  return check_scenario(raw, CheckOptions{});
}

std::string check_scenario(const Scenario& raw, const CheckOptions& options) {
  const Scenario scn = canonicalize(raw);
  const RunOutcome primary = run_once(scn, scn.engine, options);
  if (!primary.violation.empty())
    return primary.violation + " [" + name_of(scn.engine) + " engine]";

  // Reference differential: the engine must reproduce the plainly written
  // model (sim/reference_network.h) bit for bit on EVERY scenario — same
  // action stream AND the same stats/activity accounting, the reference's
  // counted idle against the engine's derived one. The fingerprint
  // deliberately ignores winner identity, so the digest (which hashes
  // tx_success/deliveries per node) is what catches a diverging winner or
  // fade draw. The reference models no testonly mutation, so a mutated run
  // skips this leg and is left to the invariant checker.
  if (options.mutation == TestonlyFaultMutation::None) {
    const RunOutcome ref = run_reference(scn);
    if (ref.fingerprint != primary.fingerprint || ref.digest != primary.digest)
      return "the engine diverged from the reference engine";
  }

  // Differential engine agreement: oblivious traffic must produce the
  // same action stream whether contention is resolved by a uniform winner
  // draw or by emulated decay backoff — the engines may only disagree on
  // coin-dependent outcomes (winner identity, deliveries), never on what
  // the nodes did. Fault schedules replay identically on both engines (all
  // schedule coins are spent at add time), so forced actions agree too.
  if (scn.protocol == ScnProtocol::Random &&
      (scn.engine == ScnEngine::Plain || scn.engine == ScnEngine::Backoff)) {
    const ScnEngine other = scn.engine == ScnEngine::Plain
                                ? ScnEngine::Backoff
                                : ScnEngine::Plain;
    // Same mutation, but injections are counted once (primary run only).
    CheckOptions alt_options = options;
    alt_options.injections = nullptr;
    const RunOutcome alt = run_once(scn, other, alt_options);
    if (!alt.violation.empty())
      return alt.violation + " [" + std::string(name_of(other)) + " engine]";
    if (alt.fingerprint != primary.fingerprint)
      return "plain and backoff-emulating engines diverged on oblivious "
             "traffic";
  }

  // Resume differential: snapshot at the salt-derived snap slot, restore
  // into a freshly materialized twin, continue to completion. The twin's
  // accounting digest hashes TraceStats plus every per-node activity
  // ledger — any post-restore action or winner-draw divergence moves a
  // counter — so digest equality is the bit-identical-resume oracle. A
  // CheckpointError (malformed snapshot, section drift) propagates and the
  // harness reports it as a failing trial.
  {
    const std::uint64_t resumed =
        run_resumed(scn, options, options.resume_skew);
    if (resumed != primary.digest)
      return "resumed run diverged from the uninterrupted control "
             "(snapshot at slot " +
             std::to_string(scn.snap) + " of " + std::to_string(scn.slots) +
             ")";
  }
  return "";
}

std::string fault_schedule_for(const Scenario& raw) {
  const Scenario scn = canonicalize(raw);
  return build_fault_engine(scn).serialize_schedule();
}

std::string reproducer_line(std::uint64_t seed, int trial, bool with_faults) {
  std::ostringstream os;
  os << "cograd check --seed " << seed << " --trial " << trial;
  if (with_faults) os << " --faults";
  return os.str();
}

namespace {

// Size-reducing transformations, biggest cuts first. Every candidate is
// canonical and differs from `s`; every transformation strictly reduces a
// component or flips a one-way simplification switch, so greedy descent
// terminates.
std::vector<Scenario> shrink_candidates(const Scenario& s) {
  std::vector<Scenario> out;
  auto push = [&](Scenario t) {
    t = canonicalize(t);
    if (!(t == s)) out.push_back(t);
  };
  {
    Scenario t = s;
    t.slots = s.slots / 2;
    push(t);
    t = s;
    t.slots = s.slots - 1;
    push(t);
  }
  {
    Scenario t = s;
    t.n = s.n / 2;
    push(t);
    t = s;
    t.n = s.n - 1;
    push(t);
  }
  if (s.crashes > 0 || s.outages > 0) {
    Scenario t = s;
    t.crashes = 0;
    t.outages = 0;
    push(t);
  }
  if (s.faults.any()) {
    // Biggest cut first: no engine faults at all, then drop just the
    // burst, then peel one window of one kind at a time.
    Scenario t = s;
    t.faults = FaultProfile{};
    push(t);
    if (s.faults.burst_nodes > 0) {
      t = s;
      t.faults.burst_nodes = 0;
      t.faults.burst_len = 0;
      push(t);
      t = s;
      t.faults.burst_len = s.faults.burst_len / 2;
      push(t);
    }
    for (int FaultProfile::*field :
         {&FaultProfile::deaf, &FaultProfile::mute, &FaultProfile::babble,
          &FaultProfile::feedback_drop, &FaultProfile::churn}) {
      if (s.faults.*field > 0) {
        t = s;
        --(t.faults.*field);
        push(t);
      }
    }
  }
  if (s.jammer != ScnJammer::None) {
    Scenario t = s;
    t.jammer = ScnJammer::None;
    push(t);
  }
  if (s.loss_prob > 0.0) {
    Scenario t = s;
    t.loss_prob = 0.0;
    push(t);
  }
  if (s.engine != ScnEngine::Plain) {
    Scenario t = s;
    t.engine = ScnEngine::Plain;
    push(t);
  }
  if (s.protocol != ScnProtocol::Random) {
    Scenario t = s;
    t.protocol = ScnProtocol::Random;
    push(t);
  }
  if (s.pattern != ScnPattern::SharedCore) {
    Scenario t = s;
    t.pattern = ScnPattern::SharedCore;
    push(t);
  }
  {
    Scenario t = s;
    t.c = s.c - 1;
    push(t);
    t = s;
    t.k = s.k - 1;
    push(t);
  }
  if (s.jam_budget > 1) {
    Scenario t = s;
    t.jam_budget = s.jam_budget - 1;
    push(t);
  }
  if (s.snap > 1) {
    // A resume divergence often localizes to the slots just after the
    // restore; pulling the snapshot earlier shrinks the prefix the
    // counterexample depends on.
    Scenario t = s;
    t.snap = s.snap / 2;
    push(t);
    t = s;
    t.snap = s.snap - 1;
    push(t);
  }
  return out;
}

}  // namespace

std::pair<Scenario, int> shrink_scenario(const Property& prop,
                                         Scenario failing, int budget) {
  Scenario cur = canonicalize(failing);
  int steps = 0;
  int evals = 0;
  bool progress = true;
  while (progress && evals < budget) {
    progress = false;
    for (const Scenario& cand : shrink_candidates(cur)) {
      if (evals >= budget) break;
      ++evals;
      if (!prop(cand).empty()) {
        cur = cand;
        ++steps;
        progress = true;
        break;  // restart from the biggest cuts
      }
    }
  }
  return {cur, steps};
}

PropReport run_property(const Property& prop, int trials, std::uint64_t seed,
                        int jobs, int max_reported, int shrink_budget,
                        bool with_faults) {
  // A throwing property counts as a failure, never an abort — shrinking
  // re-evaluates the property many times, so every call site needs this.
  const Property safe = [&prop](const Scenario& s) -> std::string {
    try {
      return prop(s);
    } catch (const std::exception& e) {
      return std::string("unexpected exception: ") + e.what();
    } catch (...) {
      return "unexpected non-standard exception";
    }
  };
  std::vector<std::string> results(
      static_cast<std::size_t>(trials > 0 ? trials : 0));
  ParallelSweep pool(jobs);
  pool.run(trials, [&](int t) {
    Rng rng = trial_rng(seed, static_cast<std::uint64_t>(t));
    const Scenario scn = generate_scenario(rng, with_faults);
    results[static_cast<std::size_t>(t)] = safe(scn);
  });

  PropReport rep;
  rep.trials = trials;
  for (int t = 0; t < trials; ++t) {
    const std::string& msg = results[static_cast<std::size_t>(t)];
    if (msg.empty()) continue;
    ++rep.failures;
    if (static_cast<int>(rep.failing.size()) >= max_reported) continue;
    PropFailure f;
    f.trial = t;
    f.original = scenario_for(seed, t, with_faults);
    auto [shrunk, steps] = shrink_scenario(safe, f.original, shrink_budget);
    f.shrunk = shrunk;
    f.shrink_steps = steps;
    const std::string shrunk_msg = safe(shrunk);
    // A flaky property can lose the failure under re-execution; report the
    // original message rather than pretending the shrunk form is clean.
    f.message = shrunk_msg.empty() ? msg : shrunk_msg;
    f.repro = reproducer_line(seed, t, with_faults);
    rep.failing.push_back(std::move(f));
  }
  return rep;
}

}  // namespace cogradio
