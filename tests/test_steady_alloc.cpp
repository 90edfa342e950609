// Steady-state allocations of the slot engine: once warm, Network::step
// makes no heap allocation (sim/network.h). Every per-slot buffer is
// sized at construction, or by the setter that attaches its reader, and
// reused, so 256 slots after 64 warm-up slots must allocate nothing:
//
//   * for per-node protocols and for a BatchClient;
//   * for a dense network below the engine's prefetch threshold (2^14
//     nodes, kPrefetchMinNodes in network.cpp) and a 1%-duty fleet at it;
//   * under each collision model, and under OneWinner with backoff
//     emulation, a RandomJammer or a ReactiveJammer, an observer, a
//     FaultEngine with every fault kind, or an assignment that changes
//     every slot (dynamic shared-core, dynamic pigeonhole, Markov
//     spectrum) in place of the static shared core.
//
// The fault engine's windows open during the warm-up and close after the
// measured window, or never, so its audit log does not grow inside it.
//
// Such an assignment redraws every node's row each slot, O(n) work even
// in the 1%-duty fleet, so its settings step 32 slots after 8 warm-up
// slots instead: every buffer it reuses has its size after its first
// draw, which its constructor makes.
//
// The binary replaces the global operator new/delete pairs with counting
// ones, the one portable way to see every allocation, those inside
// standard containers included; so it is a test binary of its own.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <optional>
#include <ostream>
#include <string>
#include <vector>

#include "chatter.h"
#include "sim/assignment.h"
#include "sim/fault_engine.h"
#include "sim/jamming.h"
#include "sim/network.h"
#include "sim/spectrum.h"

namespace {

std::atomic<std::uint64_t> g_allocs{0};

void* counted_alloc(std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

// Over-aligned requests keep their alignment: aligned_alloc wants a size
// that is a multiple of it.
void* counted_aligned_alloc(std::size_t size, std::align_val_t align) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  const auto a = static_cast<std::size_t>(align);
  const std::size_t rounded = (size + a - 1) / a * a;
  if (void* p = std::aligned_alloc(a, rounded ? rounded : a)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace cogradio {
namespace {

enum class Client { Protocols, Batch };
enum class Fleet { Dense, Duty };  // n = 256, every node; n = 2^14, 1% duty
enum class Setting {
  OneWinner,
  AllDelivered,
  CollisionLoss,
  Backoff,
  Jammer,
  Observer,
  DynamicSharedCore,
  DynamicPigeonhole,
  MarkovSpectrum,
  ReactiveJammer,
  Faults,
};

struct Case {
  Client client;
  Fleet fleet;
  Setting setting;
};

std::string case_name(const Case& c) {
  static const char* const kSettings[] = {
      "one_winner",          "all_delivered",      "collision_loss",
      "backoff",             "jammer",             "observer",
      "dynamic_shared_core", "dynamic_pigeonhole", "markov_spectrum",
      "reactive_jammer",     "faults"};
  return std::string(c.client == Client::Batch ? "batch" : "protocols") +
         (c.fleet == Fleet::Duty ? "_duty_n16384_" : "_dense_n256_") +
         kSettings[static_cast<int>(c.setting)];
}

// Print a case by name, not as gtest's dump of its bytes.
void PrintTo(const Case& c, std::ostream* os) { *os << case_name(c); }

class SteadyStateAlloc : public ::testing::TestWithParam<Case> {};

TEST_P(SteadyStateAlloc, NoneAfterWarmup) {
  const Case& in = GetParam();
  const bool duty = in.fleet == Fleet::Duty;
  const int n = duty ? 1 << 14 : 256;
  const Chatter traffic{.c = 16, .duty = duty ? 100 : 1};
  const bool redraws = in.setting == Setting::DynamicSharedCore ||
                       in.setting == Setting::DynamicPigeonhole ||
                       in.setting == Setting::MarkovSpectrum;
  const int warmup = redraws ? 8 : 64, window = redraws ? 32 : 256;

  std::unique_ptr<ChannelAssignment> assignment;
  if (in.setting == Setting::DynamicSharedCore)
    assignment = DynamicAssignment::shared_core(n, traffic.c, 4, Rng(1));
  else if (in.setting == Setting::DynamicPigeonhole)
    assignment = DynamicAssignment::pigeonhole(n, traffic.c, 4, Rng(1));
  else if (in.setting == Setting::MarkovSpectrum)
    assignment = std::make_unique<MarkovSpectrumAssignment>(
        n, traffic.c, 4, SpectrumParams{.band = 24}, Rng(1));
  else
    assignment = std::make_unique<SharedCoreAssignment>(
        n, traffic.c, 4, LabelMode::LocalRandom, Rng(1));
  NetworkOptions opt;
  opt.seed = 35;
  opt.loss_prob = 0.125;  // the fade coins run too
  if (in.setting == Setting::AllDelivered)
    opt.collision = CollisionModel::AllDelivered;
  if (in.setting == Setting::CollisionLoss)
    opt.collision = CollisionModel::CollisionLoss;
  opt.emulate_backoff = in.setting == Setting::Backoff;

  ChatterTally tally;
  ChatterClient client(n, traffic, warmup + window, &tally);
  std::vector<std::unique_ptr<ChatterNode>> nodes;
  std::vector<Protocol*> protocols;
  for (NodeId u = 0; u < n; ++u) {
    nodes.push_back(std::make_unique<ChatterNode>(u, traffic, &tally));
    protocols.push_back(nodes.back().get());
  }
  std::optional<Network> net;
  if (in.client == Client::Batch)
    net.emplace(*assignment, client, opt);
  else
    net.emplace(*assignment, protocols, opt);
  std::unique_ptr<Jammer> jammer;
  if (in.setting == Setting::Jammer)
    jammer = std::make_unique<RandomJammer>(n, assignment->total_channels(), 2,
                                            Rng(44));
  if (in.setting == Setting::ReactiveJammer)
    jammer = std::make_unique<cogradio::ReactiveJammer>(
        n, assignment->total_channels(), 2);
  if (jammer) net->set_jammer(jammer.get());
  // Every 32nd node from offset k takes fault kind k, over a window that
  // opens mid-warm-up and closes after the measured window, or never.
  std::optional<FaultEngine> faults;
  if (in.setting == Setting::Faults) {
    faults.emplace(n, traffic.c, Rng(45));
    for (int k = 0; k < kNumFaultKinds; ++k)
      for (NodeId u = k; u < n; u += 32)
        faults->add(u, static_cast<FaultKind>(k), warmup / 2,
                    u % 64 < 32 ? warmup + window + 1 : kNoSlot);
    net->set_fault_engine(&*faults);
  }
  std::int64_t observed = 0;
  if (in.setting == Setting::Observer)
    net->set_observer([&](Slot, std::span<const ResolvedAction> actions) {
      for (const ResolvedAction& a : actions) observed += a.tx_success;
    });

  for (int s = 0; s < warmup; ++s) net->step();
  const std::uint64_t before = g_allocs.load(std::memory_order_relaxed);
  for (int s = 0; s < window; ++s) net->step();
  EXPECT_EQ(g_allocs.load(std::memory_order_relaxed) - before, 0u);

  // The run contended, and did work of the kind the setting names.
  const TraceStats& stats = net->stats();
  EXPECT_GT(stats.collision_events, 0);
  EXPECT_GT(stats.deliveries, 0);
  if (in.setting == Setting::Backoff) {
    EXPECT_GT(stats.micro_slots, 0);
  }
  if (jammer) {
    EXPECT_GT(stats.jammed_node_slots, 0);
  }
  if (in.setting == Setting::Observer) {
    EXPECT_GT(observed, 0);
  }
  if (faults) {
    EXPECT_GT(stats.deaf_node_slots, 0);
    EXPECT_GT(stats.mute_node_slots, 0);
    EXPECT_GT(stats.babble_node_slots, 0);
    EXPECT_GT(stats.feedback_drop_node_slots, 0);
    EXPECT_GT(stats.churned_node_slots, 0);
  }
}

std::vector<Case> all_cases() {
  std::vector<Case> cases;
  for (const Client client : {Client::Protocols, Client::Batch})
    for (const Fleet fleet : {Fleet::Dense, Fleet::Duty})
      for (const Setting setting :
           {Setting::OneWinner, Setting::AllDelivered, Setting::CollisionLoss,
            Setting::Backoff, Setting::Jammer, Setting::Observer,
            Setting::DynamicSharedCore, Setting::DynamicPigeonhole,
            Setting::MarkovSpectrum, Setting::ReactiveJammer,
            Setting::Faults})
        cases.push_back({client, fleet, setting});
  return cases;
}

INSTANTIATE_TEST_SUITE_P(
    Engine, SteadyStateAlloc, ::testing::ValuesIn(all_cases()),
    [](const ::testing::TestParamInfo<Case>& info) {
      return case_name(info.param);
    });

}  // namespace
}  // namespace cogradio
