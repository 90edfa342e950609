// Tests for the property-based testing harness (harness/proptest.h):
// generator determinism and validity, the default invariant property over
// a seeded sweep, jobs-independence of the report, and counterexample
// shrinking converging to the known-minimal scenario of a synthetic
// property.
#include "harness/proptest.h"

#include <gtest/gtest.h>

#include <set>

#include "util/sweep.h"

namespace cogradio {
namespace {

TEST(PropTest, GeneratorIsPureInSeedAndTrial) {
  for (int t = 0; t < 20; ++t) {
    const Scenario a = scenario_for(7, t);
    const Scenario b = scenario_for(7, t);
    EXPECT_TRUE(a == b) << "trial " << t;
    EXPECT_EQ(describe(a), describe(b));
  }
  // Different trials must not all collapse to one scenario.
  std::set<std::string> distinct;
  for (int t = 0; t < 20; ++t) distinct.insert(describe(scenario_for(7, t)));
  EXPECT_GT(distinct.size(), 10u);
}

TEST(PropTest, GeneratedScenariosAreCanonical) {
  for (int t = 0; t < 200; ++t) {
    const Scenario s = scenario_for(3, t);
    EXPECT_TRUE(s == canonicalize(s)) << describe(s);
    EXPECT_GE(s.n, 1);
    EXPECT_GE(s.k, 1);
    EXPECT_LE(s.k, s.c);
    if (s.pattern == ScnPattern::Identity) {
      EXPECT_EQ(s.k, s.c);
    }
    if (s.jammer == ScnJammer::None) {
      EXPECT_EQ(s.jam_budget, 0);
    }
    if (s.engine == ScnEngine::AllDelivered ||
        s.engine == ScnEngine::CollisionLoss) {
      EXPECT_EQ(s.loss_prob, 0.0);
    }
    EXPECT_LE(s.crashes + s.outages, s.n);
  }
}

TEST(PropTest, EveryGeneratedScenarioMaterializes) {
  // check_scenario must never throw, whatever the generator produces.
  for (int t = 0; t < 24; ++t)
    EXPECT_NO_THROW((void)check_scenario(scenario_for(11, t))) << t;
}

TEST(PropTest, DefaultPropertySweepIsClean) {
  const PropReport rep = run_property(
      [](const Scenario& s) { return check_scenario(s); }, 24, 5, 2);
  EXPECT_TRUE(rep.ok()) << (rep.failing.empty()
                                ? "no detail"
                                : rep.failing.front().message + " | " +
                                      describe(rep.failing.front().shrunk));
  EXPECT_EQ(rep.trials, 24);
}

TEST(PropTest, ReportIsIdenticalForAnyJobCount) {
  // Use a synthetic partial-failure property so the failure path is
  // exercised too, without an expensive simulation per trial.
  const Property prop = [](const Scenario& s) {
    return s.n % 3 == 0 ? "n divisible by three" : "";
  };
  const PropReport serial = run_property(prop, 40, 9, 1);
  const PropReport wide = run_property(prop, 40, 9, 4);
  EXPECT_EQ(serial.failures, wide.failures);
  ASSERT_EQ(serial.failing.size(), wide.failing.size());
  for (std::size_t i = 0; i < serial.failing.size(); ++i) {
    EXPECT_EQ(serial.failing[i].trial, wide.failing[i].trial);
    EXPECT_TRUE(serial.failing[i].shrunk == wide.failing[i].shrunk);
    EXPECT_EQ(serial.failing[i].repro, wide.failing[i].repro);
  }
}

TEST(PropTest, ShrinkingFindsTheMinimalCounterexample) {
  // Fails iff n >= 6 and slots >= 20: the unique minimal failing scenario
  // has exactly n = 6 and slots = 20 with everything else simplified.
  const Property prop = [](const Scenario& s) {
    return (s.n >= 6 && s.slots >= 20) ? "too big" : "";
  };
  Scenario big;
  big.n = 40;
  big.c = 5;
  big.k = 3;
  big.slots = 300;
  big.protocol = ScnProtocol::Gossip;
  big.jammer = ScnJammer::Sweep;
  big.jam_budget = 2;
  big.engine = ScnEngine::Backoff;
  big.loss_prob = 0.25;
  big.crashes = 2;
  ASSERT_FALSE(prop(canonicalize(big)).empty());

  const auto [shrunk, steps] = shrink_scenario(prop, big);
  EXPECT_GT(steps, 0);
  EXPECT_EQ(shrunk.n, 6);
  EXPECT_EQ(shrunk.slots, 20);
  EXPECT_EQ(shrunk.jammer, ScnJammer::None);
  EXPECT_EQ(shrunk.engine, ScnEngine::Plain);
  EXPECT_EQ(shrunk.protocol, ScnProtocol::Random);
  EXPECT_EQ(shrunk.loss_prob, 0.0);
  EXPECT_EQ(shrunk.crashes, 0);
}

TEST(PropTest, ShrinkRespectsItsBudget) {
  int evals = 0;
  const Property prop = [&evals](const Scenario& s) {
    ++evals;
    return s.n >= 2 ? "fails" : "";
  };
  Scenario big;
  big.n = 64;
  big.slots = 512;
  (void)shrink_scenario(prop, big, /*budget=*/10);
  EXPECT_LE(evals, 10);
}

TEST(PropTest, ReproducerLineRoundTrips) {
  const PropFailure f{/*trial=*/17, {}, {}, 0, "", reproducer_line(99, 17)};
  EXPECT_EQ(f.repro, "cograd check --seed 99 --trial 17");
  EXPECT_EQ(reproducer_line(99, 17, /*with_faults=*/true),
            "cograd check --seed 99 --trial 17 --faults");
  // The scenario the line names is the one the sweep ran.
  EXPECT_TRUE(scenario_for(99, 17) == canonicalize(scenario_for(99, 17)));
}

// --- FaultProfile scenario dimension -----------------------------------------

TEST(PropTest, FaultDrawsNeverPerturbHistoricalScenarios) {
  // --faults appends draws strictly after every legacy field, so stripping
  // the profile from a faulted scenario recovers the fault-free one.
  int with_any = 0;
  for (int t = 0; t < 20; ++t) {
    const Scenario base = scenario_for(7, t);
    Scenario faulted = scenario_for(7, t, /*with_faults=*/true);
    if (faulted.faults.any()) ++with_any;
    faulted.faults = FaultProfile{};
    EXPECT_TRUE(faulted == base) << "trial " << t;
  }
  EXPECT_GT(with_any, 10);  // the fault dimension is actually populated
}

TEST(PropTest, FaultedScenariosAreCanonicalAndMaterialize) {
  for (int t = 0; t < 24; ++t) {
    const Scenario s = scenario_for(11, t, /*with_faults=*/true);
    EXPECT_TRUE(s == canonicalize(s)) << describe(s);
    EXPECT_LE(s.faults.burst_nodes, s.n);
    if (s.faults.burst_nodes == 0) {
      EXPECT_EQ(s.faults.burst_len, 0);
    }
    EXPECT_NO_THROW((void)check_scenario(s)) << t;
  }
}

TEST(PropTest, FaultedPropertySweepIsClean) {
  const PropReport rep =
      run_property([](const Scenario& s) { return check_scenario(s); }, 24, 5,
                   2, 8, 256, /*with_faults=*/true);
  EXPECT_TRUE(rep.ok()) << (rep.failing.empty()
                                ? "no detail"
                                : rep.failing.front().message + " | " +
                                      describe(rep.failing.front().shrunk));
}

TEST(PropTest, InjectionCountsAccumulateAcrossTrials) {
  FaultInjectionCounts counts;
  CheckOptions options;
  options.injections = &counts;
  for (int t = 0; t < 60 && !counts.all_kinds_exercised(); ++t)
    (void)check_scenario(scenario_for(1, t, /*with_faults=*/true), options);
  EXPECT_TRUE(counts.all_kinds_exercised());
  for (int k = 0; k < kNumFaultKinds; ++k)
    EXPECT_GT(counts.total(static_cast<FaultKind>(k)), 0) << k;
}

TEST(PropTest, ShrinkingReducesFaultProfilesToTheMinimalWindow) {
  // Fails iff any churn is scheduled (windows or burst): the minimal
  // counterexample keeps exactly one churn window and drops every other
  // fault along with the rest of the scenario.
  const Property prop = [](const Scenario& s) {
    return (s.faults.churn > 0 || s.faults.burst_nodes > 0) ? "has churn" : "";
  };
  Scenario big;
  big.n = 30;
  big.slots = 200;
  big.faults = FaultProfile{3, 3, 3, 3, 3, 8, 30};
  ASSERT_FALSE(prop(canonicalize(big)).empty());
  const auto [shrunk, steps] = shrink_scenario(prop, big);
  EXPECT_GT(steps, 0);
  EXPECT_EQ(shrunk.faults.churn + shrunk.faults.burst_nodes, 1);
  EXPECT_EQ(shrunk.faults.deaf, 0);
  EXPECT_EQ(shrunk.faults.mute, 0);
  EXPECT_EQ(shrunk.faults.babble, 0);
  EXPECT_EQ(shrunk.faults.feedback_drop, 0);
  EXPECT_EQ(shrunk.n, 1);
  EXPECT_EQ(shrunk.slots, 8);
}

TEST(PropTest, FaultScheduleSerializesForArtifacts) {
  Scenario s;
  s.faults.churn = 1;
  const std::string schedule = fault_schedule_for(s);
  EXPECT_NE(schedule.find("kind=churn"), std::string::npos);
  // Same scenario, same schedule — and no faults means no schedule.
  EXPECT_EQ(schedule, fault_schedule_for(s));
  s.faults = FaultProfile{};
  EXPECT_TRUE(fault_schedule_for(s).empty());
}

// FNV-1a over describe() of seed 1's trials [0, 256), one line each.
std::uint64_t scenario_space_digest(bool with_faults) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (int t = 0; t < 256; ++t)
    for (const char ch : describe(scenario_for(1, t, with_faults)) + "\n") {
      h ^= static_cast<unsigned char>(ch);
      h *= 0x100000001b3ull;
    }
  return h;
}

TEST(PropTest, ScenarioSpaceIsPinned) {
  // A (seed, trial) pair names one scenario forever: reproducers printed
  // by any earlier sweep must still rerun what they named. A change to a
  // draw, a clamp or the description moves these digests.
  EXPECT_EQ(scenario_space_digest(false), 0x11793b8e89f5b30full);
  EXPECT_EQ(scenario_space_digest(true), 0xca953fc5fb4469dbull);
}

TEST(PropTest, CrashAndOutageSchedulesArePinned) {
  // Crashes are Churn windows that never close (to=-1), outages Churn
  // windows [from, to), both ahead of the FaultProfile's windows.
  Scenario s;
  s.n = 6;
  s.slots = 40;
  s.crashes = 2;
  s.outages = 2;
  s.salt = 0x5eed;
  EXPECT_EQ(fault_schedule_for(s),
            "node=1 kind=churn from=6 to=-1\n"
            "node=5 kind=churn from=2 to=-1\n"
            "node=3 kind=churn from=8 to=31\n"
            "node=4 kind=churn from=21 to=30\n");
  const Scenario faulted = scenario_for(1, 11, /*with_faults=*/true);
  ASSERT_EQ(faulted.crashes, 1);
  ASSERT_EQ(faulted.outages, 1);
  EXPECT_EQ(fault_schedule_for(faulted),
            "node=3 kind=churn from=198 to=-1\n"
            "node=4 kind=churn from=9 to=26\n"
            "node=0 kind=mute from=24 to=102\n"
            "node=6 kind=feedback-drop from=150 to=185\n"
            "node=3 kind=churn from=150 to=155\n"
            "node=5 kind=churn from=193 to=202\n"
            "node=1 kind=churn from=193 to=202\n");
}

TEST(PropTest, OracleSeesCrashAndOutageWindows) {
  // Crashes and outages run on the FaultEngine, so the oracle's churn rule
  // polices them even without a fault profile: a radio that keeps acting
  // while churned out is caught.
  Scenario s;
  s.n = 6;
  s.slots = 40;
  s.crashes = 1;
  s.outages = 1;
  s.salt = 0x5eed;
  EXPECT_EQ(check_scenario(s), "");
  CheckOptions options;
  options.mutation = TestonlyFaultMutation::ChurnActs;
  EXPECT_NE(check_scenario(s, options), "");
}

TEST(PropTest, FailuresCarryShrunkScenarioAndRepro) {
  const Property prop = [](const Scenario& s) {
    return s.slots >= 10 ? "always for canonical slots" : "";
  };
  const PropReport rep = run_property(prop, 6, 2, 2, /*max_reported=*/3);
  EXPECT_EQ(rep.failures, 6);
  ASSERT_EQ(rep.failing.size(), 3u);  // capped at max_reported
  for (const PropFailure& f : rep.failing) {
    EXPECT_FALSE(f.message.empty());
    EXPECT_EQ(f.repro, reproducer_line(2, f.trial));
    EXPECT_FALSE(prop(f.shrunk).empty()) << "shrunk scenario must still fail";
    EXPECT_EQ(f.shrunk.slots, 10);  // slots floor under this property is 10
  }
}

}  // namespace
}  // namespace cogradio
