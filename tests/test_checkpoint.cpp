// sim/checkpoint.h + serve/journal.h: the crash-consistency substrate.
//
// Covers the codec (primitive round trips, bounds checks, section tags),
// the sealed file header (magic/schema/size/checksum each rejected
// independently), the atomic file round trip, the resume-equivalence
// contract through the property harness (including the skew leg that
// proves the oracle bites), and the job journal's lifecycle records,
// torn-tail tolerance, and interior-corruption rejection.
#include "sim/checkpoint.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "serve/journal.h"
#include "sim/assignment.h"
#include "sim/fault_engine.h"
#include "sim/jamming.h"
#include "sim/network.h"
#include "util/proptest.h"

namespace cogradio {
namespace {

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void spill(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

// Frames `body` as one journal record line, CRC and all, the way
// JobJournal appends it.
std::string journal_line(const std::string& body) {
  char crc[17];
  std::snprintf(crc, sizeof crc, "%016llx",
                static_cast<unsigned long long>(fnv1a64(body)));
  return std::string("{\"crc\":\"") + crc + "\",\"body\":" + body + "}\n";
}

TEST(CheckpointCodec, PrimitivesRoundTrip) {
  CheckpointWriter w;
  w.section("test");
  w.u8(0xAB);
  w.u32(0xDEADBEEFu);
  w.u64(0x0123456789ABCDEFull);
  w.i64(-42);
  w.f64(-3.25);
  w.boolean(true);
  std::string hostile("hello\0world", 11);  // embedded NUL, explicit length
  hostile += '\xFF';
  w.str(hostile);
  Rng rng(7);
  rng();  // advance so the state is not the seed-fresh one
  w.rng(rng);

  CheckpointReader r(w.bytes());
  r.section("test");
  EXPECT_EQ(r.u8(), 0xAB);
  EXPECT_EQ(r.u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.u64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(r.i64(), -42);
  EXPECT_DOUBLE_EQ(r.f64(), -3.25);
  EXPECT_TRUE(r.boolean());
  EXPECT_EQ(r.str(), hostile);
  Rng restored(1);
  r.rng(restored);
  r.expect_end();
  // The restored stream must continue exactly where the original will.
  EXPECT_EQ(restored(), rng());
  EXPECT_EQ(restored(), rng());
}

TEST(CheckpointCodec, SectionMismatchThrows) {
  CheckpointWriter w;
  w.section("aaaa");
  CheckpointReader r(w.bytes());
  EXPECT_THROW(r.section("bbbb"), CheckpointError);
}

TEST(CheckpointCodec, TruncatedReadThrows) {
  CheckpointWriter w;
  w.u32(7);
  CheckpointReader r(w.bytes());
  EXPECT_THROW(r.u64(), CheckpointError);
}

TEST(CheckpointCodec, TrailingBytesFailExpectEnd) {
  CheckpointWriter w;
  w.u8(1);
  w.u8(2);
  CheckpointReader r(w.bytes());
  (void)r.u8();
  EXPECT_THROW(r.expect_end(), CheckpointError);
}

TEST(CheckpointCodec, LengthGuardRejectsOversizedCounts) {
  // A forged count that the remaining payload cannot possibly hold must be
  // rejected before any resize happens.
  CheckpointWriter w;
  w.u64(1u << 30);
  CheckpointReader r(w.bytes());
  EXPECT_THROW(r.length(8), CheckpointError);
}

TEST(CheckpointHeader, SealOpenRoundTrips) {
  const std::string payload = "payload bytes \x01\x02\x00 end";
  EXPECT_EQ(open_checkpoint(seal_checkpoint(payload)), payload);
}

TEST(CheckpointHeader, RejectsEveryCorruptionIndependently) {
  const std::string sealed = seal_checkpoint("some payload, long enough");
  // Bad magic.
  {
    std::string bad = sealed;
    bad[0] ^= 0x20;
    EXPECT_THROW(open_checkpoint(bad), CheckpointError);
  }
  // Foreign schema, the previous one included.
  {
    std::string bad = sealed;
    bad[8] = static_cast<char>(bad[8] + 1);
    EXPECT_THROW(open_checkpoint(bad), CheckpointError);
    bad[8] = 1;
    try {
      open_checkpoint(bad);
      ADD_FAILURE() << "a schema-1 checkpoint was accepted";
    } catch (const CheckpointError& e) {
      EXPECT_STREQ(e.what(),
                   "checkpoint rejected: schema 1, this binary writes 2");
    }
  }
  // Truncation: declared size no longer matches the carried bytes.
  {
    std::string bad = sealed.substr(0, sealed.size() - 3);
    EXPECT_THROW(open_checkpoint(bad), CheckpointError);
  }
  // Payload bit flip: checksum mismatch.
  {
    std::string bad = sealed;
    bad[bad.size() - 2] ^= 0x10;
    EXPECT_THROW(open_checkpoint(bad), CheckpointError);
  }
}

TEST(CheckpointFile, SaveLoadRoundTripsAndMissingFileThrows) {
  const std::string path = "ckpt_roundtrip_test.bin";
  const std::string payload = std::string("abc\0\xff payload", 13);
  save_checkpoint_file(path, payload);
  EXPECT_EQ(load_checkpoint_file(path), payload);
  std::remove(path.c_str());
  EXPECT_THROW(load_checkpoint_file(path), CheckpointError);
}

// --- the network section ---------------------------------------------------

// Three nodes of random traffic over a fixed assignment.
struct SmallNetwork {
  IdentityAssignment assignment{3, 2, LabelMode::Global, Rng(1)};
  std::vector<std::unique_ptr<RandomTrafficNode>> nodes;
  std::unique_ptr<Network> net;

  SmallNetwork() {
    std::vector<Protocol*> protocols;
    for (NodeId u = 0; u < 3; ++u) {
      nodes.push_back(std::make_unique<RandomTrafficNode>(2, Rng(10 + u)));
      protocols.push_back(nodes.back().get());
    }
    net = std::make_unique<Network>(assignment, std::move(protocols));
  }
};

// The engine stores no idle counts (idle is derived from the slot count on
// read), so each node's checkpointed idle entry is written as 0, and a
// snapshot carrying any other value was not written by this engine.
TEST(CheckpointNetwork, NonZeroStoredIdleIsRejected) {
  SmallNetwork written;
  for (int s = 0; s < 40; ++s) written.net->step();
  const NodeActivity saved = written.net->activity(0);
  ASSERT_GT(saved.idle, 0);
  CheckpointWriter w;
  written.net->save_state(w);
  const std::string payload = w.bytes();

  const auto restore = [](const std::string& bytes) {
    SmallNetwork fresh;
    CheckpointReader r(open_checkpoint(seal_checkpoint(bytes)));
    fresh.net->restore_state(r);
    return fresh.net->activity(0);
  };
  EXPECT_EQ(restore(payload), saved);

  // Node 0's record follows the section tag, the node count and the
  // TraceStats: tx, tx_success, listen, received, idle, jammed.
  CheckpointWriter prefix;
  prefix.section("netw");
  prefix.u32(3);
  save_trace_stats(prefix, written.net->stats());
  const std::size_t idle_at = prefix.bytes().size() + 4 * 8;
  ASSERT_EQ(payload.substr(idle_at, 8), std::string(8, '\0'));
  std::string forged = payload;
  forged[idle_at] = 1;
  EXPECT_THROW(restore(forged), CheckpointError);
}

// Nor does any run produce a negative counter, more wins than broadcasts,
// or more active slots than slots (from which activity() would derive a
// negative idle count), so a re-sealed snapshot carrying one is rejected.
TEST(CheckpointNetwork, ImpossibleActivityRecordIsRejected) {
  SmallNetwork written;
  for (int s = 0; s < 40; ++s) written.net->step();
  const NodeActivity saved = written.net->activity(0);
  CheckpointWriter w;
  written.net->save_state(w);
  const std::string payload = w.bytes();
  CheckpointWriter prefix;
  prefix.section("netw");
  prefix.u32(3);
  save_trace_stats(prefix, written.net->stats());

  // Sets node 0's `field` (tx, tx_success, listen, received, idle, jammed)
  // to `value`, re-seals the payload and restores it into a fresh network.
  const auto restore_forged = [&](int field, std::int64_t value) {
    CheckpointWriter counter;
    counter.i64(value);
    std::string forged = payload;
    forged.replace(prefix.bytes().size() + 8 * static_cast<std::size_t>(field),
                   8, counter.bytes());
    SmallNetwork fresh;
    CheckpointReader r(open_checkpoint(seal_checkpoint(forged)));
    fresh.net->restore_state(r);
  };
  EXPECT_NO_THROW(restore_forged(0, saved.tx));  // the record as written
  EXPECT_THROW(restore_forged(3, -1), CheckpointError);  // received < 0
  EXPECT_THROW(restore_forged(1, saved.tx + 1), CheckpointError);
  EXPECT_THROW(restore_forged(0, 1000), CheckpointError);  // 1000 tx > 40 slots
}

// A reactive jammer remembers at most `budget` distinct channels per node,
// each in [0, C), so a snapshot carrying a longer history, a repeated
// channel or a channel outside the universe was not written by one.
TEST(CheckpointJammer, ForgedReactiveHistoryIsRejected) {
  // Two nodes; node 0 remembers channel 3, node 1 the forged `node1`.
  const auto payload = [](const std::vector<std::int64_t>& node1) {
    CheckpointWriter w;
    w.section("xjam");
    w.u64(2);
    w.u64(1);
    w.i64(3);
    w.u64(node1.size());
    for (const std::int64_t ch : node1) w.i64(ch);
    return w.bytes();
  };
  // Restores into a fresh jammer over C = 8 with budget 2 and returns
  // node 1's jam set for the next slot.
  const auto restore = [](const std::string& bytes) {
    ReactiveJammer fresh(2, 8, 2);
    CheckpointReader r(bytes);
    fresh.restore_state(r);
    r.expect_end();
    fresh.begin_slot(3);
    const std::span<const Channel> set = fresh.jam_set(1);
    return std::vector<Channel>(set.begin(), set.end());
  };

  // Node 1 seen on channel 5, then 6: its history is {6, 5}, newest first.
  ReactiveJammer written(2, 8, 2);
  written.observe(1, std::vector<Channel>{3, 5});
  written.observe(2, std::vector<Channel>{kNoChannel, 6});
  CheckpointWriter w;
  written.save_state(w);
  ASSERT_EQ(w.bytes(), payload({6, 5}));
  EXPECT_EQ(restore(w.bytes()), (std::vector<Channel>{6, 5}));

  EXPECT_THROW(restore(payload({6, 5, 4})), CheckpointError);  // > budget
  EXPECT_THROW(restore(payload({6, 6})), CheckpointError);     // repeated
  EXPECT_THROW(restore(payload({8})), CheckpointError);        // >= C
  EXPECT_THROW(restore(payload({-1})), CheckpointError);       // < 0
}

// A fault engine's windows and log entries are ones add() could have made:
// a node in [0, n), a byte naming a FaultKind, a start at slot 1 or later
// and, for a babbler, a stuck label in [0, c) (kNoChannel otherwise). A
// snapshot carrying anything else was not written by one, and restoring it
// would index the per-node arrays out of bounds on the next begin_slot.
TEST(CheckpointFaultEngine, ForgedWindowIsRejected) {
  // One window and one log entry on an engine over n = 4, c = 3.
  struct Fields {
    std::int64_t node = 1;
    std::uint8_t kind = static_cast<std::uint8_t>(FaultKind::Churn);
    std::int64_t from = 2;
    std::int64_t label = kNoChannel;
    std::int64_t log_node = 1;
    std::uint8_t log_kind = static_cast<std::uint8_t>(FaultKind::Churn);
  };
  const auto payload = [](const Fields& f) {
    CheckpointWriter w;
    w.section("flte");
    w.u32(4);
    w.u32(3);
    w.rng(Rng(7));
    w.u64(1);
    w.i64(f.node);
    w.u8(f.kind);
    w.i64(f.from);
    w.i64(5);
    w.i64(f.label);
    w.u64(1);
    w.i64(2);
    w.i64(f.log_node);
    w.u8(f.log_kind);
    w.boolean(true);
    w.i64(kNoSlot);
    return w.bytes();
  };
  // Restores into a fresh engine and returns node 1's flags in slot 4.
  const auto restore = [](const std::string& bytes) {
    FaultEngine fresh(4, 3, Rng(1));
    CheckpointReader r(bytes);
    fresh.restore_state(r);
    r.expect_end();
    fresh.begin_slot(4);
    return fresh.flags(1);
  };

  FaultEngine written(4, 3, Rng(7));
  written.add(1, FaultKind::Churn, 2, 5);
  for (Slot s = 1; s <= 3; ++s) written.begin_slot(s);
  CheckpointWriter w;
  written.save_state(w);
  ASSERT_EQ(w.bytes(), payload({}));
  EXPECT_EQ(restore(w.bytes()), faultflag::kChurnedOut);

  const auto babble = static_cast<std::uint8_t>(FaultKind::Babble);
  EXPECT_EQ(restore(payload({.kind = babble, .label = 2})),
            faultflag::kBabble);
  EXPECT_THROW(restore(payload({.node = 100000})), CheckpointError);
  EXPECT_THROW(restore(payload({.node = -1})), CheckpointError);
  EXPECT_THROW(restore(payload({.kind = kNumFaultKinds})), CheckpointError);
  EXPECT_THROW(restore(payload({.from = 0})), CheckpointError);
  EXPECT_THROW(restore(payload({.kind = babble, .label = 3})),
               CheckpointError);
  EXPECT_THROW(restore(payload({.kind = babble, .label = -1})),
               CheckpointError);
  EXPECT_THROW(restore(payload({.label = 0})), CheckpointError);
  EXPECT_THROW(restore(payload({.log_node = 4})), CheckpointError);
  EXPECT_THROW(restore(payload({.log_kind = 9})), CheckpointError);
}

// --- resume equivalence through the property harness ----------------------

Scenario resume_scenario() {
  Scenario s;
  s.n = 12;
  s.c = 4;
  s.k = 2;
  s.protocol = ScnProtocol::CogCast;
  s.jammer = ScnJammer::Random;
  s.jam_budget = 1;
  s.slots = 48;
  s.snap = 17;
  s.crashes = 1;
  s.salt = 0xBEEF;
  return s;
}

TEST(ResumeEquivalence, CheckScenarioHoldsOnAFixedScenario) {
  // check_scenario runs the resume differential on every scenario: this
  // pins one deliberately busy configuration (CogCast + jammer + crash
  // fault) as a deterministic unit-level instance.
  EXPECT_EQ(check_scenario(resume_scenario()), "");
}

TEST(ResumeEquivalence, SkewedRestoreIsCaught) {
  // Restoring the snapshot taken one slot early must be flagged — this is
  // the unit-level half of the `cograd check --testonly-mutation
  // resume-skew` WILL_FAIL leg.
  CheckOptions options;
  options.resume_skew = true;
  const std::string msg = check_scenario(resume_scenario(), options);
  EXPECT_NE(msg.find("resumed run diverged"), std::string::npos) << msg;
}

// --- job journal ----------------------------------------------------------

JobSpec small_spec(std::uint64_t seed) {
  JobSpec spec;
  spec.n = 12;
  spec.c = 4;
  spec.k = 2;
  spec.seed = seed;
  return spec;
}

TEST(JobJournal, LifecycleRoundTripsThroughRecovery) {
  const std::string path = "journal_roundtrip_test.log";
  std::remove(path.c_str());
  const std::string snapshot("snapshot \0\x01 bytes", 17);
  const JobResult result = run_job(small_spec(5));
  {
    JobJournal journal(path);
    journal.submitted(1, 100, small_spec(5));
    journal.started(1);
    journal.checkpoint(1, snapshot);
    journal.done(1, result);
    journal.clean_shutdown();
    // The daemon came back and accepted more work: a lifecycle record
    // after the marker means the journal is no longer "clean".
    journal.submitted(2, 101, small_spec(6));
  }
  const JournalRecovery rec = read_journal(path);
  EXPECT_EQ(rec.records, 6);
  EXPECT_EQ(rec.torn_bytes, 0);
  EXPECT_FALSE(rec.clean_shutdown)
      << "lifecycle records after the marker must clear it";
  ASSERT_EQ(rec.jobs.size(), 2u);
  EXPECT_EQ(rec.jobs[0].seq, 1);
  EXPECT_EQ(rec.jobs[0].client_id, 100);
  EXPECT_TRUE(rec.jobs[0].started);
  EXPECT_TRUE(rec.jobs[0].done);
  EXPECT_EQ(rec.jobs[0].checkpoint, snapshot);
  EXPECT_EQ(rec.jobs[0].result_json, job_result_to_json(result));
  EXPECT_EQ(rec.jobs[0].spec.seed, 5u);
  EXPECT_FALSE(rec.jobs[1].started);
  EXPECT_FALSE(rec.jobs[1].done);
  EXPECT_EQ(rec.next_seq, 3);
  std::remove(path.c_str());
}

TEST(JobJournal, CleanShutdownAsFinalRecordSticks) {
  const std::string path = "journal_clean_test.log";
  std::remove(path.c_str());
  {
    JobJournal journal(path);
    journal.submitted(1, 100, small_spec(5));
    journal.done(1, run_job(small_spec(5)));
    journal.clean_shutdown();
  }
  EXPECT_TRUE(read_journal(path).clean_shutdown);
  std::remove(path.c_str());
}

TEST(JobJournal, TornTailToleratedAndRepairedOnReopen) {
  const std::string path = "journal_torn_test.log";
  std::remove(path.c_str());
  {
    JobJournal journal(path);
    journal.submitted(1, 100, small_spec(5));
  }
  const std::string committed = slurp(path);
  spill(path, committed + "{\"crc\":\"0000tornrecord");

  // The reader tolerates and counts the torn record...
  const JournalRecovery rec = read_journal(path);
  EXPECT_EQ(rec.records, 1);
  EXPECT_GT(rec.torn_bytes, 0);
  ASSERT_EQ(rec.jobs.size(), 1u);

  // ...and reopening for append truncates it back to the committed bytes.
  { JobJournal journal(path); }
  EXPECT_EQ(slurp(path), committed);
  EXPECT_EQ(read_journal(path).torn_bytes, 0);
  std::remove(path.c_str());
}

TEST(JobJournal, InteriorCorruptionThrows) {
  const std::string path = "journal_corrupt_test.log";
  std::remove(path.c_str());
  {
    JobJournal journal(path);
    journal.submitted(1, 100, small_spec(5));
    journal.started(1);
  }
  std::string bytes = slurp(path);
  // Flip one byte inside the first record's body: the CRC must catch it.
  bytes[40] ^= 0x20;
  spill(path, bytes);
  EXPECT_THROW(read_journal(path), CheckpointError);
  std::remove(path.c_str());
}

TEST(JobJournal, RetiredShardsKeyIsRejected) {
  // No migration: a submitted record whose job spec still carries a
  // retired knob (the shard count, or the engine layout) fails recovery
  // through the unknown-key path.
  const std::string path = "journal_shards_test.log";
  std::remove(path.c_str());
  {
    JobJournal journal(path);
    journal.submitted(1, 100, small_spec(5));
  }
  const std::string line = slurp(path);
  const std::string marker = "\"body\":";
  const std::size_t body_at = line.find(marker) + marker.size();
  std::string body = line.substr(body_at, line.size() - body_at - 2);
  // Re-framing the untouched body must still recover, so the rejection
  // below is down to the key alone.
  spill(path, journal_line(body));
  ASSERT_EQ(read_journal(path).jobs.size(), 1u);

  const std::string anchor = "\"pattern\":\"shared-core\"";
  const std::size_t at = body.find(anchor);
  ASSERT_NE(at, std::string::npos) << body;
  for (const auto& [key, member] :
       {std::pair<std::string, std::string>{"shards", "\"shards\":1"},
        {"layout", "\"layout\":\"soa\""}}) {
    SCOPED_TRACE(key);
    std::string retired = body;
    retired.insert(at + anchor.size(), "," + member);
    spill(path, journal_line(retired));
    try {
      read_journal(path);
      ADD_FAILURE() << "a journal carrying the retired key was accepted";
    } catch (const CheckpointError& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("bad job spec: unknown job key '" + key + "'"),
                std::string::npos)
          << what;
    }
  }
  std::remove(path.c_str());
}

TEST(JobJournal, DuplicateAndUnknownSeqRejected) {
  const std::string dup = "journal_dup_test.log";
  std::remove(dup.c_str());
  {
    JobJournal journal(dup);
    journal.submitted(1, 100, small_spec(5));
    journal.submitted(1, 101, small_spec(6));
  }
  EXPECT_THROW(read_journal(dup), CheckpointError);
  std::remove(dup.c_str());

  const std::string orphan = "journal_orphan_test.log";
  std::remove(orphan.c_str());
  {
    JobJournal journal(orphan);
    journal.started(9);  // no submitted record for seq 9
  }
  EXPECT_THROW(read_journal(orphan), CheckpointError);
  std::remove(orphan.c_str());
}

}  // namespace
}  // namespace cogradio
