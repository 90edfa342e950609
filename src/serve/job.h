// One serve session's work order and its deterministic execution.
//
// A JobSpec is everything a `cograd serve` client sends to describe a
// supervised CogCast or CogComp run — the same knobs the batch CLI's
// `broadcast --supervise` / `aggregate --supervise` paths read. Both run
// the one supervised trial below: run_job runs it once from
// Rng(spec.seed), and the CLI runs its trials on one seeder in turn, so
// a job's result is bit-identical to the CLI's first trial for the same
// (seed, config) no matter which daemon worker runs it, how many sessions
// share the process, or how often the session reconnects.
// job_result_to_json is the canonical serialization of that result: the
// daemon's `done` frame embeds it verbatim, which is what lets clients
// verify a remote run against a local one byte for byte.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "core/supervisor.h"
#include "util/json.h"

namespace cogradio {

enum class JobKind { CogCast, CogComp };

std::string to_string(JobKind kind);

struct JobSpec {
  JobKind kind = JobKind::CogCast;
  int n = 32;
  int c = 8;
  int k = 2;
  std::string pattern = "shared-core";
  std::uint64_t seed = 1;
  // CogComp only.
  AggOp op = AggOp::Sum;
  bool mediated = true;
  // Supervisor knobs; 0 = the CLI defaults (8*horizon for CogCast,
  // max_slots()+16 for CogComp; unbounded backoff up to the global cap).
  Slot deadline = 0;
  Slot stall_window = 0;
  int max_restarts = 3;
  Slot max_deadline = 0;
};

// The largest label table (n*c entries, sim/assignment.h) a job may ask
// for: 2^24 entries, 64 MiB of channel ids. The per-key bounds alone
// (n <= 1e6, c <= 65536) admit tables of gigabytes, so parse_job_spec
// rejects any larger shape and one frame cannot make the daemon allocate
// that much.
inline constexpr std::int64_t kMaxJobLabelEntries = std::int64_t{1} << 24;

// Parses the "job" object of a submit frame. Unknown keys are rejected
// (a typo'd knob silently falling back to a default would break the
// byte-identity contract between client and daemon), and so is a shape
// over kMaxJobLabelEntries. On failure returns nullopt and stores a
// diagnostic in `error`.
std::optional<JobSpec> parse_job_spec(const JsonValue& value,
                                      std::string* error);

// Serializes `spec` as the submit-frame "job" object (one line, no
// newline). parse_job_spec(parse_json(...)) round-trips it exactly.
std::string job_spec_to_json(const JobSpec& spec);

struct JobResult {
  bool ok = false;          // false: spec was unrunnable; see error
  std::string error;
  bool completed = false;   // supervised run reached success
  bool aborted = false;     // an observer (cancel/disconnect) stopped it
  int restarts = 0;
  Slot total_slots = 0;
  std::int64_t epochs = 0;
  // CogComp only: the aggregate and its ground truth.
  bool verified = false;    // completed && result == expected (CogCast:
                            // completed — the tree check is in the runner)
  std::int64_t result = 0;
  std::int64_t expected = 0;
};

// One supervised trial's outcome.
struct JobTrial {
  SupervisedOutcome outcome;
  TraceStats stats;  // the final attempt's engine accounting
  JobResult result;  // ok = true
};

// Runs one supervised trial of `spec` on the calling thread, drawing from
// `seeder` in a fixed order: the assignment seed, then (CogComp) the
// input values' seed, then the supervisor seed. spec.seed is not read.
// Throws std::invalid_argument on an unrunnable spec and CheckpointError
// on a rejected resume payload.
JobTrial run_job_trial(const JobSpec& spec, Rng& seeder,
                       const CheckpointPolicy& policy = {},
                       const EpochObserver& observer = {});

// Runs `spec` to completion (or abort) on the calling thread: the trial
// above from Rng(spec.seed), any exception caught into `error`.
// `observer` sees every supervised epoch and may abort between epochs by
// returning false — the daemon wires the session's cancel/disconnect flag
// here.
// Deterministic: (spec) alone fixes every byte of the result as long as
// the observer never returns false.
JobResult run_job(const JobSpec& spec, const EpochObserver& observer = {});

// As above with a checkpoint policy (core/supervisor.h): `policy.sink`
// receives a snapshot payload every `policy.every_slots` slots, and a
// nonempty `policy.resume` continues a snapshotted run mid-epoch. The
// daemon wires these to the job journal (serve/journal.h) so a job
// interrupted by kill -9 resumes bit-identically after --recover.
JobResult run_job(const JobSpec& spec, const CheckpointPolicy& policy,
                  const EpochObserver& observer = {});

// Canonical one-line JSON for a result (no trailing newline). Field order
// and formatting are fixed so two runs of the same spec serialize
// byte-identically.
std::string job_result_to_json(const JobResult& result);

}  // namespace cogradio
