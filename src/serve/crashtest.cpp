#include "serve/crashtest.h"

#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "serve/job.h"
#include "serve/journal.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "serve/socket.h"
#include "sim/checkpoint.h"
#include "util/atomic_file.h"
#include "util/rng.h"

namespace cogradio {

namespace {

// Snapshot cadence for every harness run: small enough that even the
// shortest scenario cuts several checkpoints before finishing.
constexpr Slot kEverySlots = 8;

// The recovery daemon drains from birth: pre-set flag, so run() replays
// the journal's orphans, lets the workers finish them, and returns.
volatile std::sig_atomic_t g_drain_now = 1;

// Scenario families: two CogCast seeds and a CogComp — the same
// protocol spread the resume-equivalence ctest legs cover. The
// partitioned pattern keeps CogCast runs a couple hundred slots long
// (on shared channels everyone is informed in a handful of slots, too
// fast to ever cut a checkpoint).
std::vector<JobSpec> scenarios(std::uint64_t seed) {
  JobSpec cast1;
  cast1.kind = JobKind::CogCast;
  cast1.n = 256;
  cast1.c = 32;
  cast1.k = 2;
  cast1.pattern = "partitioned";
  cast1.seed = seed;
  JobSpec cast2 = cast1;
  cast2.seed = seed + 1;
  JobSpec comp;
  comp.kind = JobKind::CogComp;
  comp.n = 24;
  comp.c = 6;
  comp.k = 2;
  comp.seed = seed + 2;
  return {cast1, cast2, comp};
}

std::string scratch_name(const char* stem, int cycle) {
  return std::string("cograd-crashtest-") + std::to_string(::getpid()) + "-" +
         stem + "-" + std::to_string(cycle);
}

void remove_artifacts(const std::string& path) {
  ::unlink(path.c_str());
  ::unlink((path + ".tmp").c_str());
}

bool file_exists(const std::string& path) {
  return ::access(path.c_str(), F_OK) == 0;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

bool spill(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  return static_cast<bool>(out);
}

int fail(const std::string& message) {
  std::fprintf(stderr, "crashtest: %s\n", message.c_str());
  return 1;
}

// Reaps the child and requires it died by SIGKILL — anything else means
// the scheduled crash never fired (a harness bug, not a product one).
int expect_sigkilled(pid_t pid) {
  int status = 0;
  while (::waitpid(pid, &status, 0) < 0) {
    if (errno != EINTR) return fail("waitpid failed");
  }
  if (!WIFSIGNALED(status) || WTERMSIG(status) != SIGKILL)
    return fail("child was not SIGKILLed (status " + std::to_string(status) +
                ") — crash point beyond the run?");
  return 0;
}

// --- mode: run ------------------------------------------------------------

struct RunKillPoint {
  int at_snapshot = 1;       // crash around the Nth checkpoint
  bool before_rename = false;  // true: die between tmp write and rename
};

int run_cycle(const JobSpec& spec, const std::string& control,
              const RunKillPoint& point, int cycle) {
  const std::string ckpt = scratch_name("run", cycle) + ".ckpt";
  remove_artifacts(ckpt);
  const pid_t pid = ::fork();
  if (pid < 0) return fail("fork failed");
  if (pid == 0) {
    int snaps = 0;
    CheckpointPolicy policy;
    policy.every_slots = kEverySlots;
    policy.sink = [&](const std::string& payload) {
      ++snaps;
      if (point.before_rename && snaps == point.at_snapshot)
        testonly::die_before_rename = 1;  // the save below dies pre-rename
      save_checkpoint_file(ckpt, payload);
      if (!point.before_rename && snaps >= point.at_snapshot)
        ::raise(SIGKILL);
    };
    run_job(spec, policy);
    std::_Exit(42);  // survived to completion: the kill never landed
  }
  if (expect_sigkilled(pid) != 0) return 1;

  // Resume from whatever committed checkpoint survived. A crash before
  // the first rename legitimately leaves nothing — then recovery is a
  // from-scratch rerun, which must STILL match the control.
  JobResult resumed;
  if (file_exists(ckpt)) {
    CheckpointPolicy policy;
    policy.resume = load_checkpoint_file(ckpt);  // throws on corruption
    resumed = run_job(spec, policy);
  } else {
    resumed = run_job(spec);
  }
  remove_artifacts(ckpt);
  const std::string got = job_result_to_json(resumed);
  if (got != control)
    return fail("resume diverged (snapshot " +
                std::to_string(point.at_snapshot) +
                (point.before_rename ? ", pre-rename crash" : "") +
                ")\n  control: " + control + "\n  resumed: " + got);
  return 0;
}

int crashtest_run(const CrashTestOptions& options) {
  std::vector<RunKillPoint> points = {
      {1, false},  // mid-epoch, right after the first snapshot committed
      {2, false},  // deeper mid-epoch
      {2, true},   // between checkpoint tmp write and rename
  };
  Rng salt(options.seed);
  for (int i = 0; i < options.points; ++i)
    points.push_back({1 + static_cast<int>(salt() % 4), (salt() & 1) != 0});

  int cycle = 0;
  for (const JobSpec& spec : scenarios(options.seed)) {
    const std::string control = job_result_to_json(run_job(spec));
    for (const RunKillPoint& point : points)
      if (run_cycle(spec, control, point, cycle++) != 0) return 1;
  }
  std::printf("crashtest run: %d kill/resume cycles byte-identical\n", cycle);
  return 0;
}

// --- mode: serve ----------------------------------------------------------

struct ServeKillPoint {
  int after_appends = 0;  // > 0: SIGKILL after the Nth fsync'd append
  int mid_append = 0;     // > 0: tear the Nth append and SIGKILL
  int workers = 2;        // 1 serializes jobs (deterministic late kills)
};

struct ServeCycleStats {
  std::int64_t resumed = 0;
  std::int64_t rerun = 0;
  std::int64_t done_before = 0;
};

int serve_cycle(const std::vector<JobSpec>& specs,
                const std::map<std::int64_t, std::string>& control,
                const ServeKillPoint& point, int cycle,
                ServeCycleStats* totals) {
  const std::string journal = scratch_name("serve", cycle) + ".journal";
  const std::string sock = scratch_name("serve", cycle) + ".sock";
  remove_artifacts(journal);
  ::unlink(sock.c_str());

  const pid_t pid = ::fork();
  if (pid < 0) return fail("fork failed");
  if (pid == 0) {
    journal_testonly::die_after_appends = point.after_appends;
    journal_testonly::die_mid_append = point.mid_append;
    ServeOptions so;
    so.unix_path = sock;
    so.workers = point.workers;
    so.journal_path = journal;
    so.checkpoint_every = kEverySlots;
    ServeServer server(so);
    // cograd-lint: allow(R8) crash-harness child parks the daemon on a thread so the same process can drive it as a client
    std::thread daemon([&server] { server.run(); });
    std::string error;
    OwnedFd fd = connect_unix(sock, &error);
    if (!fd.valid()) std::_Exit(41);
    for (std::size_t i = 0; i < specs.size(); ++i) {
      Request req;
      req.type = RequestType::Submit;
      req.id = static_cast<std::int64_t>(i) + 1;
      req.job = specs[i];
      if (!send_all(fd.get(), encode_request(req))) break;
    }
    // Drain frames until the scheduled journal append SIGKILLs us. If
    // every job finishes first, the kill point was past the journal's
    // end — report it as a harness configuration error.
    LineReader reader(fd.get(), kMaxFrameBytes);
    std::size_t done_frames = 0;
    while (done_frames < specs.size()) {
      const auto line = reader.next_line();
      if (!line) break;
      std::string perror2;
      const auto response = parse_response(*line, &perror2);
      if (response && response->type == "done") ++done_frames;
    }
    std::_Exit(42);
  }
  if (expect_sigkilled(pid) != 0) return 1;

  // Phase 2: the journal must replay cleanly (a torn tail is expected;
  // interior corruption is not), then a --recover daemon in drain mode
  // finishes every job the dead daemon still owed.
  const JournalRecovery before = read_journal(journal);
  ServeOptions so;
  so.unix_path = sock;
  so.workers = 2;
  so.journal_path = journal;
  so.recover = true;
  so.checkpoint_every = kEverySlots;
  so.drain_flag = &g_drain_now;
  ServeServer server(so);
  const ServeStats pre = server.stats();
  if (pre.recovered_done + pre.recovered_resumed + pre.recovered_rerun !=
      static_cast<std::int64_t>(before.jobs.size()))
    return fail("recovery accounting does not partition the journal");
  server.run();
  const ServeStats post = server.stats();
  ::unlink(sock.c_str());

  // Exactly-once: every recovered job ran once (completed; none failed,
  // none aborted, none double-counted), and jobs already done stayed
  // done without re-running.
  if (post.failed != 0 || post.aborted != 0)
    return fail("recovered jobs failed or aborted");
  if (post.completed != pre.recovered_resumed + pre.recovered_rerun)
    return fail("recovered jobs did not each run exactly once");

  const JournalRecovery after = read_journal(journal);
  if (!after.clean_shutdown)
    return fail("recovery daemon did not mark a clean shutdown");
  if (after.jobs.size() != before.jobs.size())
    return fail("recovery invented or lost journaled jobs");
  for (const RecoveredJob& job : after.jobs) {
    if (!job.done)
      return fail("journaled job seq " + std::to_string(job.seq) +
                  " still unfinished after recovery");
    const auto it = control.find(job.client_id);
    if (it == control.end())
      return fail("journal names an unknown client job id");
    if (job.result_json != it->second)
      return fail("recovered result diverged for job " +
                  std::to_string(job.client_id) + "\n  control: " +
                  it->second + "\n  recovered: " + job.result_json);
  }
  remove_artifacts(journal);
  totals->resumed += pre.recovered_resumed;
  totals->rerun += pre.recovered_rerun;
  totals->done_before += pre.recovered_done;
  return 0;
}

int crashtest_serve(const CrashTestOptions& options) {
  const std::vector<JobSpec> specs = scenarios(options.seed);
  std::map<std::int64_t, std::string> control;
  for (std::size_t i = 0; i < specs.size(); ++i)
    control[static_cast<std::int64_t>(i) + 1] =
        job_result_to_json(run_job(specs[i]));

  std::vector<ServeKillPoint> points = {
      {1, 0, 2},   // right after the first submitted record hit the disk
      {14, 0, 2},  // mid-run, after checkpoints started flowing
      {0, 3, 2},   // torn tail: the third append never commits
      // One worker serializes the jobs, so append #32 reliably lands
      // after the first job's done record: the cycle then exercises
      // done-stays-done, resume, and rerun all at once.
      {32, 0, 1},
  };
  Rng salt(options.seed + 0x5EED);
  for (int i = 0; i < options.points; ++i) {
    const int n = 1 + static_cast<int>(salt() % 16);
    if ((salt() & 1) != 0)
      points.push_back({n, 0});
    else
      points.push_back({0, n});
  }

  ServeCycleStats totals;
  int cycle = 0;
  for (const ServeKillPoint& point : points)
    if (serve_cycle(specs, control, point, cycle++, &totals) != 0) return 1;

  // The sweep must exercise both recovery paths, or the harness is
  // vacuously green.
  if (totals.resumed == 0)
    return fail("no cycle resumed a job from a journaled checkpoint");
  if (totals.rerun == 0)
    return fail("no cycle re-ran a job from scratch");
  if (totals.done_before == 0)
    return fail("no cycle found a finished job to leave alone");
  std::printf(
      "crashtest serve: %d crash/recover cycles — %lld resumed, "
      "%lld rerun, %lld already done, all byte-identical\n",
      cycle, static_cast<long long>(totals.resumed),
      static_cast<long long>(totals.rerun),
      static_cast<long long>(totals.done_before));
  return 0;
}

// --- mode: corrupt --------------------------------------------------------

// Produces a valid committed checkpoint file for the corruption targets.
int make_checkpoint(const JobSpec& spec, const std::string& path) {
  std::string last;
  CheckpointPolicy policy;
  policy.every_slots = kEverySlots;
  policy.sink = [&last](const std::string& payload) { last = payload; };
  run_job(spec, policy);
  if (last.empty()) return fail("scenario finished before one snapshot");
  save_checkpoint_file(path, last);
  return 0;
}

int crashtest_corrupt(const CrashTestOptions& options) {
  const JobSpec spec = scenarios(options.seed).front();
  const std::string path = scratch_name("corrupt", 0);
  remove_artifacts(path);
  int rc = 0;
  if (options.target == "ckpt-flip" || options.target == "ckpt-trunc") {
    if (make_checkpoint(spec, path) != 0) return 1;
    std::string bytes = slurp(path);
    if (bytes.size() < 64) return fail("checkpoint implausibly small");
    if (options.target == "ckpt-flip")
      bytes[bytes.size() / 2] ^= 0x20;  // one bit, mid-payload
    else
      bytes.resize(bytes.size() - 7);  // lose the tail
    if (!spill(path, bytes)) return fail("cannot write corrupted file");
    try {
      const std::string payload = load_checkpoint_file(path);
      CheckpointPolicy policy;
      policy.resume = payload;
      run_job(spec, policy);
      std::printf("crashtest corrupt: %s was ACCEPTED — validation hole\n",
                  options.target.c_str());
      rc = 0;  // the WILL_FAIL ctest leg turns red on this exit code
    } catch (const CheckpointError& e) {
      std::fprintf(stderr, "crashtest corrupt: rejected as it must be: %s\n",
                   e.what());
      rc = 1;
    }
  } else if (options.target == "journal-flip") {
    {
      JobJournal journal(path);
      journal.submitted(1, 1, spec);
      journal.started(1);
    }
    std::string bytes = slurp(path);
    if (bytes.size() < 64) return fail("journal implausibly small");
    bytes[40] ^= 0x20;  // inside the first record's CRC-covered body
    if (!spill(path, bytes)) return fail("cannot write corrupted file");
    try {
      read_journal(path);
      std::printf("crashtest corrupt: journal-flip was ACCEPTED — "
                  "validation hole\n");
      rc = 0;
    } catch (const CheckpointError& e) {
      std::fprintf(stderr, "crashtest corrupt: rejected as it must be: %s\n",
                   e.what());
      rc = 1;
    }
  } else {
    return fail("unknown corrupt target '" + options.target + "'");
  }
  remove_artifacts(path);
  return rc;
}

}  // namespace

int run_crashtest(const CrashTestOptions& options) {
  if (options.mode == "run") return crashtest_run(options);
  if (options.mode == "serve") return crashtest_serve(options);
  if (options.mode == "corrupt") return crashtest_corrupt(options);
  return fail("unknown mode '" + options.mode + "' (run|serve|corrupt)");
}

}  // namespace cogradio
