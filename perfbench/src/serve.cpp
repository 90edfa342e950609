// The serve layers, measured by paper_sweep's traced run: an in-process
// ServeServer with default options, driven over its wire protocol (a
// unix socket) by one open-loop generator thread, plus direct calls into
// serve/protocol, serve/job, serve/journal and the checkpoint policy.
//
// Arrivals are Poisson at a fixed rate, drawn from the workload seed;
// each job is a small CogCast or, one in five, a CogComp from a seeded
// pool of specs, so IO, frame parse/encode, queue handoff and flush
// dominate. The generator, the daemon's IO thread and its workers
// together use at most nproc threads. A job is timed from its due time,
// not its send time, so a stall charges every job queued behind it; the
// generator spins between arrivals so that its own wake-ups stay out of
// the times. Every done frame is checked after the window against a
// local run_job of its spec, byte for byte.
//
// These are per-layer figures only: on a virtual machine whose idle CPUs
// halt, the daemon's tail latency follows the host's load from minute to
// minute, too far for any end-to-end bound.
#include <poll.h>
#include <pthread.h>
#include <sched.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <stdexcept>
#include <string_view>
#include <thread>

#include "serve/journal.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "serve/socket.h"
#include "util/rng.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace cogradio;

constexpr int kPool = 256;  // distinct specs; job i runs spec i % kPool
constexpr int kConnections = 2;

constexpr double kRate = 8000;  // the fixed offered rate, jobs/s
// A generator later than this at p99 fell behind its schedule.
constexpr double kMaxLagMs = 50;
// The checkpoint cadence of the journal probe: short enough that the
// CogComp jobs write checkpoints.
constexpr Slot kCheckpointEvery = 64;

// The pool cycles through fixed shapes, four CogCast to one CogComp, so
// the mix and its cost stay the same for every seed; only the job seeds
// vary.
struct JobShape {
  JobKind kind;
  int n, c;
  const char* pattern;
  AggOp op;
};
const JobShape kJobShapes[] = {
    {JobKind::CogCast, 16, 4, "shared-core", AggOp::Sum},
    {JobKind::CogCast, 24, 6, "partitioned", AggOp::Sum},
    {JobKind::CogCast, 32, 8, "shared-core", AggOp::Sum},
    {JobKind::CogCast, 24, 4, "partitioned", AggOp::Sum},
    {JobKind::CogComp, 12, 4, "shared-core", AggOp::Sum},
    {JobKind::CogCast, 32, 6, "partitioned", AggOp::Sum},
    {JobKind::CogCast, 16, 8, "shared-core", AggOp::Sum},
    {JobKind::CogCast, 24, 6, "shared-core", AggOp::Sum},
    {JobKind::CogCast, 32, 4, "partitioned", AggOp::Sum},
    {JobKind::CogComp, 16, 6, "shared-core", AggOp::Max},
};

std::vector<JobSpec> make_specs(std::uint64_t seed) {
  Rng rng(seed ^ 0x5e7e5e7eULL);
  std::vector<JobSpec> specs;
  for (int i = 0; i < kPool; ++i) {
    const JobShape& shape = kJobShapes[i % std::size(kJobShapes)];
    JobSpec s;
    s.kind = shape.kind;
    s.n = shape.n;
    s.c = shape.c;
    s.k = 2;
    s.pattern = shape.pattern;
    s.op = shape.op;
    s.seed = rng();
    specs.push_back(s);
  }
  return specs;
}

// The generator spins on the first CPU this process may use; the daemon
// (its IO thread and, inheriting its mask, every worker) gets the rest.
// Without the split the scheduler sometimes stacks a daemon thread on the
// spinning generator's CPU, and that thread's wake-ups then wait for the
// generator's time slice: milliseconds at the tail, in some runs only.
struct CpuSplit {
  cpu_set_t generator{};
  cpu_set_t daemon{};
  bool valid = false;
};

CpuSplit split_cpus() {
  CpuSplit split;
  cpu_set_t all;
  CPU_ZERO(&all);
  if (sched_getaffinity(0, sizeof all, &all) != 0 || CPU_COUNT(&all) < 2)
    return split;
  CPU_ZERO(&split.generator);
  split.daemon = all;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu)
    if (CPU_ISSET(cpu, &all)) {
      CPU_SET(cpu, &split.generator);
      CPU_CLR(cpu, &split.daemon);
      break;
    }
  split.valid = true;
  return split;
}

// One daemon with its IO thread, torn down on scope exit.
struct Daemon {
  Daemon(const ServeOptions& options, const CpuSplit& cpus) : server(options) {
    io = std::thread([this, cpus] {
      if (cpus.valid)
        pthread_setaffinity_np(pthread_self(), sizeof cpus.daemon, &cpus.daemon);
      server.run();
    });
  }
  ~Daemon() {
    server.stop();
    io.join();
  }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  ServeServer server;
  std::thread io;
};

// A connected, ping-checked client of one daemon.
struct Client {
  std::vector<OwnedFd> conns;
  std::vector<std::string> inbuf;
};

// Reads whatever is ready on `fd` and hands back complete lines.
template <typename OnLine>
bool drain(int fd, std::string& buf, OnLine&& on_line) {
  char chunk[65536];
  while (true) {
    const ssize_t n = ::recv(fd, chunk, sizeof chunk, MSG_DONTWAIT);
    if (n > 0) {
      buf.append(chunk, static_cast<std::size_t>(n));
      continue;
    }
    if (n == 0) return false;
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    return false;
  }
  std::size_t start = 0;
  while (true) {
    const std::size_t pos = buf.find('\n', start);
    if (pos == std::string::npos) break;
    on_line(std::string_view(buf).substr(start, pos - start));
    start = pos + 1;
  }
  buf.erase(0, start);
  return true;
}

// Blocks until every connection has one line satisfying `want`.
template <typename Want>
bool await_each(Client& client, Want&& want, double timeout_s) {
  const std::int64_t start = now_ns();
  std::vector<bool> got(client.conns.size(), false);
  while (std::count(got.begin(), got.end(), true) <
         static_cast<long>(got.size())) {
    if (seconds_since(start) > timeout_s) return false;
    std::vector<pollfd> fds;
    for (const OwnedFd& c : client.conns) fds.push_back({c.get(), POLLIN, 0});
    ::poll(fds.data(), fds.size(), 50);
    for (std::size_t i = 0; i < client.conns.size(); ++i)
      if (!drain(client.conns[i].get(), client.inbuf[i],
                 [&](std::string_view line) {
                   if (want(line)) got[i] = true;
                 }))
        return false;
  }
  return true;
}

// Done frames are kept as 64-bit digests, not strings, so the memory a
// probe needs does not depend on how many jobs it ran.
std::uint64_t line_digest(std::string_view line) {
  Digest d;
  d.bytes(line.data(), line.size());
  return d.value();
}

std::int64_t field_int(std::string_view line, std::string_view key) {
  const std::size_t pos = line.find(key);
  if (pos == std::string_view::npos) return -1;
  return std::strtoll(line.data() + pos + key.size(), nullptr, 10);
}

enum class End { Pending, Done, Shed, Error };

struct JobRecord {
  double due = 0;  // s from the probe start
  double sent = -1;
  double accepted = -1;
  double done = -1;
  std::int64_t queue_depth = -1;
  End end = End::Pending;
  std::uint64_t line = 0;  // digest of the done frame, for verification
};

struct ProbeResult {
  std::vector<JobRecord> jobs;  // job id = index
  bool transport_ok = true;
};

// Span names of the serve probe.
enum SpanId { kJob, kLag, kAccept, kAcceptedToDone };
constexpr double kDrainS = 10;  // after the window, wait this long for stragglers

// One open-loop run at `rate` jobs/s for `duration` s: sends each job
// when due, reads replies in between, then waits for the stragglers.
ProbeResult run_open_loop(Client& client, const std::vector<JobSpec>& specs,
                          double rate, double duration, std::uint64_t seed,
                          Lane* lane) {
  ProbeResult r;
  Rng arrivals(seed);
  for (double t = 0;;) {
    t += -std::log(1.0 - arrivals.uniform()) / rate;
    if (t >= duration) break;
    JobRecord job;
    job.due = t;
    r.jobs.push_back(job);
  }
  const std::int64_t start = now_ns();
  auto clock = [&] { return static_cast<double>(now_ns() - start) * 1e-9; };
  auto span_ns = [&](double t) {
    return start + static_cast<std::int64_t>(t * 1e9);
  };
  std::size_t next = 0;
  std::size_t finished = 0;
  auto on_line = [&](std::string_view line) {
    const double t = clock();
    const std::int64_t id = field_int(line, "\"id\":");
    if (id < 0 || id >= static_cast<std::int64_t>(r.jobs.size())) return;
    JobRecord& job = r.jobs[static_cast<std::size_t>(id)];
    if (line.rfind("{\"type\":\"epoch\"", 0) == 0) return;
    if (line.rfind("{\"type\":\"accepted\"", 0) == 0) {
      job.accepted = t;
      job.queue_depth = field_int(line, "\"queue_depth\":");
      return;
    }
    if (job.end != End::Pending) return;
    ++finished;
    job.done = t;
    if (line.rfind("{\"type\":\"done\"", 0) == 0) {
      job.end = End::Done;
      job.line = line_digest(line);
      if (lane != nullptr) {
        lane->begin_at(kJob, span_ns(job.due), id);
        lane->record(kLag, span_ns(job.due), span_ns(job.sent), id);
        lane->record(kAccept, span_ns(job.sent), span_ns(job.accepted), id);
        lane->record(kAcceptedToDone, span_ns(job.accepted), span_ns(job.done), id);
        lane->end_at(span_ns(job.done));
      }
    } else {
      job.end = line.rfind("{\"type\":\"shed\"", 0) == 0 ? End::Shed : End::Error;
    }
  };

  std::vector<pollfd> fds;
  while (finished < r.jobs.size()) {
    double now = clock();
    while (next < r.jobs.size() && r.jobs[next].due <= now) {
      const std::size_t c = next % client.conns.size();
      Request req;
      req.type = RequestType::Submit;
      req.id = static_cast<std::int64_t>(next);
      req.job = specs[static_cast<std::size_t>(req.id) % specs.size()];
      if (!send_all(client.conns[c].get(), encode_request(req))) {
        r.transport_ok = false;
        return r;
      }
      r.jobs[next].sent = clock();
      ++next;
      now = clock();
    }
    if (now > duration + kDrainS) break;  // the rest are lost
    // Spin instead of sleeping: a sleeping generator would add its own
    // wake-up latency (tens of microseconds, milliseconds at the tail on
    // this kind of host) to every send and every reply time.
    fds.clear();
    for (const OwnedFd& conn : client.conns) fds.push_back({conn.get(), POLLIN, 0});
    ::poll(fds.data(), fds.size(), 0);
    for (std::size_t i = 0; i < client.conns.size(); ++i)
      if ((fds[i].revents & POLLIN) != 0 &&
          !drain(client.conns[i].get(), client.inbuf[i], on_line)) {
        r.transport_ok = false;
        return r;
      }
  }
  return r;
}

struct Latencies {
  std::vector<double> job_ms;  // due -> done; shed/failed jobs excluded
  std::vector<double> lag_ms;  // due -> sent
  std::vector<double> accept_ms, run_ms, queue_depth;
  std::int64_t missed = 0;  // shed, errored or never done
};

Latencies summarize(const ProbeResult& r) {
  Latencies l;
  for (const JobRecord& j : r.jobs) {
    if (j.sent >= 0) l.lag_ms.push_back((j.sent - j.due) * 1e3);
    if (j.end != End::Done) {
      ++l.missed;
      continue;
    }
    l.job_ms.push_back((j.done - j.due) * 1e3);
    if (j.accepted >= 0) {
      l.accept_ms.push_back((j.accepted - j.sent) * 1e3);
      l.run_ms.push_back((j.done - j.accepted) * 1e3);
      l.queue_depth.push_back(static_cast<double>(j.queue_depth));
    }
  }
  return l;
}

ServeOptions daemon_options(const std::string& socket_path) {
  ServeOptions o;
  o.unix_path = socket_path;
  o.workers = std::max(1, hardware_threads() - 2);  // + generator + IO thread
  return o;
}

// Starts a daemon and connects the client; true once every connection
// has answered a ping.
bool start(std::unique_ptr<Daemon>& daemon, Client& client,
           const ServeOptions& options, const CpuSplit& cpus) {
  client = Client{};
  daemon = std::make_unique<Daemon>(options, cpus);
  for (int c = 0; c < kConnections; ++c) {
    std::string error;
    OwnedFd fd = connect_unix(options.unix_path, &error);
    if (!fd.valid()) return false;
    if (!send_all(fd.get(), encode_request(Request{RequestType::Ping, 0, {}})))
      return false;
    client.conns.push_back(std::move(fd));
    client.inbuf.emplace_back();
  }
  return await_each(client,
                    [](std::string_view line) {
                      return line.rfind("{\"type\":\"pong\"", 0) == 0;
                    },
                    10.0);
}

}  // namespace

void measure_serve_layers(const Options& options, double seconds,
                          Report& report) {
  const std::vector<JobSpec> specs = make_specs(options.seed);
  const std::string tag = options.out_dir + "/serve-" + std::to_string(options.seed);

  cpu_set_t saved{};
  const bool have_saved =
      pthread_getaffinity_np(pthread_self(), sizeof saved, &saved) == 0;
  const CpuSplit cpus = split_cpus();
  if (cpus.valid)
    pthread_setaffinity_np(pthread_self(), sizeof cpus.generator, &cpus.generator);

  // Local results of every spec, the byte-identity reference.
  std::vector<JobResult> results(specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) results[i] = run_job(specs[i]);

  Tracer tracer(true, {"job", "bench.generator_lag", "serve.server.accept",
                       "serve.server.accepted_to_done"});
  ProbeResult run;
  double shed_frac = 0;
  {
    std::unique_ptr<Daemon> daemon;
    Client client;
    if (!start(daemon, client, daemon_options(tag + ".sock"), cpus))
      throw std::runtime_error("serve daemon did not answer");
    run = run_open_loop(client, specs, kRate, seconds * 0.6, Rng(options.seed)(),
                        tracer.lane());
    // The daemon's own counters, then shutdown.
    for (const OwnedFd& conn : client.conns)
      send_all(conn.get(), encode_request(Request{RequestType::Stats, 0, {}}));
    await_each(client,
               [&](std::string_view line) {
                 if (line.rfind("{\"type\":\"stats\"", 0) != 0) return false;
                 const double shed = static_cast<double>(field_int(line, "\"shed\":"));
                 const double accepted =
                     static_cast<double>(field_int(line, "\"accepted\":"));
                 shed_frac = shed / std::max(1.0, shed + accepted);
                 return true;
               },
               10.0);
  }
  if (have_saved) pthread_setaffinity_np(pthread_self(), sizeof saved, &saved);

  // --- Checks, after the window: transport, completion, byte identity.
  // A shed job is the daemon's documented answer to overload, counted in
  // serve.server.shed_frac; a job with no answer, an error answer or
  // wrong bytes is a failure.
  if (!run.transport_ok) report.problem("transport to the daemon failed");
  for (std::size_t j = 0; j < run.jobs.size(); ++j) {
    const JobRecord& job = run.jobs[j];
    const auto id = static_cast<std::int64_t>(j);
    const std::size_t spec = static_cast<std::size_t>(id) % specs.size();
    ++report.attempted;
    if (job.end == End::Shed) continue;
    std::string why;
    if (job.end != End::Done) {
      why = job.end == End::Error ? "was answered with an error" : "was never answered";
    } else {
      std::string want = frame_done(id, results[spec]);
      want.pop_back();  // the newline
      if (job.line != line_digest(want))
        why = "done frame differs from run_job";
      else if (!results[spec].verified)
        why = "result not verified";
    }
    if (why.empty()) continue;
    ++report.failed;
    if (report.problems.size() < 8)
      report.problem("serve job " + std::to_string(id) + " " + why);
  }
  const Latencies traced = summarize(run);
  if (percentile(traced.lag_ms, 0.99).value > kMaxLagMs)
    report.rejections.push_back("serve generator fell behind its schedule");

  // --- Per-layer measurements, each a direct call into one module.
  report.set_percentile("serve.server.accept_ms_p50", percentile(traced.accept_ms, 0.5),
                        "ms", false);
  report.set_percentile("serve.server.accept_ms_p99",
                        percentile(traced.accept_ms, 0.99), "ms", false);
  report.set_percentile("serve.server.accepted_to_done_ms_p50",
                        percentile(traced.run_ms, 0.5), "ms", false);
  report.set_percentile("serve.server.accepted_to_done_ms_p99",
                        percentile(traced.run_ms, 0.99), "ms", false);
  report.set_percentile("serve.server.queue_depth_p99",
                        percentile(traced.queue_depth, 0.99), "count", false);
  report.set("serve.server.shed_frac", shed_frac, "ratio", 1);
  report.set_percentile("bench.generator_lag_ms_p99", percentile(traced.lag_ms, 0.99),
                        "ms", false);

  // serve/protocol on the pool's own frames.
  std::vector<double> parse_us, encode_us;
  for (int rep = 0; rep < 8; ++rep)
    for (std::size_t i = 0; i < specs.size(); ++i) {
      Request req;
      req.type = RequestType::Submit;
      req.id = static_cast<std::int64_t>(i);
      req.job = specs[i];
      std::string line = encode_request(req);
      line.pop_back();
      std::string error;
      std::int64_t t0 = now_ns();
      const auto parsed = parse_request(line, &error);
      parse_us.push_back(static_cast<double>(now_ns() - t0) * 1e-3);
      if (!parsed) report.problem("parse_request rejected a workload frame");
      t0 = now_ns();
      const std::string frame = frame_done(req.id, results[i]);
      encode_us.push_back(static_cast<double>(now_ns() - t0) * 1e-3);
      if (frame.empty()) report.problem("frame_done produced nothing");
    }
  report.set("serve.protocol.parse_request_us", median(parse_us), "us",
             static_cast<std::int64_t>(parse_us.size()));
  report.set("serve.protocol.frame_done_us", median(encode_us), "us",
             static_cast<std::int64_t>(encode_us.size()));

  // serve/job and core/supervisor: direct run_job on the same specs.
  std::vector<double> run_ms;
  double epochs = 0, restarts = 0;
  for (int rep = 0; rep < 4; ++rep)
    for (std::size_t i = 0; i < specs.size(); ++i) {
      const std::int64_t t0 = now_ns();
      const JobResult r = run_job(specs[i]);
      run_ms.push_back(static_cast<double>(now_ns() - t0) * 1e-6);
      if (job_result_to_json(r) != job_result_to_json(results[i]))
        report.problem("run_job is not deterministic");
    }
  for (const JobResult& r : results) {
    epochs += static_cast<double>(r.epochs);
    restarts += r.restarts;
  }
  report.set_percentile("serve.job.run_ms_p50", percentile(run_ms, 0.5), "ms", false);
  report.set_percentile("serve.job.run_ms_p99", percentile(run_ms, 0.99), "ms", false);
  report.set("core.supervisor.epochs_per_job", epochs / kPool, "count", kPool);
  report.set("core.supervisor.restarts_per_job", restarts / kPool, "count", kPool);

  // serve/journal and sim/checkpoint: a durable daemon's appends and
  // checkpoint policy, on the same specs, twice over so that the append
  // p99 has support.
  {
    constexpr int kJobs = 2 * kPool;
    const std::string path = tag + "-journal.jsonl";
    std::remove(path.c_str());
    std::vector<double> append_ms;
    double ckpt_bytes = 0;
    double with_ns = 0, without_ns = 0;
    {
      JobJournal journal_probe(path);
      auto timed_append = [&](auto&& append) {
        const std::int64_t t0 = now_ns();
        append();
        append_ms.push_back(static_cast<double>(now_ns() - t0) * 1e-6);
      };
      for (int job = 0; job < kJobs; ++job) {
        const auto i = static_cast<std::size_t>(job % kPool);
        const auto seq = static_cast<std::int64_t>(job) + 1;
        timed_append([&] { journal_probe.submitted(seq, seq, specs[i]); });
        timed_append([&] { journal_probe.started(seq); });
        std::vector<std::string> payloads;
        CheckpointPolicy policy;
        policy.every_slots = kCheckpointEvery;
        policy.sink = [&](const std::string& payload) { payloads.push_back(payload); };
        std::int64_t t0 = now_ns();
        const JobResult r = run_job(specs[i], policy);
        with_ns += static_cast<double>(now_ns() - t0);
        t0 = now_ns();
        run_job(specs[i]);
        without_ns += static_cast<double>(now_ns() - t0);
        if (job_result_to_json(r) != job_result_to_json(results[i]))
          report.problem("checkpointing changed a job's result");
        for (const std::string& p : payloads) {
          ckpt_bytes += static_cast<double>(p.size());
          timed_append([&] { journal_probe.checkpoint(seq, p); });
        }
        timed_append([&] { journal_probe.done(seq, r); });
      }
    }
    const JournalRecovery rec = read_journal(path);
    std::remove(path.c_str());
    report.set_percentile("serve.journal.append_ms_p50", percentile(append_ms, 0.5),
                          "ms", false);
    report.set_percentile("serve.journal.append_ms_p99", percentile(append_ms, 0.99),
                          "ms", false);
    report.set("serve.journal.records_per_job",
               static_cast<double>(rec.records) / kJobs, "count", kJobs);
    report.set("sim.checkpoint.bytes_per_job", ckpt_bytes / kJobs, "bytes", kJobs);
    report.set("sim.checkpoint.encode_ms_per_job",
               (with_ns - without_ns) * 1e-6 / kJobs, "ms", kJobs);
  }
  const std::string spans =
      options.out_dir + "/spans-serve-" + std::to_string(options.seed) + ".tsv";
  if (!tracer.write(spans)) report.problem("could not write " + spans);
}

}  // namespace perfbench
