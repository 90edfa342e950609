// Tests for the `cograd serve` subsystem (src/serve): wire-protocol
// round-trips and malformed-frame rejection, run_job's determinism and
// byte-identity contract, and the live daemon — lifecycle, submit/done,
// concurrent multi-client identity, disconnect survival, queue shedding,
// cancel, and shutdown. Suites are named Serve* so the TSan CI leg's
// regex picks every one of them up.
#include "serve/server.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "serve/loadgen.h"
#include "serve/protocol.h"
#include "serve/socket.h"
#include "util/bench_report.h"

namespace cogradio {
namespace {

// --- Protocol ---------------------------------------------------------------

TEST(ServeProtocol, RequestFramesRoundTrip) {
  Request submit;
  submit.type = RequestType::Submit;
  submit.id = 7;
  submit.job.kind = JobKind::CogComp;
  submit.job.n = 48;
  submit.job.c = 12;
  submit.job.k = 3;
  submit.job.pattern = "partitioned";
  submit.job.seed = 18446744073709551615ull;  // uint64 max must survive
  submit.job.op = AggOp::Min;
  submit.job.mediated = false;
  submit.job.deadline = 999;
  submit.job.max_deadline = 123456;

  const std::string frame = encode_request(submit);
  ASSERT_EQ(frame.back(), '\n');
  std::string error;
  const auto parsed = parse_request(frame.substr(0, frame.size() - 1), &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_EQ(parsed->type, RequestType::Submit);
  EXPECT_EQ(parsed->id, 7);
  EXPECT_EQ(parsed->job.kind, JobKind::CogComp);
  EXPECT_EQ(parsed->job.n, 48);
  EXPECT_EQ(parsed->job.seed, 18446744073709551615ull);
  EXPECT_EQ(parsed->job.op, AggOp::Min);
  EXPECT_FALSE(parsed->job.mediated);
  EXPECT_EQ(parsed->job.deadline, 999);
  EXPECT_EQ(parsed->job.max_deadline, 123456);
  // Re-encoding the parse reproduces the frame byte for byte.
  EXPECT_EQ(encode_request(*parsed), frame);

  for (const RequestType type :
       {RequestType::Cancel, RequestType::Status, RequestType::Stats,
        RequestType::Ping, RequestType::Shutdown}) {
    Request request;
    request.type = type;
    request.id = 3;
    const std::string encoded = encode_request(request);
    const auto again =
        parse_request(encoded.substr(0, encoded.size() - 1), &error);
    ASSERT_TRUE(again.has_value()) << encoded;
    EXPECT_EQ(again->type, type);
  }
}

TEST(ServeProtocol, MalformedFramesAreRejectedNotFatal) {
  const char* bad[] = {
      "",                                    // empty line
      "not json at all",                     // parse failure
      "42",                                  // not an object
      "{}",                                  // missing type
      "{\"type\":12}",                       // type not a string
      "{\"type\":\"warp\"}",                 // unknown type
      "{\"type\":\"submit\"}",               // missing id
      "{\"type\":\"submit\",\"id\":-1}",     // negative id
      "{\"type\":\"submit\",\"id\":1}",      // missing job
      "{\"type\":\"submit\",\"id\":1,\"job\":{\"bogus\":1}}",  // unknown key
      "{\"type\":\"submit\",\"id\":1,\"job\":{\"n\":1}}",      // n too small
      "{\"type\":\"submit\",\"id\":1,\"job\":{\"k\":9,\"c\":4}}",  // k > c
      "{\"type\":\"submit\",\"id\":1,\"job\":{\"seed\":-3}}",  // bad seed
  };
  for (const char* line : bad) {
    std::string error;
    EXPECT_FALSE(parse_request(line, &error).has_value()) << line;
    EXPECT_FALSE(error.empty()) << line;
  }
  // Depth-bombed job payloads die in the JSON parser's depth cap.
  std::string deep = "{\"type\":\"submit\",\"id\":1,\"job\":";
  for (int i = 0; i < 200; ++i) deep += "{\"n\":";
  std::string error;
  EXPECT_FALSE(parse_request(deep, &error).has_value());
  // And a frame at the size cap is rejected before parsing.
  EXPECT_FALSE(
      parse_request(std::string(kMaxFrameBytes, ' '), &error).has_value());
}

// Each key is in range, but n*c asks for a 3e9-entry label table (and,
// partitioned, a channel space past Channel's range): refused at parse
// time, before any assignment is built. A table of exactly the cap parses.
TEST(ServeProtocol, RejectsJobsOverTheLabelTableCap) {
  std::string error;
  EXPECT_FALSE(parse_request("{\"type\":\"submit\",\"id\":1,\"job\":"
                             "{\"n\":100000,\"c\":30000,\"k\":2,"
                             "\"pattern\":\"partitioned\"}}",
                             &error)
                   .has_value());
  EXPECT_NE(error.find("n, c: label table n*c = 3000000000"), std::string::npos)
      << error;
  EXPECT_NE(error.find(std::to_string(kMaxJobLabelEntries)), std::string::npos)
      << error;

  JobSpec at_cap;
  at_cap.n = 256;
  at_cap.c = 65'536;
  ASSERT_EQ(std::int64_t{at_cap.n} * at_cap.c, kMaxJobLabelEntries);
  const auto doc = parse_json(job_spec_to_json(at_cap), &error);
  ASSERT_TRUE(doc.has_value()) << error;
  EXPECT_TRUE(parse_job_spec(*doc, &error).has_value()) << error;
}

TEST(ServeProtocol, SeedSurvivesTheWireExactly) {
  // Regression guard for the double-precision trap: a raw JSON number
  // cannot carry a full uint64, so seeds ride as decimal strings.
  JobSpec spec;
  spec.seed = 0xDEADBEEFCAFEF00Dull;
  std::string error;
  const auto doc = parse_json(job_spec_to_json(spec), &error);
  ASSERT_TRUE(doc.has_value()) << error;
  const auto parsed = parse_job_spec(*doc, &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_EQ(parsed->seed, 0xDEADBEEFCAFEF00Dull);
}

// --- run_job ----------------------------------------------------------------

TEST(ServeJob, ResultsAreDeterministicAndVerified) {
  JobSpec spec;
  spec.n = 24;
  spec.c = 6;
  spec.k = 2;
  spec.seed = 42;
  const JobResult a = run_job(spec);
  const JobResult b = run_job(spec);
  EXPECT_TRUE(a.ok);
  EXPECT_TRUE(a.completed);
  EXPECT_TRUE(a.verified);
  EXPECT_EQ(job_result_to_json(a), job_result_to_json(b));

  spec.kind = JobKind::CogComp;
  spec.op = AggOp::Sum;
  const JobResult comp = run_job(spec);
  EXPECT_TRUE(comp.ok);
  EXPECT_TRUE(comp.completed);
  EXPECT_TRUE(comp.verified) << "source aggregate " << comp.result
                             << " != expected " << comp.expected;
  EXPECT_EQ(comp.result, comp.expected);
  EXPECT_EQ(job_result_to_json(comp), job_result_to_json(run_job(spec)));

  // Golden results: the trial's draws from Rng(spec.seed) (assignment,
  // then CogComp's values, then the supervisor seed) pinned in bytes, so
  // a reordered draw shows here and not only as a run unequal to itself.
  JobSpec cast;
  cast.n = 64;
  cast.c = 8;
  cast.k = 2;
  cast.pattern = "partitioned";
  cast.seed = 3;
  cast.deadline = 20;
  cast.max_restarts = 4;
  EXPECT_EQ(job_result_to_json(run_job(cast)),
            "{\"ok\":true,\"completed\":true,\"aborted\":false,"
            "\"restarts\":1,\"total_slots\":40,\"epochs\":2,"
            "\"verified\":true,\"result\":0,\"expected\":0}");
  JobSpec restarted;
  restarted.kind = JobKind::CogComp;
  restarted.n = 24;
  restarted.c = 6;
  restarted.k = 2;
  restarted.seed = 9;
  restarted.deadline = 60;
  restarted.max_restarts = 3;
  EXPECT_EQ(job_result_to_json(run_job(restarted)),
            "{\"ok\":true,\"completed\":true,\"aborted\":false,"
            "\"restarts\":2,\"total_slots\":343,\"epochs\":3,"
            "\"verified\":true,\"result\":12311510,"
            "\"expected\":12311510}");
  JobSpec unmediated;
  unmediated.kind = JobKind::CogComp;
  unmediated.n = 12;
  unmediated.c = 8;
  unmediated.k = 2;
  unmediated.seed = 42;
  unmediated.op = AggOp::Max;
  unmediated.mediated = false;
  EXPECT_EQ(job_result_to_json(run_job(unmediated)),
            "{\"ok\":true,\"completed\":true,\"aborted\":false,"
            "\"restarts\":0,\"total_slots\":160,\"epochs\":1,"
            "\"verified\":true,\"result\":990549,"
            "\"expected\":990549}");
}

TEST(ServeJob, UnrunnableSpecFailsCleanly) {
  JobSpec spec;
  spec.pattern = "no-such-pattern";
  const JobResult result = run_job(spec);
  EXPECT_FALSE(result.ok);
  EXPECT_FALSE(result.error.empty());
  EXPECT_FALSE(result.completed);
}

TEST(ServeJob, ObserverAbortSurfacesAsAborted) {
  JobSpec spec;
  spec.n = 24;
  spec.c = 6;
  spec.k = 2;
  spec.seed = 7;
  spec.deadline = 2;        // too short to finish: forces restarts
  spec.max_restarts = 50;
  const JobResult result =
      run_job(spec, [](int attempt, const EpochStats&) {
        return attempt < 1;  // give up after the second epoch
      });
  EXPECT_TRUE(result.ok);
  EXPECT_FALSE(result.completed);
  EXPECT_TRUE(result.aborted);
  EXPECT_EQ(result.epochs, 2);
}

// --- Live daemon ------------------------------------------------------------

// A blocking test client over one connection.
class Client {
 public:
  explicit Client(int port) : fd_(connect_tcp(port, &error_)) {}
  explicit Client(const std::string& path)
      : fd_(connect_unix(path, &error_)) {}

  bool ok() const { return fd_.valid(); }
  const std::string& error() const { return error_; }

  bool send_line(const std::string& frame) {
    return send_all(fd_.get(), frame);
  }

  // Next response frame, or nullopt on EOF.
  std::optional<Response> next() {
    if (!reader_) reader_.emplace(fd_.get(), kMaxFrameBytes);
    const auto line = reader_->next_line();
    if (!line) return std::nullopt;
    std::string error;
    auto response = parse_response(*line, &error);
    EXPECT_TRUE(response.has_value()) << *line << " : " << error;
    last_line_ = *line;
    return response;
  }

  // Waits for the next terminal frame (done/shed/error); returns its raw
  // line.
  std::string run_to_done(std::int64_t /*id*/) {
    while (true) {
      const auto response = next();
      if (!response) return "";
      if (response->type == "done") return last_line_;
      if (response->type == "shed" || response->type == "error")
        return last_line_;
    }
  }

  void close() { fd_ = OwnedFd(); }

 private:
  std::string error_;
  OwnedFd fd_;
  std::optional<LineReader> reader_;
  std::string last_line_;
};

struct DaemonFixture {
  explicit DaemonFixture(ServeOptions options = {}) {
    if (options.unix_path.empty() && options.tcp_port < 0)
      options.tcp_port = 0;  // ephemeral
    server = std::make_unique<ServeServer>(options);
    port = server->tcp_port();
    // cograd-lint: allow(R8) test fixture hosts the daemon's IO loop off the gtest thread
    io = std::thread([this] { server->run(); });
  }
  ~DaemonFixture() {
    server->stop();
    io.join();
  }
  std::unique_ptr<ServeServer> server;
  int port = -1;
  std::thread io;
};

// Waits, for at most 30 s, until the daemon is quiescent: nothing queued
// or running and at least `closed` sessions torn down. Then every job it
// accepted must be accounted for exactly once, shed or finished. Read
// any earlier, the ledger races the jobs of clients that hung up, which
// the daemon keeps running or sheds after they are gone.
void expect_settled_ledger(const ServeServer& server, std::int64_t closed) {
  ServeStats stats = server.stats();
  const double deadline = monotonic_seconds() + 30.0;
  while (!(stats.queued_now == 0 && stats.running_now == 0 &&
           stats.sessions_closed >= closed) &&
         monotonic_seconds() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    stats = server.stats();
  }
  ASSERT_EQ(stats.queued_now, 0);
  ASSERT_EQ(stats.running_now, 0);
  ASSERT_GE(stats.sessions_closed, closed);
  EXPECT_EQ(stats.accepted, stats.completed + stats.shed_disconnect +
                                stats.aborted + stats.failed);
}

Request make_submit(std::int64_t id, std::uint64_t seed, int n = 24) {
  Request request;
  request.type = RequestType::Submit;
  request.id = id;
  request.job.n = n;
  request.job.c = 6;
  request.job.k = 2;
  request.job.seed = seed;
  return request;
}

TEST(ServeDaemon, PingSubmitDoneAndByteIdentity) {
  DaemonFixture daemon;
  Client client(daemon.port);
  ASSERT_TRUE(client.ok()) << client.error();

  ASSERT_TRUE(client.send_line("{\"type\":\"ping\"}\n"));
  auto pong = client.next();
  ASSERT_TRUE(pong.has_value());
  EXPECT_EQ(pong->type, "pong");

  const Request submit = make_submit(5, 99);
  ASSERT_TRUE(client.send_line(encode_request(submit)));
  auto accepted = client.next();
  ASSERT_TRUE(accepted.has_value());
  EXPECT_EQ(accepted->type, "accepted");

  const std::string done_line = client.run_to_done(5);
  // THE contract: the daemon's done frame equals a local run, byte for
  // byte.
  EXPECT_EQ(done_line + "\n", frame_done(5, run_job(submit.job)));
}

TEST(ServeDaemon, ManyConcurrentClientsEachGetTheirOwnBytes) {
  DaemonFixture daemon;
  constexpr int kClients = 8;
  constexpr int kJobsEach = 3;
  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int i = 0; i < kClients; ++i)
    // cograd-lint: allow(R8) concurrency test spawns real client threads to race the daemon
    clients.emplace_back([&, i] {
      Client client(daemon.port);
      if (!client.ok()) {
        ++failures;
        return;
      }
      for (int j = 0; j < kJobsEach; ++j) {
        const Request submit =
            make_submit(j, static_cast<std::uint64_t>(1000 + i * 17 + j));
        if (!client.send_line(encode_request(submit))) {
          ++failures;
          return;
        }
        const std::string done = client.run_to_done(j);
        if (done + "\n" != frame_done(j, run_job(submit.job))) ++failures;
      }
    });
  for (std::thread& t : clients) t.join();
  EXPECT_EQ(failures.load(), 0);
  const ServeStats stats = daemon.server->stats();
  EXPECT_EQ(stats.accepted, kClients * kJobsEach);
  EXPECT_EQ(stats.completed, kClients * kJobsEach);
}

TEST(ServeDaemon, SurvivesAbruptDisconnects) {
  DaemonFixture daemon;
  // A wave of clients that submit and vanish without reading anything.
  for (int i = 0; i < 10; ++i) {
    Client rude(daemon.port);
    ASSERT_TRUE(rude.ok());
    rude.send_line(encode_request(make_submit(0, 7 + i, 32)));
    rude.close();  // gone before accepted/epoch/done could be written
  }
  // The daemon must still serve a polite client correctly.
  Client polite(daemon.port);
  ASSERT_TRUE(polite.ok()) << polite.error();
  const Request submit = make_submit(1, 4242);
  ASSERT_TRUE(polite.send_line(encode_request(submit)));
  const std::string done = polite.run_to_done(1);
  EXPECT_EQ(done + "\n", frame_done(1, run_job(submit.job)));
  // A rude client's job may still be queued or running after the polite
  // one is done; the ten rude sessions must all be closed.
  expect_settled_ledger(*daemon.server, 10);
}

TEST(ServeDaemon, ShedsWhenTheQueueIsFull) {
  ServeOptions options;
  options.tcp_port = 0;
  options.workers = 1;
  options.max_queue = 1;
  DaemonFixture daemon(options);
  Client client(daemon.port);
  ASSERT_TRUE(client.ok());
  // Flood without reading; with one worker and a one-deep queue some of
  // these must come back shed.
  std::string burst;
  for (int i = 0; i < 12; ++i)
    burst += encode_request(make_submit(i, 50 + i, 32));
  ASSERT_TRUE(client.send_line(burst));
  int done = 0, shed = 0;
  for (int i = 0; i < 12; ++i) {
    const std::string line = client.run_to_done(i);
    ASSERT_FALSE(line.empty());
    if (line.find("\"type\":\"done\"") != std::string::npos) ++done;
    if (line.find("\"type\":\"shed\"") != std::string::npos) ++shed;
  }
  EXPECT_EQ(done + shed, 12);
  EXPECT_GT(shed, 0);
  const ServeStats stats = daemon.server->stats();
  EXPECT_EQ(stats.shed, shed);
  EXPECT_EQ(stats.accepted, done);
}

TEST(ServeDaemon, MalformedFramesEarnErrorsThenHangup) {
  DaemonFixture daemon;
  Client client(daemon.port);
  ASSERT_TRUE(client.ok());
  for (int i = 0; i < kMaxProtocolStrikes; ++i)
    ASSERT_TRUE(client.send_line("this is not json\n"));
  int errors = 0;
  while (true) {
    const auto response = client.next();
    if (!response) break;  // daemon hung up after the strike limit
    EXPECT_EQ(response->type, "error");
    ++errors;
  }
  EXPECT_EQ(errors, kMaxProtocolStrikes);
  // The daemon is still alive for a well-behaved client.
  Client fine(daemon.port);
  ASSERT_TRUE(fine.ok());
  ASSERT_TRUE(fine.send_line("{\"type\":\"ping\"}\n"));
  const auto pong = fine.next();
  ASSERT_TRUE(pong.has_value());
  EXPECT_EQ(pong->type, "pong");
}

TEST(ServeDaemon, SubmitCarryingShardsEarnsAnErrorNamingTheKey) {
  // Retired knobs (the shard count, the engine layout) are not job keys:
  // a client still sending one gets a typed error frame, not a silently
  // ignored field.
  DaemonFixture daemon;
  Client client(daemon.port);
  ASSERT_TRUE(client.ok()) << client.error();
  const std::string frame = encode_request(make_submit(4, 9));
  const std::string anchor = "\"pattern\":\"shared-core\"";
  const std::size_t at = frame.find(anchor);
  ASSERT_NE(at, std::string::npos) << frame;
  for (const auto& [key, member] :
       {std::pair<std::string, std::string>{"shards", "\"shards\":2"},
        {"layout", "\"layout\":\"soa\""}}) {
    SCOPED_TRACE(key);
    std::string retired = frame;
    retired.insert(at + anchor.size(), "," + member);
    ASSERT_TRUE(client.send_line(retired));
    const auto response = client.next();
    ASSERT_TRUE(response.has_value());
    EXPECT_EQ(response->type, "error");
    const JsonValue* message = response->body.find("message");
    ASSERT_NE(message, nullptr);
    EXPECT_NE(message->as_string().find("unknown job key '" + key + "'"),
              std::string::npos)
        << message->as_string();
  }
}

TEST(ServeDaemon, CancelAbortsAQueuedJob) {
  ServeOptions options;
  options.tcp_port = 0;
  options.workers = 1;
  DaemonFixture daemon(options);
  Client client(daemon.port);
  ASSERT_TRUE(client.ok());
  // Job 0 occupies the single worker; job 1 waits in the queue and is
  // cancelled before it can start.
  ASSERT_TRUE(client.send_line(encode_request(make_submit(0, 3, 48)) +
                               encode_request(make_submit(1, 4, 48)) +
                               "{\"type\":\"cancel\",\"id\":1}\n"));
  bool job1_aborted = false;
  int finished = 0;
  while (finished < 2) {
    const auto response = client.next();
    ASSERT_TRUE(response.has_value());
    if (response->type != "done") continue;
    ++finished;
    const JsonValue* id = response->body.find("id");
    const JsonValue* result = response->body.find("result");
    ASSERT_NE(id, nullptr);
    ASSERT_NE(result, nullptr);
    if (static_cast<int>(id->as_number()) == 1) {
      const JsonValue* aborted = result->find("aborted");
      ASSERT_NE(aborted, nullptr);
      job1_aborted = aborted->as_bool();
    }
  }
  EXPECT_TRUE(job1_aborted);
}

TEST(ServeDaemon, ShutdownFrameStopsTheServer) {
  ServeOptions options;
  options.tcp_port = 0;
  ServeServer server(options);
  const int port = server.tcp_port();
  // cograd-lint: allow(R8) shutdown test needs a bare IO thread it can watch exit on its own
  std::thread io([&server] { server.run(); });
  Client client(port);
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(client.send_line("{\"type\":\"shutdown\"}\n"));
  const auto bye = client.next();
  ASSERT_TRUE(bye.has_value());
  EXPECT_EQ(bye->type, "bye");
  io.join();  // run() must return on its own — no stop() needed
}

TEST(ServeDaemon, UnixSocketWorksEndToEnd) {
  const std::string path =
      "test-serve-" + std::to_string(::getpid()) + ".sock";
  ServeOptions options;
  options.unix_path = path;
  DaemonFixture daemon(options);
  Client client(path);
  ASSERT_TRUE(client.ok()) << client.error();
  const Request submit = make_submit(9, 123);
  ASSERT_TRUE(client.send_line(encode_request(submit)));
  const std::string done = client.run_to_done(9);
  EXPECT_EQ(done + "\n", frame_done(9, run_job(submit.job)));
}

// --- Loadgen-vs-daemon integration ------------------------------------------

TEST(ServeLoadgen, CleanAndChurnRunsStayAccounted) {
  ServeOptions options;
  options.tcp_port = 0;
  options.workers = 2;
  DaemonFixture daemon(options);

  LoadgenOptions load;
  load.tcp_port = daemon.port;
  load.sessions = 16;
  load.connections = 4;
  load.job.n = 24;
  load.job.c = 6;
  load.job.k = 2;
  const LoadgenReport clean = run_loadgen(load);
  EXPECT_TRUE(clean.ok);
  EXPECT_EQ(clean.completed, 16);
  EXPECT_EQ(clean.verify_failures, 0);

  load.kill_every = 3;
  load.seed = 2;
  const LoadgenReport churn = run_loadgen(load);
  EXPECT_TRUE(churn.ok);
  EXPECT_GT(churn.killed, 0);
  // Each of the 2 x 16 sessions had its own connection; a killed one's
  // job may still be running when run_loadgen returns.
  expect_settled_ledger(*daemon.server, 32);
  EXPECT_EQ(daemon.server->stats().failed, 0);

  // After the churn the daemon still serves a clean wave in full.
  load.kill_every = 0;
  load.seed = 3;
  const LoadgenReport probe = run_loadgen(load);
  EXPECT_TRUE(probe.ok);
  EXPECT_EQ(probe.completed, 16);
  expect_settled_ledger(*daemon.server, 48);
  EXPECT_EQ(daemon.server->stats().failed, 0);
}

// A starved daemon (one worker, a queue of 4) flooded from 16 connections
// keeps an exact ledger: every session ends exactly once, completed or
// shed, no job fails, and every completed result byte-verifies. Whether
// this wave sheds depends on timing, so it is not required here;
// ServeDaemon.ShedsWhenTheQueueIsFull proves shedding deterministically.
TEST(ServeLoadgen, StarvedDaemonKeepsAnExactLedger) {
  ServeOptions options;
  options.tcp_port = 0;
  options.workers = 1;
  options.max_queue = 4;
  DaemonFixture daemon(options);

  LoadgenOptions load;
  load.tcp_port = daemon.port;
  load.sessions = 64;
  load.connections = 16;
  load.job.n = 24;
  load.job.c = 6;
  load.job.k = 2;
  const LoadgenReport report = run_loadgen(load);
  EXPECT_TRUE(report.ok);
  EXPECT_EQ(report.completed + report.shed, 64);
  expect_settled_ledger(*daemon.server, 64);
  EXPECT_EQ(daemon.server->stats().failed, 0);
}

}  // namespace
}  // namespace cogradio
