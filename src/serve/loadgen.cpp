#include "serve/loadgen.h"

#include <algorithm>
#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "serve/protocol.h"
#include "serve/socket.h"
#include "util/bench_report.h"
#include "util/sweep.h"

namespace cogradio {

namespace {

// How one session ended; exactly one of these per session.
enum class SessionEnd { Completed, Shed, Killed, ProtocolError, Transport };

struct SessionRecord {
  SessionEnd end = SessionEnd::Transport;
  bool verify_failed = false;
  double latency = 0.0;  // submit -> done, completed sessions only
};

OwnedFd dial(const LoadgenOptions& options, std::string* error) {
  if (!options.unix_path.empty())
    return connect_unix(options.unix_path, error);
  return connect_tcp(options.tcp_port, error);
}

// Runs session `index` on its own fresh connection.
SessionRecord run_session(const LoadgenOptions& options, int index) {
  SessionRecord record;
  std::string error;
  OwnedFd fd = dial(options, &error);
  if (!fd.valid()) return record;  // Transport

  JobSpec spec = options.job;
  spec.seed = trial_rng(options.seed, static_cast<std::uint64_t>(index))();
  Request submit;
  submit.type = RequestType::Submit;
  submit.id = index;
  submit.job = spec;

  const bool kill = options.kill_every > 0 &&
                    (index + 1) % options.kill_every == 0;
  const double started = monotonic_seconds();
  if (!send_all(fd.get(), encode_request(submit))) return record;

  LineReader reader(fd.get(), kMaxFrameBytes);
  bool accepted = false;
  while (true) {
    const auto line = reader.next_line();
    if (!line) return record;  // Transport: daemon vanished mid-session
    const auto response = parse_response(*line, &error);
    if (!response) {
      record.end = SessionEnd::ProtocolError;
      return record;
    }
    if (response->type == "accepted") {
      accepted = true;
      if (kill) {
        // The injection: vanish right after the daemon committed to the
        // job. Closing the fd is the whole point — the daemon must shed
        // the queued work or abort the running epoch, and keep serving.
        record.end = SessionEnd::Killed;
        return record;
      }
      continue;
    }
    if (response->type == "epoch") continue;  // telemetry stream
    if (response->type == "shed") {
      record.end = SessionEnd::Shed;
      return record;
    }
    if (response->type == "done") {
      record.latency = monotonic_seconds() - started;
      record.end = SessionEnd::Completed;
      if (!accepted) record.end = SessionEnd::ProtocolError;
      if (options.verify) {
        // Byte-identity check: the daemon's done frame must equal the
        // frame a local run of the same spec would produce.
        const JobResult local = run_job(spec);
        if (*line + "\n" != frame_done(index, local))
          record.verify_failed = true;
      }
      return record;
    }
    record.end = SessionEnd::ProtocolError;  // error or unknown frame
    return record;
  }
}

}  // namespace

LoadgenReport run_loadgen(const LoadgenOptions& options) {
  ignore_sigpipe();
  LoadgenReport report;
  report.sessions = options.sessions;
  if (options.sessions <= 0) {
    report.ok = true;
    return report;
  }
  const double started = monotonic_seconds();
  std::vector<SessionRecord> records(
      static_cast<std::size_t>(options.sessions));
  std::atomic<int> next{0};
  const int connections =
      std::max(1, std::min(options.connections, options.sessions));
  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(connections));
  for (int t = 0; t < connections; ++t)
    // cograd-lint: allow(R8) open-loop client connections must block on sockets, which ParallelSweep bodies may not
    pool.emplace_back([&] {
      while (true) {
        const int index = next.fetch_add(1);
        if (index >= options.sessions) return;
        records[static_cast<std::size_t>(index)] =
            run_session(options, index);
      }
    });
  for (std::thread& t : pool) t.join();
  report.elapsed_seconds = monotonic_seconds() - started;

  std::vector<double> latencies;
  for (const SessionRecord& record : records) {
    switch (record.end) {
      case SessionEnd::Completed:
        ++report.completed;
        latencies.push_back(record.latency);
        break;
      case SessionEnd::Shed:
        ++report.shed;
        break;
      case SessionEnd::Killed:
        ++report.killed;
        break;
      case SessionEnd::ProtocolError:
        ++report.protocol_errors;
        break;
      case SessionEnd::Transport:
        ++report.transport_errors;
        break;
    }
    if (record.verify_failed) ++report.verify_failures;
  }
  report.latency = summarize(latencies);
  report.ok = report.completed + report.shed + report.killed ==
                  report.sessions &&
              report.verify_failures == 0 && report.protocol_errors == 0 &&
              report.transport_errors == 0;
  return report;
}

bool request_shutdown(const std::string& unix_path, int tcp_port,
                      std::string* error) {
  ignore_sigpipe();
  OwnedFd fd = unix_path.empty() ? connect_tcp(tcp_port, error)
                                 : connect_unix(unix_path, error);
  if (!fd.valid()) return false;
  Request request;
  request.type = RequestType::Shutdown;
  if (!send_all(fd.get(), encode_request(request))) {
    if (error != nullptr) *error = "shutdown frame not delivered";
    return false;
  }
  LineReader reader(fd.get(), kMaxFrameBytes);
  [[maybe_unused]] const auto bye = reader.next_line();  // best-effort wait
  return true;
}

}  // namespace cogradio
