// Load generator for the `cograd serve` daemon.
//
// Drives many sessions over a pool of concurrent client connections:
// each session opens a fresh connection, submits one job (seeded as a
// pure function of (base seed, session index) via trial_rng, so a run's
// job set is reproducible), streams the epoch telemetry, and checks the
// final `done` frame BYTE-FOR-BYTE against a local run_job of the same
// spec — the determinism contract made executable. With kill_every > 0
// every k-th session hangs up right after its job is accepted, which is
// the disconnect-injection mode the daemon must survive (the churn waves
// of the ServeLoadgen tests and `cograd bench`'s smoke_e37_serve, and the
// CI smoke leg). Latency is sampled with monotonic_seconds, printed and
// never gated.
#pragma once

#include <cstdint>
#include <string>

#include "serve/job.h"
#include "util/stats.h"

namespace cogradio {

struct LoadgenOptions {
  // Daemon address: unix path wins when non-empty, else 127.0.0.1:port.
  std::string unix_path;
  int tcp_port = -1;
  int sessions = 64;     // total jobs to run
  int connections = 4;   // concurrent client connections
  std::uint64_t seed = 1;  // base seed; session i uses trial_rng(seed, i)
  JobSpec job;           // per-session template (seed overwritten)
  int kill_every = 0;    // > 0: every k-th session disconnects after accept
  bool verify = true;    // re-run each completed job locally and compare
};

struct LoadgenReport {
  int sessions = 0;
  int completed = 0;        // done frame received
  int shed = 0;             // daemon refused (queue full / shutting down)
  int killed = 0;           // we hung up on purpose (kill_every)
  int verify_failures = 0;  // done frame != local run_job bytes
  int protocol_errors = 0;  // error frames or malformed responses
  int transport_errors = 0; // connect/send/read failures
  Summary latency;          // seconds per completed session (volatile!)
  double elapsed_seconds = 0;  // whole-run wall time (volatile!)
  // Every session accounted for exactly once and nothing went wrong.
  bool ok = false;
};

LoadgenReport run_loadgen(const LoadgenOptions& options);

// Sends one shutdown frame and waits for the `bye` (best effort).
// Returns false when the daemon could not be reached.
bool request_shutdown(const std::string& unix_path, int tcp_port,
                      std::string* error);

}  // namespace cogradio
