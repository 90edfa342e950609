// The `cograd serve` daemon: one process multiplexing many concurrent
// CogCast/CogComp sessions onto a core-capped worker pool.
//
// Threading model: one IO thread (the caller of run()) owns every socket
// — it accepts, reads, frames, parses, and writes; workers never touch
// an fd. Workers pull jobs from a shared deque and push response frames
// into per-session outbound buffers under the server mutex, then poke a
// self-pipe so the IO thread's poll() wakes and flushes.
//
// Robustness: a peer may vanish at any instant. Reads see EOF, writes
// see EPIPE (SIGPIPE is ignored; see serve/socket.h) — both funnel into
// the same disconnect path: the session is closed, its queued jobs are
// shed, and its running jobs are cancelled at the next epoch boundary
// via the supervisor's EpochObserver. The daemon itself never exits on
// a peer's behavior; only a shutdown frame or stop() ends run().
//
// Determinism: a job's result depends only on its JobSpec (serve/job.h)
// — never on worker count, session interleaving, or queue order — so a
// `done` frame is byte-identical to a local `run_job` of the same spec.
#pragma once

#include <csignal>
#include <cstdint>
#include <string>

#include "serve/loadgen.h"
#include "serve/protocol.h"

namespace cogradio {

struct ServeOptions {
  // Listener selection: a non-empty unix path, a TCP port (0 =
  // ephemeral), or both. At least one must be enabled.
  std::string unix_path;
  int tcp_port = -1;  // < 0 disables TCP
  // Worker pool size; <= 0 means all hardware threads (resolve_jobs).
  int workers = 0;
  // Jobs queued (not yet running) before submits are shed.
  int max_queue = 1024;
  // Concurrent sessions before new connections are turned away.
  int max_sessions = 4096;
  // Crash recovery (serve/journal.h). A non-empty journal_path makes the
  // daemon log every job's lifecycle to an fsync'd append-only journal;
  // with `recover` it first replays that journal, re-queueing every job
  // that lacks a `done` record (resumed from its latest checkpoint
  // payload when one was journaled). checkpoint_every > 0 snapshots each
  // running job's supervisor state into the journal at that slot cadence.
  std::string journal_path;
  bool recover = false;
  Slot checkpoint_every = 0;
  // Graceful drain: when non-null, the IO loop polls this flag each
  // round (a SIGTERM/SIGINT handler sets it) and, once set, stops
  // accepting work but lets queued and running jobs finish before run()
  // returns — the opposite of stop(), which cancels everything.
  const volatile std::sig_atomic_t* drain_flag = nullptr;
};

class ServeServer {
 public:
  // Binds the listeners; throws std::runtime_error on bind failure.
  explicit ServeServer(const ServeOptions& options);
  ~ServeServer();

  ServeServer(const ServeServer&) = delete;
  ServeServer& operator=(const ServeServer&) = delete;

  // The resolved TCP port (useful with tcp_port = 0); -1 if disabled.
  int tcp_port() const;
  int workers() const;

  // Runs the IO loop on the calling thread until a shutdown frame or
  // stop() arrives; starts and joins the worker pool internally.
  void run();

  // Thread-safe asynchronous stop: cancels all work, drains best-effort,
  // and makes run() return.
  void stop();

  ServeStats stats() const;

 private:
  struct Impl;
  Impl* impl_;
};

// What run_serve_waves saw: both loadgen reports, whether the daemon took
// the shutdown frame, and the daemon's counters.
struct ServeWaves {
  LoadgenReport clean;  // every session runs to its done frame
  LoadgenReport churn;  // every third session hangs up after accept
  bool said_bye = false;
  ServeStats daemon;  // counters after the daemon stopped
};

// The in-process serve wave of `cograd serve --smoke` and the smoke
// suite's smoke_e37_serve: boots a ServeServer on `options`, hosts its IO
// loop on a thread, and drives two loadgen waves from the `load` template
// at the daemon's own address, a clean one at load.seed and then a
// kill-every-3 one at load.seed + 1. A shutdown frame ends the daemon;
// when the frame is not delivered, stop() does, so the join cannot hang.
ServeWaves run_serve_waves(const ServeOptions& options, LoadgenOptions load);

}  // namespace cogradio
