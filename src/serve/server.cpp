#include "serve/server.h"

#include <cerrno>
#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <condition_variable>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <vector>

#include "serve/journal.h"
#include "serve/socket.h"
#include "util/sweep.h"

namespace cogradio {

namespace {

// Why a job was asked to stop before finishing on its own.
enum CancelReason : int {
  kNotCancelled = 0,
  kClientCancel = 1,
  kPeerGone = 2,
  kServerStopping = 3,
};

struct Session;

// One submitted job. `cancel` is the only cross-thread field read
// without the server mutex: the supervisor's epoch observer polls it
// between epochs from a worker thread.
struct JobState {
  std::int64_t id = 0;
  std::int64_t seq = 0;  // journal sequence (0 when journaling is off)
  JobSpec spec;
  std::shared_ptr<Session> session;
  std::atomic<int> cancel{kNotCancelled};
  bool running = false;  // guarded by the server mutex
  // Recovery only: the latest journaled checkpoint payload, set before
  // any worker thread exists and immutable after — the worker resumes
  // the supervised run from it instead of starting fresh.
  std::string resume;
};

// One connected client. The IO thread owns fd/inbuf exclusively; outbuf
// and the flags are shared with workers under the server mutex. The
// object outlives its socket: running jobs hold a shared_ptr, and the
// `closed` flag tells them their frames have nowhere to go.
struct Session {
  int fd = -1;
  std::string inbuf;
  std::string outbuf;     // cograd-guarded-by(mutex)
  bool closed = false;    // fd gone; drop all further frames; cograd-guarded-by(mutex)
  bool draining = false;  // stop parsing input; close once outbuf flushes
  int strikes = 0;        // protocol errors so far
  std::map<std::int64_t, std::shared_ptr<JobState>> jobs;
};

}  // namespace

struct ServeServer::Impl {
  ServeOptions options;
  OwnedFd unix_listener;
  OwnedFd tcp_listener;
  OwnedFd pipe_r, pipe_w;  // self-pipe: workers wake the IO poll()
  int worker_count = 1;

  mutable std::mutex mutex;
  std::condition_variable work_cv;
  std::deque<std::shared_ptr<JobState>> queue;          // cograd-guarded-by(mutex)
  std::map<int, std::shared_ptr<Session>> sessions;     // cograd-guarded-by(mutex)
  ServeStats stats;                                     // cograd-guarded-by(mutex)
  bool stopping = false;                                // cograd-guarded-by(mutex)
  std::vector<std::thread> workers;
  // Crash-recovery state. The journal object is itself thread-safe;
  // next_seq hands each accepted job its journal key. Orphans are jobs
  // replayed from the journal — their original sessions are gone, so
  // they live on per-job ghost sessions (closed from birth, frames
  // dropped) and are tracked here so cancel_everything reaches them.
  std::unique_ptr<JobJournal> journal;
  std::int64_t next_seq = 1;                            // cograd-guarded-by(mutex)
  std::vector<std::shared_ptr<JobState>> orphans;       // cograd-guarded-by(mutex)

  explicit Impl(const ServeOptions& opts) : options(opts) {
    ignore_sigpipe();
    if (options.unix_path.empty() && options.tcp_port < 0)
      throw std::runtime_error("serve: need a unix path or a tcp port");
    std::string error;
    if (!options.unix_path.empty()) {
      unix_listener = listen_unix(options.unix_path, &error);
      if (!unix_listener.valid())
        throw std::runtime_error("serve: " + error);
      set_nonblocking(unix_listener.get());
    }
    if (options.tcp_port >= 0) {
      tcp_listener = listen_tcp(options.tcp_port, &error);
      if (!tcp_listener.valid()) throw std::runtime_error("serve: " + error);
      set_nonblocking(tcp_listener.get());
    }
    int fds[2];
    if (::pipe2(fds, O_NONBLOCK | O_CLOEXEC) != 0)
      throw std::runtime_error("serve: pipe2 failed");
    pipe_r = OwnedFd(fds[0]);
    pipe_w = OwnedFd(fds[1]);
    worker_count = resolve_jobs(options.workers);
    // cograd-lint: allow(R9) constructor runs before any worker thread exists
    stats.workers = worker_count;
    if (!options.journal_path.empty()) {
      JournalRecovery recovery;
      // Replay first: read_journal throws CheckpointError on interior
      // corruption, so a damaged journal refuses to start the daemon
      // instead of silently dropping promised jobs.
      if (options.recover) recovery = read_journal(options.journal_path);
      journal = std::make_unique<JobJournal>(options.journal_path);
      seed_recovered_locked(recovery);
    }
  }

  // Re-queues every journaled job without a `done` record. Named _locked
  // for the guarded-member convention: it runs from the constructor,
  // before any worker thread exists, so the mutex is not (and need not
  // be) held.
  void seed_recovered_locked(const JournalRecovery& recovery) {
    next_seq = recovery.next_seq;
    for (const RecoveredJob& rec : recovery.jobs) {
      if (rec.done) {
        ++stats.recovered_done;  // finished before the crash; never re-run
        continue;
      }
      auto ghost = std::make_shared<Session>();
      ghost->closed = true;  // its peer died with the old process
      auto job = std::make_shared<JobState>();
      job->id = rec.client_id;
      job->seq = rec.seq;
      job->spec = rec.spec;
      job->resume = rec.checkpoint;
      job->session = ghost;
      ghost->jobs[job->id] = job;
      orphans.push_back(job);
      queue.push_back(job);
      ++stats.queued_now;
      if (rec.checkpoint.empty())
        ++stats.recovered_rerun;
      else
        ++stats.recovered_resumed;
    }
  }

  ~Impl() {
    if (!options.unix_path.empty()) ::unlink(options.unix_path.c_str());
  }

  // Wakes the IO thread's poll. Nonblocking; a full pipe already means a
  // wake-up is pending.
  void poke() {
    const char byte = 0;
    [[maybe_unused]] const ssize_t n = ::write(pipe_w.get(), &byte, 1);
  }

  void enqueue_frame_locked(Session& session, const std::string& frame) {
    if (session.closed) return;
    session.outbuf += frame;
  }

  // Tears a session down. `disconnect` distinguishes a vanished peer
  // from a close we initiated (strike limit, shutdown drain).
  void close_session_locked(const std::shared_ptr<Session>& session,
                            bool disconnect) {
    if (session->closed) return;
    session->closed = true;
    for (auto& [id, job] : session->jobs) {
      int expected = kNotCancelled;
      job->cancel.compare_exchange_strong(expected, kPeerGone);
    }
    if (disconnect) ++stats.disconnects;
    ++stats.sessions_closed;
    ::close(session->fd);
    sessions.erase(session->fd);
    session->fd = -1;
  }

  void cancel_everything_locked() {
    for (auto& [fd, session] : sessions)
      for (auto& [id, job] : session->jobs) {
        int expected = kNotCancelled;
        job->cancel.compare_exchange_strong(expected, kServerStopping);
      }
    for (auto& job : orphans) {
      int expected = kNotCancelled;
      job->cancel.compare_exchange_strong(expected, kServerStopping);
    }
  }

  // --- worker side --------------------------------------------------------

  void worker_loop() {
    while (true) {
      std::shared_ptr<JobState> job;
      {
        std::unique_lock<std::mutex> lock(mutex);
        work_cv.wait(lock, [&] { return stopping || !queue.empty(); });
        if (queue.empty()) return;  // stopping, nothing left
        job = queue.front();
        queue.pop_front();
        --stats.queued_now;
        const int reason = job->cancel.load();
        if (reason != kNotCancelled) {
          // Shed before it ever ran.
          if (reason == kPeerGone)
            ++stats.shed_disconnect;
          else
            ++stats.aborted;
          JobResult result;
          result.ok = true;
          result.aborted = true;
          // Journal the abort before anything can reach the client: a
          // cancelled job must not rise from the dead on --recover.
          if (journal != nullptr) journal->done(job->seq, result);
          if (!job->session->closed) {
            enqueue_frame_locked(*job->session, frame_done(job->id, result));
            poke();
          }
          job->session->jobs.erase(job->id);
          continue;
        }
        job->running = true;
        ++stats.running_now;
      }
      if (journal != nullptr) journal->started(job->seq);

      const EpochObserver observer = [this, job](int attempt,
                                                  const EpochStats& epoch) {
        if (job->cancel.load() != kNotCancelled) return false;
        std::lock_guard<std::mutex> lock(mutex);
        if (!job->session->closed) {
          enqueue_frame_locked(*job->session,
                               frame_epoch(job->id, attempt, epoch));
          poke();
        }
        return job->cancel.load() == kNotCancelled;
      };
      CheckpointPolicy policy;
      policy.resume = job->resume;  // empty unless replayed from the journal
      if (journal != nullptr && options.checkpoint_every > 0) {
        policy.every_slots = options.checkpoint_every;
        policy.sink = [this, job](const std::string& payload) {
          journal->checkpoint(job->seq, payload);
        };
      }
      const JobResult result = run_job(job->spec, policy, observer);
      // Durable before visible: the `done` record hits the disk before
      // the `done` frame can reach the client, so a result a client saw
      // is one --recover will never re-run.
      if (journal != nullptr) journal->done(job->seq, result);

      std::lock_guard<std::mutex> lock(mutex);
      --stats.running_now;
      job->running = false;
      if (result.aborted)
        ++stats.aborted;
      else if (!result.ok)
        ++stats.failed;
      else
        ++stats.completed;
      if (!job->session->closed) {
        enqueue_frame_locked(*job->session, frame_done(job->id, result));
        poke();
      }
      job->session->jobs.erase(job->id);
    }
  }

  // --- IO side ------------------------------------------------------------

  void handle_request_locked(const std::shared_ptr<Session>& session,
                             const Request& request) {
    switch (request.type) {
      case RequestType::Submit: {
        if (stopping) {
          ++stats.shed;
          enqueue_frame_locked(*session,
                               frame_shed(request.id, "shutting down"));
          return;
        }
        if (session->jobs.count(request.id) > 0) {
          ++stats.protocol_errors;
          enqueue_frame_locked(
              *session,
              frame_error("duplicate job id " + std::to_string(request.id)));
          return;
        }
        if (stats.queued_now >= options.max_queue) {
          ++stats.shed;
          enqueue_frame_locked(*session,
                               frame_shed(request.id, "queue full"));
          return;
        }
        auto job = std::make_shared<JobState>();
        job->id = request.id;
        job->seq = next_seq++;
        job->spec = request.job;
        job->session = session;
        // The submitted record is fsync'd before the accepted frame can
        // be flushed — an acceptance the client saw is a job --recover
        // will find.
        if (journal != nullptr)
          journal->submitted(job->seq, job->id, job->spec);
        session->jobs[request.id] = job;
        queue.push_back(job);
        ++stats.queued_now;
        ++stats.accepted;
        enqueue_frame_locked(*session,
                             frame_accepted(request.id, stats.queued_now));
        work_cv.notify_one();
        return;
      }
      case RequestType::Cancel: {
        const auto it = session->jobs.find(request.id);
        if (it != session->jobs.end()) {
          int expected = kNotCancelled;
          it->second->cancel.compare_exchange_strong(expected, kClientCancel);
        }
        enqueue_frame_locked(
            *session,
            frame_status(request.id, it != session->jobs.end()
                                         ? "cancelling"
                                         : "unknown"));
        return;
      }
      case RequestType::Status: {
        const auto it = session->jobs.find(request.id);
        std::string state = "unknown";  // finished jobs already reported
        if (it != session->jobs.end())
          state = it->second->running ? "running" : "queued";
        enqueue_frame_locked(*session, frame_status(request.id, state));
        return;
      }
      case RequestType::Stats:
        enqueue_frame_locked(*session, frame_stats(stats));
        return;
      case RequestType::Ping:
        enqueue_frame_locked(*session, frame_pong());
        return;
      case RequestType::Shutdown:
        enqueue_frame_locked(*session, frame_bye());
        session->draining = true;
        stopping = true;
        cancel_everything_locked();
        work_cv.notify_all();
        return;
    }
  }

  void handle_line(const std::shared_ptr<Session>& session,
                   const std::string& line) {
    std::string error;
    const auto request = parse_request(line, &error);
    std::lock_guard<std::mutex> lock(mutex);
    if (session->closed) return;
    if (!request) {
      ++stats.protocol_errors;
      ++session->strikes;
      enqueue_frame_locked(*session, frame_error(error));
      if (session->strikes >= kMaxProtocolStrikes) session->draining = true;
      return;
    }
    handle_request_locked(session, *request);
  }

  void read_session(const std::shared_ptr<Session>& session) {
    char chunk[16384];
    bool peer_gone = false;
    while (true) {
      const ssize_t n = ::recv(session->fd, chunk, sizeof(chunk), 0);
      if (n > 0) {
        if (!session->draining)
          session->inbuf.append(chunk, static_cast<std::size_t>(n));
        // Stop pulling once a frame-sized chunk with no newline piled up;
        // the check below turns it into a protocol error.
        if (session->inbuf.size() > kMaxFrameBytes) break;
        continue;
      }
      if (n == 0) {
        peer_gone = true;
        break;
      }
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      peer_gone = true;  // hard error: treat as a disconnect
      break;
    }

    std::size_t start = 0;
    while (true) {
      const std::size_t pos = session->inbuf.find('\n', start);
      if (pos == std::string::npos) break;
      const std::string line = session->inbuf.substr(start, pos - start);
      start = pos + 1;
      handle_line(session, line);
      std::lock_guard<std::mutex> lock(mutex);
      if (session->closed || session->draining) break;
    }
    session->inbuf.erase(0, start);

    std::lock_guard<std::mutex> lock(mutex);
    if (session->closed) return;
    if (peer_gone) {
      // A peer that leaves with jobs in flight or frames unread dropped
      // mid-stream; one that drained everything just hung up politely.
      const bool mid_stream =
          !session->jobs.empty() || !session->outbuf.empty();
      close_session_locked(session, /*disconnect=*/mid_stream);
      return;
    }
    if (session->inbuf.size() >= kMaxFrameBytes) {
      ++stats.protocol_errors;
      enqueue_frame_locked(*session, frame_error("frame exceeds size cap"));
      session->inbuf.clear();
      session->draining = true;
    }
  }

  void write_session(const std::shared_ptr<Session>& session) {
    std::lock_guard<std::mutex> lock(mutex);
    if (session->closed) return;
    while (!session->outbuf.empty()) {
      const ssize_t n = ::send(session->fd, session->outbuf.data(),
                               session->outbuf.size(), MSG_NOSIGNAL);
      if (n > 0) {
        session->outbuf.erase(0, static_cast<std::size_t>(n));
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
      close_session_locked(session, /*disconnect=*/true);
      return;
    }
    if (session->draining) close_session_locked(session, /*disconnect=*/false);
  }

  void accept_ready(int listener) {
    while (true) {
      const int fd = ::accept(listener, nullptr, nullptr);
      if (fd < 0) {
        if (errno == EINTR) continue;
        return;  // EAGAIN or transient accept failure: poll again later
      }
      set_nonblocking(fd);
      std::lock_guard<std::mutex> lock(mutex);
      if (stopping ||
          static_cast<int>(sessions.size()) >= options.max_sessions) {
        const std::string refusal = frame_error("server at capacity");
        ::send(fd, refusal.data(), refusal.size(), MSG_NOSIGNAL);
        ::close(fd);
        continue;
      }
      auto session = std::make_shared<Session>();
      session->fd = fd;
      sessions[fd] = session;
      ++stats.sessions_opened;
    }
  }

  void io_loop() {
    // After `stopping`, keep flushing for up to this many 100ms poll
    // rounds before abandoning unflushable peers. Counted in iterations,
    // not wall time — the IO loop takes no clock readings.
    constexpr int kDrainRounds = 50;
    int rounds_stopping = 0;
    std::vector<pollfd> pfds;
    std::vector<std::shared_ptr<Session>> polled;
    while (true) {
      // Graceful drain: a signal handler set the flag, so stop taking
      // work but let queued and running jobs finish — stopping without
      // cancel_everything_locked() is exactly that, and the exit
      // condition below then waits for the queue and workers to empty.
      if (options.drain_flag != nullptr && *options.drain_flag != 0) {
        std::lock_guard<std::mutex> lock(mutex);
        if (!stopping) {
          stopping = true;
          work_cv.notify_all();
        }
      }
      pfds.clear();
      polled.clear();
      bool accepting;
      {
        std::lock_guard<std::mutex> lock(mutex);
        accepting = !stopping;
        bool output_pending = false;
        for (const auto& [fd, session] : sessions) {
          short events = POLLIN;
          if (!session->outbuf.empty()) {
            events |= POLLOUT;
            output_pending = true;
          }
          pfds.push_back({fd, events, 0});
          polled.push_back(session);
        }
        if (stopping && queue.empty() && stats.running_now == 0 &&
            (!output_pending || rounds_stopping >= kDrainRounds)) {
          for (const auto& [fd, session] : std::map<int, std::shared_ptr<Session>>(sessions))
            close_session_locked(session, /*disconnect=*/false);
          return;
        }
      }
      if (!accepting) ++rounds_stopping;
      const std::size_t fixed = pfds.size();
      pfds.push_back({pipe_r.get(), POLLIN, 0});
      if (accepting && unix_listener.valid())
        pfds.push_back({unix_listener.get(), POLLIN, 0});
      if (accepting && tcp_listener.valid())
        pfds.push_back({tcp_listener.get(), POLLIN, 0});

      int rc;
      do {
        rc = ::poll(pfds.data(), pfds.size(), 100);
      } while (rc < 0 && errno == EINTR);
      if (rc < 0) continue;

      // Drain the self-pipe and accept new peers.
      for (std::size_t i = fixed; i < pfds.size(); ++i) {
        if ((pfds[i].revents & POLLIN) == 0) continue;
        if (pfds[i].fd == pipe_r.get()) {
          char sink[256];
          while (::read(pipe_r.get(), sink, sizeof(sink)) > 0) {
          }
        } else {
          accept_ready(pfds[i].fd);
        }
      }
      // Service sessions. A session may close mid-pass; the shared_ptr
      // keeps the object valid and `closed` makes later steps no-ops.
      for (std::size_t i = 0; i < fixed; ++i) {
        const short revents = pfds[i].revents;
        if (revents == 0) continue;
        if ((revents & (POLLIN | POLLERR | POLLHUP)) != 0)
          read_session(polled[i]);
        if ((revents & POLLOUT) != 0) write_session(polled[i]);
      }
    }
  }

  void run() {
    workers.reserve(static_cast<std::size_t>(worker_count));
    for (int i = 0; i < worker_count; ++i)
      workers.emplace_back([this] { worker_loop(); });
    io_loop();
    {
      std::lock_guard<std::mutex> lock(mutex);
      stopping = true;
      cancel_everything_locked();
    }
    work_cv.notify_all();
    for (std::thread& t : workers) t.join();
    workers.clear();
    // Every journaled job now has a done record (workers drain the queue
    // before exiting, shedding cancelled jobs with aborted results), so
    // the marker is truthful: nothing is owed after this point.
    if (journal != nullptr) journal->clean_shutdown();
  }

  void stop() {
    {
      std::lock_guard<std::mutex> lock(mutex);
      stopping = true;
      cancel_everything_locked();
    }
    work_cv.notify_all();
    poke();
  }
};

ServeServer::ServeServer(const ServeOptions& options)
    : impl_(new Impl(options)) {}

ServeServer::~ServeServer() { delete impl_; }

int ServeServer::tcp_port() const {
  return impl_->tcp_listener.valid() ? local_port(impl_->tcp_listener.get())
                                     : -1;
}

int ServeServer::workers() const { return impl_->worker_count; }

void ServeServer::run() { impl_->run(); }

void ServeServer::stop() { impl_->stop(); }

ServeStats ServeServer::stats() const {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  return impl_->stats;
}

ServeWaves run_serve_waves(const ServeOptions& options, LoadgenOptions load) {
  ServeServer server(options);
  std::thread io([&server] { server.run(); });
  load.unix_path = options.unix_path;
  load.tcp_port = options.unix_path.empty() ? server.tcp_port() : -1;
  ServeWaves waves;
  try {
    load.kill_every = 0;
    waves.clean = run_loadgen(load);
    load.kill_every = 3;
    load.seed += 1;
    waves.churn = run_loadgen(load);
    std::string error;
    waves.said_bye = request_shutdown(load.unix_path, load.tcp_port, &error);
  } catch (...) {
    server.stop();  // the IO thread must be joined before it is destroyed
    io.join();
    throw;
  }
  if (!waves.said_bye) server.stop();
  io.join();
  waves.daemon = server.stats();
  return waves;
}

}  // namespace cogradio
