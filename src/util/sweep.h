// Deterministic parallel Monte-Carlo sweep runner.
//
// Every experiment harness repeats independent trials over randomized
// topologies; trials share nothing but a base seed. ParallelSweep fans
// those trials out across a small thread pool while keeping results
// bit-identical for any worker count: trial t draws all of its randomness
// from trial_rng(base_seed, t), a pure function of (base_seed, t), and
// samples are collected in trial order — so medians never depend on
// scheduling. `--jobs 1` and `--jobs 4` print the same tables.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <optional>
#include <thread>
#include <type_traits>
#include <vector>

#include "util/rng.h"

namespace cogradio {

// Resolves a --jobs value: <= 0 means "all hardware threads" (at least 1).
int resolve_jobs(int jobs);

// The private generator for trial `index` of a sweep. A fresh parent per
// call makes the child a pure function of (base_seed, index) via Rng::split,
// independent of how many trials ran before it or on which thread.
Rng trial_rng(std::uint64_t base_seed, std::uint64_t index);

// Fixed-size worker pool executing indexed task batches. The calling thread
// participates in each batch, so ParallelSweep(1) never spawns a thread and
// runs everything inline.
class ParallelSweep {
 public:
  explicit ParallelSweep(int jobs = 1);
  ~ParallelSweep();

  ParallelSweep(const ParallelSweep&) = delete;
  ParallelSweep& operator=(const ParallelSweep&) = delete;

  int jobs() const { return jobs_; }

  // Invokes body(index) for every index in [0, count), distributing indices
  // across the pool; blocks until all are done. Bodies run concurrently and
  // must not throw; writing to disjoint per-index slots needs no locking.
  void run(int count, const std::function<void(int)>& body);

 private:
  void worker_loop();

  int jobs_ = 1;
  std::vector<std::thread> workers_;
  std::mutex mutex_;
  std::condition_variable work_cv_;  // workers wait here for a new batch
  std::condition_variable done_cv_;  // run() waits here for batch completion
  const std::function<void(int)>* body_ = nullptr;  // cograd-guarded-by(mutex_)
  int count_ = 0;   // cograd-guarded-by(mutex_)
  int next_ = 0;    // next index to claim; cograd-guarded-by(mutex_)
  int active_ = 0;  // claimed but not yet finished; cograd-guarded-by(mutex_)
  bool stop_ = false;  // cograd-guarded-by(mutex_)
};

// Runs `trials` independent executions of `fn` fanned out over `jobs`
// workers and returns every trial's outcome in trial order. `fn(rng)`
// receives trial t's private generator, rng = trial_rng(base_seed, t), and
// its return type is the outcome type; each trial writes only its own
// element, so the vector is the same for any `jobs` value. Outcomes must
// be default-constructible, and not bool: concurrent writes to distinct
// std::vector<bool> elements race on the shared word.
template <typename Fn>
auto sweep_outcomes(int trials, std::uint64_t base_seed, int jobs, Fn&& fn) {
  using Outcome = std::decay_t<std::invoke_result_t<Fn&, Rng&>>;
  static_assert(!std::is_same_v<Outcome, bool>,
                "std::vector<bool> elements share words; return a struct");
  std::vector<Outcome> outcomes(
      static_cast<std::size_t>(trials > 0 ? trials : 0));
  ParallelSweep pool(jobs);
  pool.run(trials, [&](int t) {
    Rng rng = trial_rng(base_seed, static_cast<std::uint64_t>(t));
    outcomes[static_cast<std::size_t>(t)] = fn(rng);
  });
  return outcomes;
}

// sweep_outcomes for a std::optional<double> sample per trial: the
// nullopt samples (censored trials that hit a slot cap, say) are dropped
// and the rest kept in trial order.
template <typename Fn>
std::vector<double> sweep_trials(int trials, std::uint64_t base_seed, int jobs,
                                 Fn&& fn) {
  std::vector<double> samples;
  for (const std::optional<double> s :
       sweep_outcomes(trials, base_seed, jobs, fn))
    if (s) samples.push_back(*s);
  return samples;
}

}  // namespace cogradio
