#include "util/sweep.h"

namespace cogradio {

int resolve_jobs(int jobs) {
  if (jobs > 0) return jobs;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

Rng trial_rng(std::uint64_t base_seed, std::uint64_t index) {
  return Rng(base_seed).split(index);
}

ParallelSweep::ParallelSweep(int jobs) : jobs_(resolve_jobs(jobs)) {
  // Worker 0 is the caller, so spawn jobs_ - 1 threads.
  workers_.reserve(static_cast<std::size_t>(jobs_ - 1));
  for (int w = 1; w < jobs_; ++w)
    workers_.emplace_back([this] { worker_loop(); });
}

ParallelSweep::~ParallelSweep() {
  {
    std::lock_guard lock(mutex_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (auto& t : workers_) t.join();
}

void ParallelSweep::worker_loop() {
  std::unique_lock lock(mutex_);
  for (;;) {
    work_cv_.wait(lock,
                  [&] { return stop_ || (body_ != nullptr && next_ < count_); });
    if (stop_) return;
    while (next_ < count_) {
      const int index = next_++;
      ++active_;
      lock.unlock();
      (*body_)(index);
      lock.lock();
      --active_;
    }
    if (active_ == 0) done_cv_.notify_all();
  }
}

void ParallelSweep::run(int count, const std::function<void(int)>& body) {
  if (count <= 0) return;
  if (workers_.empty()) {
    for (int i = 0; i < count; ++i) body(i);
    return;
  }
  std::unique_lock lock(mutex_);
  body_ = &body;
  count_ = count;
  next_ = 0;
  work_cv_.notify_all();
  // The calling thread claims indices too rather than idling.
  while (next_ < count_) {
    const int index = next_++;
    ++active_;
    lock.unlock();
    body(index);
    lock.lock();
    --active_;
  }
  done_cv_.wait(lock, [&] { return next_ >= count_ && active_ == 0; });
  body_ = nullptr;
  count_ = 0;
  next_ = 0;
}

}  // namespace cogradio
