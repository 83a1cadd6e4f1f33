#include "runner/pool.hpp"

#include "common/error.hpp"

namespace harp::runner {

WorkerPool::WorkerPool(std::size_t jobs) {
  if (jobs == 0) throw InvalidArgument("WorkerPool needs at least one job");
  threads_.reserve(jobs);
  for (std::size_t i = 0; i < jobs; ++i) {
    threads_.emplace_back([this, i] { worker_loop(i); });
  }
}

WorkerPool::~WorkerPool() {
  {
    MutexLock lock(mu_);
    stop_ = true;
  }
  batch_ready_.notify_all();
  for (Thread& t : threads_) t.join();
}

std::size_t WorkerPool::default_jobs() { return hardware_threads(); }

void WorkerPool::work_off_batch(
    std::size_t slot, const std::function<void(std::size_t, std::size_t)>& fn,
    std::size_t count) {
  // Hot path: claim one index per fetch-add; no lock until the batch
  // drains or aborts.
  while (!abort_.load(std::memory_order_relaxed)) {
    const std::size_t i = next_.fetch_add(1, std::memory_order_relaxed);
    if (i >= count) break;
    try {
      fn(slot, i);
    } catch (...) {
      MutexLock lock(mu_);
      if (!first_error_) first_error_ = std::current_exception();
      abort_.store(true, std::memory_order_relaxed);
    }
  }
}

void WorkerPool::worker_loop(std::size_t slot) {
  std::uint64_t seen_generation = 0;
  for (;;) {
    const std::function<void(std::size_t, std::size_t)>* fn;
    std::size_t count;
    {
      MutexLock lock(mu_);
      while (!stop_ && generation_ == seen_generation) batch_ready_.wait(mu_);
      if (stop_) return;
      seen_generation = generation_;
      // A worker that wakes only after run_indexed closed the batch skips
      // it: the parameters may already be gone, and `next_` may already
      // count a later batch's indices.
      if (!open_) continue;
      // Copy the batch parameters out while the dispatch lock is held:
      // run_indexed keeps them stable until the batch closes, which waits
      // for every worker that joined, but the claim loop itself must not
      // touch guarded state.
      fn = fn_;
      count = count_;
      ++busy_;
    }
    work_off_batch(slot, *fn, count);
    {
      MutexLock lock(mu_);
      --busy_;
    }
    batch_done_.notify_all();
  }
}

void WorkerPool::run(std::size_t count,
                     const std::function<void(std::size_t)>& fn) {
  run_indexed(count,
              [&fn](std::size_t /*slot*/, std::size_t index) { fn(index); });
}

void WorkerPool::run_indexed(
    std::size_t count, const std::function<void(std::size_t, std::size_t)>& fn) {
  if (count == 0) return;
  {
    MutexLock lock(mu_);
    fn_ = &fn;
    count_ = count;
    first_error_ = nullptr;
    abort_.store(false, std::memory_order_relaxed);
    next_.store(0, std::memory_order_relaxed);
    open_ = true;
    ++generation_;
  }
  batch_ready_.notify_all();

  // Close the batch once its indices are drained (or aborted) and every
  // worker that joined has left. Joining and closing both happen under
  // mu_, so each worker either joined before the close — and is waited
  // for here — or sees the batch closed and skips it; none can read the
  // parameters or claim from `next_` after this returns.
  MutexLock lock(mu_);
  while (busy_ != 0 || (!abort_.load(std::memory_order_relaxed) &&
                        next_.load(std::memory_order_relaxed) < count_)) {
    batch_done_.wait(mu_);
  }
  open_ = false;
  fn_ = nullptr;
  if (first_error_) {
    std::exception_ptr err = first_error_;
    first_error_ = nullptr;
    std::rethrow_exception(err);
  }
}

}  // namespace harp::runner
