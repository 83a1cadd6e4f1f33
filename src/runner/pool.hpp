// WorkerPool: fixed-size thread pool for embarrassingly-parallel batches.
//
// The experiment runner's execution engine. A pool owns `jobs` persistent
// worker threads; `run(count, fn)` executes fn(0..count-1) across them and
// returns when every index has finished. Indices are claimed with a single
// atomic fetch-add (no per-task locking, no allocation after dispatch), so
// the scheduling order is nondeterministic — which is why everything the
// runner computes is keyed by trial index, never by completion order
// (docs/RUNNER.md "Determinism").
//
// Exception contract: the first exception thrown by any fn invocation is
// captured, remaining unclaimed indices are abandoned, and run() rethrows
// it on the calling thread once all workers are idle again. The pool stays
// usable for further batches afterwards.
//
// Locking discipline (docs/STATIC_ANALYSIS.md "Concurrency analysis"):
// one harp::Mutex (rank kWorkerPool) guards the batch handshake; the
// per-index claim stays lock-free on `next_`/`abort_`. The batch
// parameters are copied out under the lock when a worker joins a batch
// and passed by value into the claim loop, so the hot path reads no
// guarded state. A batch is open from dispatch until its indices are
// drained and every worker that joined it has left; run_indexed then
// closes it under the lock, and a worker that wakes later skips it. So
// every worker either runs in a generation or skips it, and none can
// outlive the batch parameters or claim a later batch's indices with an
// earlier batch's function.
#pragma once

#include <atomic>
#include <cstddef>
#include <exception>
#include <functional>
#include <vector>

#include "common/sync.hpp"
#include "common/thread_annotations.hpp"

namespace harp::runner {

class WorkerPool {
 public:
  /// Spawns `jobs` worker threads (at least 1; a 1-job pool is a valid,
  /// if pointless, way to serialize a batch).
  explicit WorkerPool(std::size_t jobs);
  /// Joins all workers. Must not be called while run() is in flight.
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  std::size_t jobs() const { return threads_.size(); }

  /// Runs fn(i) for every i in [0, count) across the pool and blocks until
  /// all claimed indices have finished. Rethrows the first exception any
  /// invocation threw. Not reentrant: one batch at a time per pool.
  void run(std::size_t count, const std::function<void(std::size_t)>& fn);

  /// Like run(), but fn also receives the executing worker's slot in
  /// [0, jobs()). Slots let callers keep per-worker state (scratch arenas,
  /// obs::Context) without thread_local or locking: a slot runs at most one
  /// fn invocation at a time, and batch completion establishes
  /// happens-before between everything the workers wrote and the caller.
  void run_indexed(
      std::size_t count,
      const std::function<void(std::size_t, std::size_t)>& fn);

  /// Hardware concurrency with a sane floor (>= 1).
  static std::size_t default_jobs();

 private:
  void worker_loop(std::size_t slot);
  /// Claims and runs indices of the current batch. Parameters are the
  /// batch state copied out under mu_ by worker_loop; only the atomics
  /// are shared, so the claim loop needs no lock.
  void work_off_batch(std::size_t slot,
                      const std::function<void(std::size_t, std::size_t)>& fn,
                      std::size_t count) HARP_EXCLUDES(mu_);

  Mutex mu_{LockRank::kWorkerPool, "runner.WorkerPool.mu"};
  CondVar batch_ready_;
  CondVar batch_done_;
  std::vector<Thread> threads_;

  // Batch handshake state.
  const std::function<void(std::size_t, std::size_t)>* fn_
      HARP_GUARDED_BY(mu_){nullptr};
  std::size_t count_ HARP_GUARDED_BY(mu_){0};
  std::uint64_t generation_ HARP_GUARDED_BY(mu_){0};  // workers wake once
  bool open_ HARP_GUARDED_BY(mu_){false};  // batch still accepts joiners
  std::size_t busy_ HARP_GUARDED_BY(mu_){0};  // workers inside the batch
  bool stop_ HARP_GUARDED_BY(mu_){false};
  std::exception_ptr first_error_
      HARP_GUARDED_BY(mu_);  // first failure of the current batch

  // Hot path: workers claim indices lock-free.
  std::atomic<std::size_t> next_{0};
  std::atomic<bool> abort_{false};
};

}  // namespace harp::runner
