// Annotated synchronization primitives + the runtime lock-rank checker
// (docs/STATIC_ANALYSIS.md "Concurrency analysis").
//
// Every mutex in the tree is a `harp::Mutex`: a std::mutex carrying
//   * Clang Thread Safety Analysis capability annotations
//     (common/thread_annotations.hpp), so `-Wthread-safety` proves at
//     compile time that guarded state is only touched under its lock, and
//   * a documented *lock rank*. Checked builds (HARP_AUDIT, default ON
//     except Release) keep a per-thread stack of held ranks; acquiring
//     a mutex whose rank is not strictly greater than every rank
//     already held is a lock-order violation:
//     one `lock_order_fail` trace event (docs/OBSERVABILITY.md), an
//     error log, then the HARP_ASSERT failure path (throw, or abort
//     under HARP_ASSERT_ABORT). Ranks impose a global acquisition order,
//     which makes cross-subsystem deadlock impossible by construction —
//     the runtime backstop behind the static story.
//
// The rank table (LockRank) is the repo's whole locking hierarchy; a new
// mutex must pick a slot here and document it in the table in
// docs/STATIC_ANALYSIS.md. Raw std::mutex/std::condition_variable/
// std::thread outside src/common are rejected by scripts/harp_lint.py.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <thread>

#include "common/thread_annotations.hpp"

#ifndef HARP_LOCK_RANK_ENABLED
#define HARP_LOCK_RANK_ENABLED 1
#endif

namespace harp {

/// The global lock hierarchy, outermost first: on one thread, ranks of
/// held locks must be strictly increasing in acquisition order. Gaps
/// leave room for future layers.
/// Keep in sync with the lock-rank table in docs/STATIC_ANALYSIS.md.
enum class LockRank : std::uint32_t {
  /// fleet::Fleet shard queues — outermost: held only around queue
  /// swaps/enqueues and progress waits, never while executing ops.
  kFleetShard = 100,
  /// obs intern tables — leaf: interning may be reached from any
  /// subsystem's first instrument resolution.
  kObsIntern = 400,
};

class Mutex;

/// One lock-order violation, as handed to the reporter: the innermost
/// lock already held and the one whose acquisition broke the order.
struct LockOrderViolation {
  const char* held_name;
  std::uint32_t held_rank;
  const char* acquiring_name;
  std::uint32_t acquiring_rank;
};

/// Reporter invoked (still on the acquiring thread, violating lock NOT
/// held) before the violation fails through the HARP_ASSERT path. The
/// obs layer installs a reporter that emits the `lock_order_fail` trace
/// event; the default logs only. Reporters must not acquire locks.
using LockOrderReporter = void (*)(const LockOrderViolation&);
void set_lock_order_reporter(LockOrderReporter reporter) noexcept;

namespace sync_detail {
// Rank bookkeeping (sync.cpp): check against the calling thread's held
// stack (reports + fails on violation), push after acquisition, pop on
// release. Compiled out of Release via HARP_LOCK_RANK_ENABLED.
void check_lock_order(const Mutex* mu);
void note_acquired(const Mutex* mu);
void note_released(const Mutex* mu);
}  // namespace sync_detail

/// Annotated, ranked mutex. Same blocking behavior as std::mutex; the
/// rank and name exist for the checker and for diagnostics. Prefer
/// MutexLock over manual lock()/unlock().
class HARP_CAPABILITY("mutex") Mutex {
 public:
  explicit Mutex(LockRank rank, const char* name) noexcept
      : rank_(static_cast<std::uint32_t>(rank)), name_(name) {}
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() HARP_ACQUIRE() {
#if HARP_LOCK_RANK_ENABLED
    sync_detail::check_lock_order(this);
#endif
    impl_.lock();
#if HARP_LOCK_RANK_ENABLED
    sync_detail::note_acquired(this);
#endif
  }

  void unlock() HARP_RELEASE() {
#if HARP_LOCK_RANK_ENABLED
    sync_detail::note_released(this);
#endif
    impl_.unlock();
  }

  std::uint32_t rank() const noexcept { return rank_; }
  const char* name() const noexcept { return name_; }

 private:
  friend class CondVar;
  std::mutex impl_;
  std::uint32_t rank_;
  const char* name_;  ///< static storage duration (diagnostics/trace)
};

/// RAII lock, the only idiomatic way to hold a Mutex. Scoped-capability
/// annotated: Clang tracks the guarded region it opens.
class HARP_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) HARP_ACQUIRE(mu) : mu_(mu) { mu_.lock(); }
  ~MutexLock() HARP_RELEASE() { mu_.unlock(); }
  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

/// Condition variable bound to harp::Mutex. No predicate overloads on
/// purpose: callers write explicit `while (!cond) cv.wait(mu);` loops in
/// a scope that holds the MutexLock, which keeps the guarded reads
/// visible to the static analysis (a predicate lambda would be analyzed
/// as an unlocked function).
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  /// Atomically releases `mu`, blocks, and reacquires before returning.
  /// The caller must hold `mu` (statically enforced). Spurious wakeups
  /// happen; always wait in a condition loop. The mutex keeps its slot
  /// in the thread's rank stack across the wait — user code never runs
  /// without the lock, so held-order checks stay exact.
  void wait(Mutex& mu) HARP_REQUIRES(mu) {
    std::unique_lock<std::mutex> adopted(mu.impl_, std::adopt_lock);
    cv_.wait(adopted);
    adopted.release();  // MutexLock still owns the (reacquired) mutex
  }

  void notify_one() noexcept { cv_.notify_one(); }
  void notify_all() noexcept { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

/// The one sanctioned thread type. An alias (not a wrapper class): the
/// point is a single greppable spelling, enforced by harp_lint's
/// raw-primitive check, so concurrency stays discoverable in one place.
using Thread = std::thread;

/// Hardware concurrency with a sane floor (>= 1).
std::size_t hardware_threads() noexcept;

}  // namespace harp
