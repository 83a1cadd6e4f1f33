#include "common/sync.hpp"

#include <atomic>
#include <string>

#include "common/error.hpp"
#include "common/logging.hpp"

namespace harp {
namespace {

std::atomic<LockOrderReporter> g_reporter{nullptr};

#if HARP_LOCK_RANK_ENABLED

/// Nesting is shallow (the rank table has two ranks); 16 leaves room
/// without making the thread_local footprint interesting.
constexpr int kMaxHeldLocks = 16;

struct HeldStack {
  const Mutex* mu[kMaxHeldLocks];
  int count = 0;
};

// Per-thread stack of held harp::Mutexes, in acquisition order. Plain
// PODs only, so thread exit never runs a nontrivial destructor.
thread_local HeldStack t_held;

[[noreturn]] void violate(const Mutex* held, const Mutex* acquiring) {
  const LockOrderViolation v{held->name(), held->rank(), acquiring->name(),
                             acquiring->rank()};
  if (LockOrderReporter reporter =
          g_reporter.load(std::memory_order_acquire)) {
    reporter(v);
  } else {
    log::error() << "lock_order_fail: acquiring " << v.acquiring_name
                 << " (rank " << v.acquiring_rank << ") while holding "
                 << v.held_name << " (rank " << v.held_rank << ")";
  }
  fail(std::string("lock rank violation: acquiring ") + v.acquiring_name +
       " (rank " + std::to_string(v.acquiring_rank) + ") while holding " +
       v.held_name + " (rank " + std::to_string(v.held_rank) + ")");
}

#endif  // HARP_LOCK_RANK_ENABLED

}  // namespace

void set_lock_order_reporter(LockOrderReporter reporter) noexcept {
  g_reporter.store(reporter, std::memory_order_release);
}

namespace sync_detail {

#if HARP_LOCK_RANK_ENABLED

void check_lock_order(const Mutex* mu) {
  // Ranks must be strictly increasing in acquisition order; an equal
  // rank is also a violation (covers recursive self-lock), and checking
  // against EVERY held lock — not just the innermost — keeps the report
  // pointed at the first lock that makes the acquisition illegal even
  // when releases interleaved out of LIFO order.
  const HeldStack& held = t_held;
  for (int i = 0; i < held.count; ++i) {
    if (held.mu[i]->rank() >= mu->rank()) violate(held.mu[i], mu);
  }
}

void note_acquired(const Mutex* mu) {
  HeldStack& held = t_held;
  if (held.count >= kMaxHeldLocks) {
    fail("lock rank: more than 16 locks held by one thread");
  }
  held.mu[held.count++] = mu;
}

void note_released(const Mutex* mu) {
  HeldStack& held = t_held;
  // Search from the top: releases are LIFO in practice, but unlock order
  // is not part of the discipline, so any held entry may go.
  for (int i = held.count - 1; i >= 0; --i) {
    if (held.mu[i] == mu) {
      for (int j = i + 1; j < held.count; ++j) held.mu[j - 1] = held.mu[j];
      --held.count;
      return;
    }
  }
  fail(std::string("lock rank: released ") + mu->name() +
       " which this thread does not hold");
}

#else  // !HARP_LOCK_RANK_ENABLED

// Release builds still link the symbols (headers of mixed-config
// consumers may reference them), but they are never called.
void check_lock_order(const Mutex*) {}
void note_acquired(const Mutex*) {}
void note_released(const Mutex*) {}

#endif  // HARP_LOCK_RANK_ENABLED

}  // namespace sync_detail

std::size_t hardware_threads() noexcept {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

}  // namespace harp
