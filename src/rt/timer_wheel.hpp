// TimerWheel: the hierarchical timing wheel behind rt::Dispatcher
// (docs/RUNTIME.md "Timer wheel & task storage").
//
// The ARQ workload is schedule-then-cancel: every reliable send arms an
// RTO timer that the ack almost always cancels a few events later. On
// the old binary-heap TimerQueue that left ~33% of the heap as lazily
// cancelled garbage and paid one std::map node allocation per schedule
// (BENCH_rt_dispatch: 470k of 1.4M timers cancelled). The wheel is built
// for exactly this short-horizon churn:
//
//   * O(1) schedule: the deadline hashes to one of kLevels x kSlots
//     buckets (level = the highest 6-bit group where deadline and the
//     wheel's current tick differ); far-future deadlines beyond the
//     top level's horizon go to an unsorted overflow list;
//   * true O(1) cancel: nodes live in a slab with an intrusive doubly
//     linked list per bucket and a freelist — cancel unlinks and
//     recycles the slot immediately, no garbage, no heap traffic;
//   * firing order is bit-identical to the reference heap: within a
//     level-0 bucket (one exact deadline per bucket) nodes are kept
//     sorted by schedule sequence number, and cascading re-sorts on
//     insertion, so timers fire in exactly (deadline, schedule-order) —
//     the determinism rule the rt fingerprints stand on
//     (tests/timer_wheel_test.cpp holds wheel and heap to identical
//     firing streams under randomized schedule/cancel/advance churn);
//   * callbacks are InlineTasks: no allocation for captures <= 48 bytes,
//     oversized captures are compile errors (common/inline_task.hpp).
//
// Handles: a TimerId packs (slab index + 1) in the low 32 bits and a
// per-slot generation in the high 32, so a stale handle (fired or
// cancelled, slot since recycled) can only miss, never alias — the same
// observable guarantee the never-reused monotonic ids gave.
//
// Contract difference from the reference heap (tests/timer_queue.hpp, the
// oracle the wheel is differentially tested against): deadlines below the
// wheel's current tick (the latest pop_due() time) are clamped to it.
// The dispatcher already clamps deadlines to now() >= that tick, so the
// two are indistinguishable through rt::Dispatcher.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "common/inline_task.hpp"

namespace harp::rt {

/// Virtual time, in dispatcher ticks. A tick has no fixed wall duration;
/// the sim::MgmtChannel transport equates one tick with one TSCH slot.
using Tick = std::uint64_t;

/// Handle for cancelling a scheduled timer. Never aliases a later timer.
using TimerId = std::uint64_t;

/// "No deadline" sentinel returned by next_deadline() on an empty wheel.
inline constexpr Tick kNeverTick = ~0ull;

class TimerWheel {
 public:
  using Task = InlineTask;

  /// Arms a one-shot timer at absolute virtual time `deadline` (clamped
  /// to the wheel's current tick) and returns its cancellation handle.
  TimerId schedule(Tick deadline, Task cb);

  /// Disarms a live timer in O(1). False when the handle already fired,
  /// was cancelled, or never existed.
  bool cancel(TimerId id);

  /// Earliest live deadline, or kNeverTick when no timer is armed.
  Tick next_deadline();

  /// Extracts the earliest live timer with deadline <= now, in
  /// (deadline, schedule-order); nullopt when none is due. The caller
  /// runs the callback (the wheel never re-enters user code).
  std::optional<Task> pop_due(Tick now);

  /// Live (scheduled and not yet fired/cancelled) timer count.
  std::size_t size() const { return live_; }
  bool empty() const { return live_ == 0; }

  /// Node slots the slab has ever grown to (capacity diagnostics: the
  /// steady state reuses slots and stops growing).
  std::size_t slab_size() const { return slab_.size(); }

 private:
  static constexpr int kBits = 6;
  static constexpr std::uint32_t kSlots = 1u << kBits;  // 64 per level
  static constexpr int kLevels = 4;  // horizon 2^24 ticks, then overflow
  static constexpr std::uint32_t kBuckets = kSlots * kLevels;
  static constexpr std::uint32_t kOverflowBucket = kBuckets;
  static constexpr std::uint32_t kFreeBucket = ~0u;  // node is on freelist
  static constexpr std::uint32_t kNil = ~0u;         // list terminator

  struct Node {
    Task cb;
    Tick deadline{0};
    std::uint64_t seq{0};  // schedule order; breaks deadline ties
    std::uint32_t prev{kNil};
    std::uint32_t next{kNil};
    std::uint32_t bucket{kFreeBucket};
    std::uint32_t gen{1};  // bumped on recycle; stale handles miss
  };

  std::uint32_t acquire_node();
  void release_node(std::uint32_t idx);
  /// Places a node into its bucket for the current `cur_` (level by the
  /// highest differing 6-bit group; level 0 insertion-sorted by seq).
  void insert(std::uint32_t idx);
  void unlink(std::uint32_t idx);
  void link_front(std::uint32_t bucket, std::uint32_t idx);
  void link_level0_sorted(std::uint32_t slot, std::uint32_t idx);
  /// Empties one bucket and re-inserts its nodes against the current
  /// `cur_` (the cascade step).
  void reinsert_bucket(std::uint32_t bucket);
  /// Exact earliest live deadline (cached; recomputed from the occupancy
  /// bitmaps and, for level >= 1, a scan of the first occupied bucket).
  Tick find_earliest();
  /// Moves the wheel's tick to `t`, cascading every bucket whose nodes
  /// now share a closer prefix with `t`. Requires no live deadline < t.
  void advance_to(Tick t);

  std::vector<Node> slab_;
  std::uint32_t free_head_{kNil};
  /// Bucket list heads/tails: kLevels x kSlots wheel buckets plus the
  /// overflow list at index kOverflowBucket.
  std::vector<std::uint32_t> heads_ =
      std::vector<std::uint32_t>(kBuckets + 1, kNil);
  std::vector<std::uint32_t> tails_ =
      std::vector<std::uint32_t>(kBuckets + 1, kNil);
  std::uint64_t occupied_[kLevels]{};  // bit s: bucket (level, s) non-empty

  Tick cur_{0};  // latest pop_due() time the wheel has advanced to
  std::size_t live_{0};
  std::uint64_t next_seq_{1};

  Tick earliest_{kNeverTick};
  bool earliest_valid_{false};
  Tick overflow_min_{kNeverTick};
  bool overflow_min_valid_{false};
};

}  // namespace harp::rt
