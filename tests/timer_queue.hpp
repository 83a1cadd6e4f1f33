// TimerQueue: the reference timer queue the rt::TimerWheel is held to.
//
// A binary min-heap of absolute deadlines (like protolib's ProtoTimer the
// API is deadline-based, not interval-based) with lazy cancellation: a
// cancelled timer's heap entry stays behind and is skipped when it
// surfaces, and the heap is compacted whenever cancelled entries come to
// outnumber live ones so garbage stays bounded at <= 50% + 1. Ties on
// the deadline fire in schedule order — TimerId is monotonically
// increasing and breaks ties — which is one of the determinism rules in
// docs/RUNTIME.md: same schedule/cancel sequence, same firing sequence,
// on every platform.
//
// The dispatcher's timer is the O(1) TimerWheel (rt/timer_wheel.hpp);
// this heap is the obviously-correct oracle the wheel is differentially
// tested against (tests/timer_wheel_test.cpp). Test-only, so it keeps
// std::function callbacks.
//
// The queue knows nothing about time itself; the owner advances its
// virtual clock to `next_deadline()` and pops due callbacks.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <utility>
#include <vector>

#include "rt/timer_wheel.hpp"

namespace harp::rt {

class TimerQueue {
 public:
  using Callback = std::function<void()>;

  /// Arms a one-shot timer at the absolute virtual time `deadline` and
  /// returns its cancellation handle. Deadlines in the past are legal;
  /// they become due immediately.
  TimerId schedule(Tick deadline, Callback cb);

  /// Disarms a live timer. Returns false when the id already fired, was
  /// already cancelled, or never existed. Amortized O(log n): the heap
  /// entry is abandoned and skipped later (lazy cancellation), and the
  /// whole heap is rebuilt from the live set once cancelled entries
  /// exceed half of it.
  bool cancel(TimerId id);

  /// Earliest live deadline, or kNeverTick when no timer is armed.
  Tick next_deadline();

  /// Extracts the earliest live timer with deadline <= now, or nullopt.
  /// The caller runs the callback (the queue never re-enters user code).
  std::optional<Callback> pop_due(Tick now);

  /// Live (scheduled and not yet fired/cancelled) timer count.
  std::size_t size() const { return live_.size(); }
  bool empty() const { return live_.empty(); }

  /// Same as size(): timers that will still fire. Paired with
  /// heap_size() to make lazy-cancel garbage observable.
  std::size_t live_size() const { return live_.size(); }

  /// Heap entries including lazily-cancelled garbage. The compaction
  /// rule keeps heap_size() <= 2 * live_size() + 1 between calls.
  std::size_t heap_size() const { return heap_.size(); }

 private:
  struct Entry {
    Tick deadline;
    TimerId id;
  };

  /// Drops cancelled entries off the heap top.
  void prune();

  /// Rebuilds the heap from live entries only (O(n)); called by cancel()
  /// when cancelled garbage outnumbers live timers.
  void compact();

  static bool later(const Entry& a, const Entry& b) {
    // std::push_heap builds a max-heap; "later" ordering turns it into a
    // min-heap on (deadline, id).
    return a.deadline > b.deadline ||
           (a.deadline == b.deadline && a.id > b.id);
  }

  std::vector<Entry> heap_;
  /// Callbacks of live timers; absence marks a lazily-cancelled entry.
  /// std::map keeps behavior independent of hash ordering.
  std::map<TimerId, Callback> live_;
  TimerId next_id_{1};
};


inline TimerId TimerQueue::schedule(Tick deadline, Callback cb) {
  const TimerId id = next_id_++;
  live_.emplace(id, std::move(cb));
  heap_.push_back({deadline, id});
  std::push_heap(heap_.begin(), heap_.end(), later);
  return id;
}

inline bool TimerQueue::cancel(TimerId id) {
  if (live_.erase(id) == 0) return false;
  // Keep lazy-cancel garbage bounded: once cancelled entries outnumber
  // live ones, rebuild the heap from the live set. Amortized O(1) extra
  // per cancel, and heap_size() stays <= 2 * live_size() + 1.
  if (heap_.size() > 2 * live_.size()) compact();
  return true;
}

inline void TimerQueue::compact() {
  std::erase_if(heap_, [this](const Entry& e) {
    return live_.find(e.id) == live_.end();
  });
  // make_heap reorders entries, but pop order only depends on the
  // (deadline, id) comparator, which is a total order — firing sequence
  // is unchanged.
  std::make_heap(heap_.begin(), heap_.end(), later);
}

inline void TimerQueue::prune() {
  while (!heap_.empty() && live_.find(heap_.front().id) == live_.end()) {
    std::pop_heap(heap_.begin(), heap_.end(), later);
    heap_.pop_back();
  }
}

inline Tick TimerQueue::next_deadline() {
  prune();
  return heap_.empty() ? kNeverTick : heap_.front().deadline;
}

inline std::optional<TimerQueue::Callback> TimerQueue::pop_due(Tick now) {
  prune();
  if (heap_.empty() || heap_.front().deadline > now) return std::nullopt;
  const TimerId id = heap_.front().id;
  std::pop_heap(heap_.begin(), heap_.end(), later);
  heap_.pop_back();
  auto it = live_.find(id);
  Callback cb = std::move(it->second);
  live_.erase(it);
  return cb;
}

}  // namespace harp::rt
