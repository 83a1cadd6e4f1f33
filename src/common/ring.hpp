// RingQueue: a growable power-of-two ring buffer — the FIFO under the rt
// dispatcher's ready queue (docs/PERFORMANCE.md hot path 6), the fleet
// shards' op queues and the simulator data plane's per-node packet
// queues.
//
// std::deque pays a chunk map indirection per access and allocates/frees
// chunks as the queue breathes; for a queue that cycles millions of
// small tasks between the same few fill levels that is pure overhead.
// RingQueue keeps one contiguous power-of-two buffer and masks indices:
// push/pop are a store/load plus an increment, and once the buffer has
// grown to the workload's high-water mark the queue never allocates
// again (steady state: zero heap traffic, the property the
// `harp.rt.task_allocs` gate builds on).
//
// Growth moves elements into a doubled buffer, so T must be movable;
// element order is preserved. Not thread-safe — single-owner, like the
// dispatcher loop it serves (the fleet's shard queue, its one
// cross-thread use, is guarded by the shard's mutex).
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "common/error.hpp"

namespace harp {

template <typename T>
class RingQueue {
 public:
  RingQueue() = default;

  bool empty() const { return head_ == tail_; }
  std::size_t size() const { return tail_ - head_; }

  /// Slots the current buffer can hold without growing.
  std::size_t capacity() const { return buf_.size(); }

  void push_back(T value) {
    if (tail_ - head_ == buf_.size()) grow();
    buf_[tail_ & mask_] = std::move(value);
    ++tail_;
  }

  /// Pops the oldest element. Precondition: !empty().
  T pop_front() {
    HARP_ASSERT(head_ != tail_);
    T value = std::move(buf_[head_ & mask_]);
    ++head_;
    return value;
  }

  /// Oldest element without popping. Precondition: !empty().
  T& front() {
    HARP_ASSERT(head_ != tail_);
    return buf_[head_ & mask_];
  }

  /// Removes every element matching `pred`, keeping the survivors in
  /// their FIFO order; returns how many were removed. O(size()).
  template <typename Pred>
  std::size_t erase_if(Pred pred) {
    std::size_t keep = head_;
    for (std::size_t i = head_; i != tail_; ++i) {
      T& value = buf_[i & mask_];
      if (pred(static_cast<const T&>(value))) continue;
      if (keep != i) buf_[keep & mask_] = std::move(value);
      ++keep;
    }
    const std::size_t removed = tail_ - keep;
    while (tail_ != keep) {
      --tail_;
      T drop = std::move(buf_[tail_ & mask_]);
      static_cast<void>(drop);  // removed or moved-from: released here
    }
    return removed;
  }

  /// Calls `fn(const T&)` on every element, oldest first.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (std::size_t i = head_; i != tail_; ++i) fn(buf_[i & mask_]);
  }

  /// O(1) buffer exchange — the swap-batch idiom: a consumer swaps a
  /// scratch ring with the producer-facing ring under the lock, then
  /// drains the scratch outside it; the buffers (and their grown
  /// capacity) keep circulating between the two.
  void swap(RingQueue& other) {
    buf_.swap(other.buf_);
    std::swap(mask_, other.mask_);
    std::swap(head_, other.head_);
    std::swap(tail_, other.tail_);
  }

  /// Destroys all queued elements; keeps the buffer for reuse.
  void clear() {
    while (head_ != tail_) {
      T drop = std::move(buf_[head_ & mask_]);
      static_cast<void>(drop);  // resources released as `drop` dies
      ++head_;
    }
  }

 private:
  void grow() {
    const std::size_t next = buf_.empty() ? kInitialSlots : buf_.size() * 2;
    std::vector<T> bigger(next);
    const std::size_t count = tail_ - head_;
    for (std::size_t i = 0; i < count; ++i) {
      bigger[i] = std::move(buf_[(head_ + i) & mask_]);
    }
    buf_.swap(bigger);
    mask_ = next - 1;
    head_ = 0;
    tail_ = count;
  }

  static constexpr std::size_t kInitialSlots = 16;

  std::vector<T> buf_;
  std::size_t mask_{0};
  /// Monotonic positions; index = position & mask_. Wrap-around of the
  /// counters themselves needs 2^64 pushes — out of scope by fiat.
  std::size_t head_{0};
  std::size_t tail_{0};
};

}  // namespace harp
