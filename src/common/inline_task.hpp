// InlineFunction: a fixed-size, small-buffer-only callable — the
// allocation-free replacement for std::function on the rt dispatcher and
// fleet hot paths (docs/RUNTIME.md "Timer wheel & task storage",
// docs/PERFORMANCE.md hot path 6).
//
// std::function type-erases through a heap allocation whenever the
// callable outgrows its (implementation-defined, typically 16-24 byte)
// small buffer — which on the event hot paths means one malloc/free per
// posted task, per armed timer and per in-flight packet. InlineFunction
// flips the contract around: the capture buffer is a fixed
// kInlineCaptureBytes (48) bytes, and a callable that does not fit is a
// COMPILE ERROR, never a silent allocation. Code that genuinely needs a
// fat capture must say so explicitly (rt::boxed_task, which heap-boxes
// the callable and counts the allocation in `harp.rt.task_allocs` so the
// bench gate can assert the hot paths stayed at zero).
//
// Differences from std::function, all deliberate:
//   * move-only (like std::move_only_function): captures may hold
//     unique_ptr and other move-only state;
//   * the wrapped callable must be nothrow-move-constructible (moves
//     happen while queues shuffle storage; a throwing move could lose
//     tasks);
//   * invoking an empty InlineFunction is a HARP_ASSERT failure, not
//     std::bad_function_call.
//
// Thread-safety: an InlineFunction confers none — it is plain value
// state, owned and invoked by exactly one thread at a time. The
// dispatcher that stores them is single-threaded (docs/RUNTIME.md
// "Threading model"), so no task ever crosses threads.
#pragma once

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

#include "common/error.hpp"

namespace harp {

/// Capture budget of every InlineFunction instantiation. Sized for the
/// repo's fattest hot-path capture (a `this` pointer plus a handful of
/// ids/cells — see rt::ProtoRuntime's roam post) with headroom, while
/// keeping a timer-wheel node comfortably inside one cache line pair.
inline constexpr std::size_t kInlineCaptureBytes = 48;

template <typename Signature>
class InlineFunction;  // primary left undefined: use a function signature

template <typename R, typename... Args>
class InlineFunction<R(Args...)> {
 public:
  InlineFunction() = default;

  /// Wraps any callable with a fitting capture. Oversized or
  /// over-aligned callables fail to compile — use rt::boxed_task (or
  /// shrink the capture) instead of reaching for std::function.
  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, InlineFunction> &&
                std::is_invocable_r_v<R, std::decay_t<F>&, Args...>>>
  InlineFunction(F&& fn) {  // NOLINT(google-explicit-constructor)
    using Fn = std::decay_t<F>;
    static_assert(sizeof(Fn) <= kInlineCaptureBytes,
                  "capture exceeds kInlineCaptureBytes: shrink it or box "
                  "it explicitly (rt::boxed_task) — InlineFunction never "
                  "heap-allocates");
    static_assert(alignof(Fn) <= alignof(std::max_align_t),
                  "over-aligned captures are not supported");
    static_assert(std::is_nothrow_move_constructible_v<Fn>,
                  "captures must be nothrow-move-constructible: queue "
                  "growth moves tasks and must not lose them");
    ::new (static_cast<void*>(storage_)) Fn(std::forward<F>(fn));
    ops_ = &ops_for<Fn>();
  }

  InlineFunction(InlineFunction&& other) noexcept : ops_(other.ops_) {
    if (ops_ != nullptr) {
      ops_->relocate(storage_, other.storage_);
      other.ops_ = nullptr;
    }
  }

  InlineFunction& operator=(InlineFunction&& other) noexcept {
    if (this != &other) {
      reset();
      ops_ = other.ops_;
      if (ops_ != nullptr) {
        ops_->relocate(storage_, other.storage_);
        other.ops_ = nullptr;
      }
    }
    return *this;
  }

  InlineFunction(const InlineFunction&) = delete;
  InlineFunction& operator=(const InlineFunction&) = delete;

  ~InlineFunction() { reset(); }

  /// Destroys the held callable (no-op when empty).
  void reset() {
    if (ops_ != nullptr) {
      ops_->destroy(storage_);
      ops_ = nullptr;
    }
  }

  R operator()(Args... args) {
    HARP_ASSERT(ops_ != nullptr);
    return ops_->invoke(storage_, std::forward<Args>(args)...);
  }

  explicit operator bool() const { return ops_ != nullptr; }

 private:
  /// Per-callable-type vtable: one static instance per wrapped Fn, so an
  /// InlineFunction is (capture bytes + one pointer) with no per-object
  /// allocation anywhere.
  struct Ops {
    R (*invoke)(void*, Args&&...);
    void (*relocate)(void* dst, void* src);  // move-construct + destroy src
    void (*destroy)(void*);
  };

  template <typename Fn>
  static const Ops& ops_for() {
    static constexpr Ops kOps = {
        [](void* s, Args&&... args) -> R {
          return (*static_cast<Fn*>(s))(std::forward<Args>(args)...);
        },
        [](void* dst, void* src) {
          Fn* from = static_cast<Fn*>(src);
          ::new (dst) Fn(std::move(*from));
          from->~Fn();
        },
        [](void* s) { static_cast<Fn*>(s)->~Fn(); },
    };
    return kOps;
  }

  alignas(std::max_align_t) unsigned char storage_[kInlineCaptureBytes];
  const Ops* ops_{nullptr};
};

/// The rt event core's task currency: what the dispatcher ready queue,
/// timer-wheel nodes and channel delivery all store. Steady-state
/// dispatch moves these by memcpy-sized relocations and never touches
/// the heap.
using InlineTask = InlineFunction<void()>;

}  // namespace harp
