// Dispatcher: the event loop at the heart of the rt runtime
// (docs/RUNTIME.md), modeled on protolib's ProtoDispatcher but with a
// *virtual* clock so runs are deterministic and infinitely faster than
// real time.
//
// One dispatcher == one single-threaded event domain. All agent and
// transport callbacks for a runtime instance execute on the thread that
// drives step()/run_until_idle(); no locking is needed inside them, and
// the dispatcher itself is plain single-threaded state with no
// cross-thread entry point.
//
// Determinism rules (test-asserted, see docs/RUNTIME.md):
//   * ready tasks run in strict FIFO post order;
//   * due timers fire in (deadline, schedule-order) order;
//   * the clock only moves forward, jumping to the next deadline when the
//     ready queue is empty — there is no wall clock anywhere (the
//     harp_lint determinism check covers src/rt);
//   * all randomness (lossy transports) derives from the seed given at
//     construction, via Rng::fork().
#pragma once

#include <cstddef>
#include <cstdint>

#include "common/inline_task.hpp"
#include "common/ring.hpp"
#include "common/rng.hpp"
#include "rt/timer_wheel.hpp"

namespace harp::rt {

class Dispatcher {
 public:
  /// Every task the dispatcher runs is an InlineTask: captures beyond
  /// kInlineCaptureBytes are compile errors, so steady-state dispatch
  /// never heap-allocates (fat captures go through rt::boxed_task,
  /// which is counted by `harp.rt.task_allocs`).
  using Task = InlineTask;

  /// Kind of event a step() executed; also the aux value of the
  /// `rt_event` trace record (wire names in obs rt_kind_name()).
  enum class EventKind : std::uint8_t { kTask = 0, kTimer = 1 };

  /// Default run_until_idle() event budget: generous enough for every
  /// legitimate protocol cascade, small enough to turn a livelock (a
  /// task chain that never drains) into a prompt Error.
  static constexpr std::size_t kDefaultEventCap = 1 << 22;

  explicit Dispatcher(std::uint64_t seed = 0) : rng_(seed) {}
  Dispatcher(const Dispatcher&) = delete;
  Dispatcher& operator=(const Dispatcher&) = delete;

  /// Current virtual time. Starts at 0; advances only when the ready
  /// queue is empty and a timer is due.
  Tick now() const { return now_; }

  /// The dispatcher's seed-derived randomness root. Transports fork()
  /// their own independent streams from it at construction.
  Rng& rng() { return rng_; }

  /// Enqueues a task behind all previously posted ready tasks
  /// (dispatch thread only).
  void post(Task fn);

  /// Arms a one-shot timer at absolute virtual time `deadline` (clamped
  /// to now() if in the past — it fires on the current tick).
  TimerId schedule_at(Tick deadline, Task fn);
  /// Arms a one-shot timer `delay` ticks from now().
  TimerId schedule_after(Tick delay, Task fn);
  /// Disarms a timer; false when it already fired or was cancelled.
  bool cancel(TimerId id);

  /// True when there is nothing to run: no ready task and no armed
  /// timer.
  bool idle() const;

  /// Executes exactly one event — the oldest ready task if any, else
  /// the earliest due timer after advancing the clock to its deadline.
  /// Returns the number of events executed (0 when idle).
  std::size_t step();

  /// Runs events until idle. Throws harp::Error after `max_events`
  /// events (livelock backstop); returns the events executed.
  std::size_t run_until_idle(std::size_t max_events = kDefaultEventCap);

  /// Runs every event due at or before virtual time `t`, then advances
  /// the clock to exactly `t`. Returns the events executed.
  std::size_t run_until(Tick t, std::size_t max_events = kDefaultEventCap);

  /// Events executed by this dispatcher since construction.
  std::uint64_t dispatched() const { return dispatched_; }

 private:
  void note_event(EventKind kind);

  Tick now_{0};
  Rng rng_;
  RingQueue<Task> ready_;
  TimerWheel timers_;
  std::uint64_t dispatched_{0};
};

}  // namespace harp::rt
