// Umbrella header for the observability layer: metrics + trace + the
// instrumentation macros. Instrumented code includes only this header.
//
//   HARP_OBS_SCOPE("harp.engine.compose_ns");
//     — scoped wall-clock timer; on scope exit records the elapsed
//       nanoseconds into the named histogram of the *current context*
//       (obs/context.hpp) and emits one `phase` trace event. Gated by
//       obs::timing_enabled() (default off: the cost is one branch),
//       removed entirely under HARP_OBS=OFF. The name is interned once
//       per call site; the per-context instrument resolves lazily so the
//       macro stays correct when trials run under per-thread contexts.
//
//   HARP_OBS_EVENT({.type = obs::EventType::kCollision, ...});
//     — records one typed trace event into the current context's
//       TraceSink (one branch while the sink is disabled).
//   HARP_OBS_EVENT_TO(sink, {...});
//     — the same into a sink the caller resolved once (a hot loop binds
//       TraceSink::global() before it starts instead of per event).
//
// Counters/gauges are not macro-gated: instrumented classes resolve them
// once via obs::MetricsRegistry::global() at construction and bump them
// unconditionally (a plain integer add); shared call sites use interned
// InstrumentIds. See docs/OBSERVABILITY.md for the full contract.
#pragma once

#include <chrono>
#include <cstdint>

#include "obs/context.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace harp::obs {

/// Whether HARP_OBS_SCOPE timers measure and record under the calling
/// thread's current context (off by default: two clock reads per scope
/// are not free on microsecond-scale kernels).
bool timing_enabled();
void set_timing_enabled(bool on);

/// Convenience: turn the whole layer on (trace sink + phase timers) —
/// what bench binaries do when --json/--trace is requested.
void enable(std::size_t trace_capacity = TraceSink::kDefaultCapacity);
/// Turn trace recording and phase timers back off (captured data and
/// metric values stay readable).
void disable();

/// Monotonic nanoseconds, for phase timing.
inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// RAII phase timer behind HARP_OBS_SCOPE. When timing is disabled at
/// construction the destructor does nothing (the scope is not recorded,
/// even if timing gets enabled while it is open). The histogram and
/// phase id resolve at scope exit against the thread's current context —
/// deliberately NOT cached in a function-local static, which would bind
/// every context to whichever one executed the call site first.
class ScopedTimer {
 public:
  explicit ScopedTimer(InstrumentId scope_id)
      : scope_id_(scope_id), active_(timing_enabled()) {
    if (active_) start_ns_ = now_ns();
  }
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;
  ~ScopedTimer() {
    if (!active_) return;
    const std::uint64_t elapsed = now_ns() - start_ns_;
    Context& ctx = current_context();
    ctx.metrics.histogram(scope_id_).record(elapsed);
    ctx.trace.emit_phase(scope_id_, elapsed);
  }

 private:
  InstrumentId scope_id_;
  bool active_;
  std::uint64_t start_ns_{0};
};

}  // namespace harp::obs

#define HARP_OBS_CONCAT_INNER(a, b) a##b
#define HARP_OBS_CONCAT(a, b) HARP_OBS_CONCAT_INNER(a, b)

#if HARP_OBS_ENABLED

/// Times the rest of the enclosing scope into the histogram `name` (which
/// should end in `_ns`) of the current context and emits a `phase` trace
/// event. The name interns once per call site; the instrument resolves
/// per context (first use: map lookup, afterwards: flat vector load).
#define HARP_OBS_SCOPE(name)                                                  \
  static const ::harp::obs::InstrumentId HARP_OBS_CONCAT(harp_obs_sid_,       \
                                                         __LINE__) =          \
      ::harp::obs::intern_histogram(name);                                    \
  ::harp::obs::ScopedTimer HARP_OBS_CONCAT(harp_obs_scope_, __LINE__)(        \
      HARP_OBS_CONCAT(harp_obs_sid_, __LINE__))

/// Records one trace event; the argument is a braced TraceEvent
/// initializer. Not evaluated under HARP_OBS=OFF.
#define HARP_OBS_EVENT(...) \
  HARP_OBS_EVENT_TO(::harp::obs::TraceSink::global(), __VA_ARGS__)

/// Records one trace event into `sink` (a TraceSink lvalue). Neither
/// argument is evaluated under HARP_OBS=OFF.
#define HARP_OBS_EVENT_TO(sink, ...) \
  (sink).emit(::harp::obs::TraceEvent __VA_ARGS__)

#else

#define HARP_OBS_SCOPE(name) ((void)0)
#define HARP_OBS_EVENT(...) ((void)0)
#define HARP_OBS_EVENT_TO(sink, ...) ((void)0)

#endif  // HARP_OBS_ENABLED
