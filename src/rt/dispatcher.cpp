#include "rt/dispatcher.hpp"

#include <string>
#include <utility>

#include "common/error.hpp"
#include "obs/obs.hpp"

namespace harp::rt {

namespace {

// Names interned once; instruments resolved per call against the calling
// thread's current context so concurrent trials stay isolated. One
// resolver per counter (not one struct of four): the per-event path
// touches exactly the instruments it needs.
obs::Counter& events_counter() {
  static const obs::InstrumentId kEvents =
      obs::intern_counter("harp.rt.events_dispatched");
  return obs::MetricsRegistry::global().counter(kEvents);
}

obs::Counter& timers_scheduled_counter() {
  static const obs::InstrumentId kScheduled =
      obs::intern_counter("harp.rt.timers_scheduled");
  return obs::MetricsRegistry::global().counter(kScheduled);
}

obs::Counter& timers_fired_counter() {
  static const obs::InstrumentId kFired =
      obs::intern_counter("harp.rt.timers_fired");
  return obs::MetricsRegistry::global().counter(kFired);
}

obs::Counter& timers_cancelled_counter() {
  static const obs::InstrumentId kCancelled =
      obs::intern_counter("harp.rt.timers_cancelled");
  return obs::MetricsRegistry::global().counter(kCancelled);
}

}  // namespace

void Dispatcher::post(Task fn) { ready_.push_back(std::move(fn)); }

TimerId Dispatcher::schedule_at(Tick deadline, Task fn) {
  timers_scheduled_counter().inc();
  if (deadline < now_) deadline = now_;
  return timers_.schedule(deadline, std::move(fn));
}

TimerId Dispatcher::schedule_after(Tick delay, Task fn) {
  return schedule_at(now_ + delay, std::move(fn));
}

bool Dispatcher::cancel(TimerId id) {
  const bool live = timers_.cancel(id);
  if (live) timers_cancelled_counter().inc();
  return live;
}

bool Dispatcher::idle() const {
  return ready_.empty() && timers_.empty();
}

void Dispatcher::note_event([[maybe_unused]] EventKind kind) {
  ++dispatched_;
  events_counter().inc();
  HARP_OBS_EVENT({.type = obs::EventType::kRtEvent,
                  .aux = static_cast<std::uint8_t>(kind),
                  .slot = now_});
}

std::size_t Dispatcher::step() {
  if (!ready_.empty()) {
    // Move the task out first: it may post/schedule, mutating the ring.
    Task fn = ready_.pop_front();
    note_event(EventKind::kTask);
    fn();
    return 1;
  }
  const Tick deadline = timers_.next_deadline();
  if (deadline == kNeverTick) return 0;
  if (deadline > now_) now_ = deadline;  // the virtual clock jump
  auto cb = timers_.pop_due(now_);
  if (!cb) return 0;
  note_event(EventKind::kTimer);
  timers_fired_counter().inc();
  (*cb)();
  return 1;
}

std::size_t Dispatcher::run_until_idle(std::size_t max_events) {
  std::size_t ran = 0;
  while (!idle()) {
    if (ran >= max_events) {
      fail("rt::Dispatcher livelock: " + std::to_string(ran) +
           " events without reaching idle");
    }
    ran += step();
  }
  return ran;
}

std::size_t Dispatcher::run_until(Tick t, std::size_t max_events) {
  std::size_t ran = 0;
  for (;;) {
    if (ready_.empty() && timers_.next_deadline() > t) break;
    if (ran >= max_events) {
      fail("rt::Dispatcher livelock: " + std::to_string(ran) +
           " events before tick " + std::to_string(t));
    }
    ran += step();
  }
  if (now_ < t) now_ = t;
  return ran;
}

}  // namespace harp::rt
