// TraceSink: typed trace events in a preallocated ring buffer.
//
// The high-volume half of the observability layer. Every event is one
// fixed-size POD record; recording is
//   * compile-time removable (build with -DHARP_OBS=OFF, which defines
//     HARP_OBS_ENABLED=0: every emit call vanishes), and
//   * runtime-gated: with the sink disabled (the default) an emit costs a
//     single predictable branch and touches no memory.
// When enabled, events land in a ring buffer allocated once by `enable()`;
// recording never allocates, and once the ring is full the oldest events
// are overwritten (`overwritten()` reports how many — a trace is a tail,
// not necessarily a full history).
//
// Export is JSON Lines (one event object per line); the schema of every
// event type is specified in docs/OBSERVABILITY.md.
#pragma once

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "common/types.hpp"

#ifndef HARP_OBS_ENABLED
#define HARP_OBS_ENABLED 1
#endif

namespace harp::obs {

/// Every event the instrumented subsystems can emit. Keep in sync with
/// to_string() and docs/OBSERVABILITY.md.
enum class EventType : std::uint8_t {
  kSlotTick,      // simulator advanced one slot
  kTxAttempt,     // a scheduled cell with a queued packet fired
  kTxSuccess,     // the transmission was received
  kCollision,     // cell or half-duplex conflict; packet stays queued
  kLinkLoss,      // Bernoulli link-quality failure; packet stays queued
  kQueueDrop,     // packet discarded: destination queue full
  kRouteDrop,     // packet discarded: destination no longer reachable
  kDeliver,       // packet reached its final destination
  kQueueDepth,    // depth of one queue after an enqueue
  kAdjustStart,   // engine begins a dynamic demand request
  kAdjustEnd,     // engine finished the request (aux = AdjustmentKind)
  kMsgSend,       // HARP protocol message queued at its source
  kMsgDeliver,    // HARP protocol message delivered over a mgmt cell
  kPhase,         // scoped wall-clock phase timing (HARP_OBS_SCOPE)
  kAuditFail,     // invariant audit violation (a = interned check-name id)
  kComposeCache,  // one generation pass's memo summary (a/b/value =
                  // hits/misses/invalidations delta)
  kLockOrderFail, // lock-rank violation (a/b = acquiring/held phase-name
                  // ids, value = held_rank<<32 | acquiring_rank)
  kRtEvent,       // rt dispatcher executed one event (aux = task/timer,
                  // slot = virtual tick)
  kRtRetransmit,  // rt endpoint retransmitted an unacked message
                  // (aux = proto::MsgType, value = attempt number)
};

/// Stable wire name of an event type ("tx_attempt", "phase", ...).
const char* to_string(EventType t);

/// One fixed-size trace record. Field meaning depends on `type`; the
/// JSONL exporter maps each combination to named fields per the schema in
/// docs/OBSERVABILITY.md. Unused fields default to sentinels and are
/// omitted from the export.
struct TraceEvent {
  EventType type{EventType::kSlotTick};
  /// Small discriminator: Direction, AdjustmentKind, or proto::MsgType.
  std::uint8_t aux{kNoAux};
  /// Channel of the cell involved, when applicable.
  std::uint16_t channel{kNoChannel};
  /// Primary node (sender / requester / source), or a phase id for kPhase.
  std::uint32_t a{kNoNode};
  /// Secondary node (receiver / destination).
  std::uint32_t b{kNoNode};
  /// Absolute network slot, when the event is slot-aligned.
  std::uint64_t slot{kNoSlot};
  /// Event-specific payload: latency slots, queue depth, bytes, or ns.
  std::uint64_t value{0};

  static constexpr std::uint8_t kNoAux = 0xff;
  static constexpr std::uint16_t kNoChannel = 0xffff;
  static constexpr std::uint64_t kNoSlot = ~0ull;
};

static_assert(sizeof(TraceEvent) == 32, "trace events must stay compact");

class TraceSink {
 public:
  static constexpr std::size_t kDefaultCapacity = 1 << 16;

  /// Preallocates the ring and starts recording. Re-enabling with a
  /// different capacity reallocates; with the same capacity it only clears.
  void enable(std::size_t capacity = kDefaultCapacity);
  /// Stops recording. The captured events stay readable.
  void disable();
  bool enabled() const { return enabled_; }

  /// Records one event: one branch when disabled, a ring write (no
  /// allocation) when enabled. Compiled out entirely under HARP_OBS=OFF.
  void emit(const TraceEvent& e) {
#if HARP_OBS_ENABLED
    if (!enabled_) return;
    ring_[head_] = e;
    head_ = head_ + 1 == ring_.size() ? 0 : head_ + 1;
    if (size_ < ring_.size()) {
      ++size_;
    } else {
      ++overwritten_;
    }
#else
    (void)e;
#endif
  }

  /// Events currently held (<= capacity).
  std::size_t size() const { return size_; }
  std::size_t capacity() const { return ring_.size(); }
  /// Events lost to ring wraparound since the last enable()/clear().
  std::uint64_t overwritten() const { return overwritten_; }

  /// Drops captured events (capacity and enablement unchanged).
  void clear();

  /// Captured events, oldest first.
  std::vector<TraceEvent> snapshot() const;

  /// JSON Lines export, oldest event first (docs/OBSERVABILITY.md).
  /// `trial` >= 0 tags every line with a `"trial"` member — how the
  /// experiment runner shard-merges per-trial sinks into one stream.
  void write_jsonl(std::ostream& out, std::int64_t trial = -1) const;

  /// Emits one kPhase event for an interned histogram id (the
  /// HARP_OBS_SCOPE fast path): resolves and memoizes the scope's phase
  /// id per sink, so repeated scopes cost one vector load + a ring write.
  void emit_phase(std::uint32_t scope_id, std::uint64_t elapsed_ns);

  /// Interns a phase name for kPhase events; returns its id (the event's
  /// `a` field). Repeated registration of the same name is idempotent.
  std::uint16_t register_phase(const std::string& name);
  /// Name for a phase id; "?" when unknown.
  const char* phase_name(std::uint16_t id) const;

  /// The process-wide sink every HARP_OBS_EVENT records into.
  static TraceSink& global();

 private:
  bool enabled_{false};
  std::vector<TraceEvent> ring_;
  std::size_t head_{0};
  std::size_t size_{0};
  std::uint64_t overwritten_{0};
  std::vector<std::string> phase_names_;
  /// Memo for emit_phase: interned histogram id -> phase id (kNoPhase
  /// until first use under this sink).
  std::vector<std::uint16_t> scope_phase_;
  static constexpr std::uint16_t kNoPhase = 0xffff;
};

}  // namespace harp::obs
