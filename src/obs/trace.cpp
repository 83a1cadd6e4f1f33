#include "obs/trace.hpp"

#include "obs/context.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"

namespace harp::obs {

const char* to_string(EventType t) {
  switch (t) {
    case EventType::kSlotTick: return "slot_tick";
    case EventType::kTxAttempt: return "tx_attempt";
    case EventType::kTxSuccess: return "tx_success";
    case EventType::kCollision: return "collision";
    case EventType::kLinkLoss: return "link_loss";
    case EventType::kQueueDrop: return "queue_drop";
    case EventType::kRouteDrop: return "route_drop";
    case EventType::kDeliver: return "deliver";
    case EventType::kQueueDepth: return "queue_depth";
    case EventType::kAdjustStart: return "adjust_start";
    case EventType::kAdjustEnd: return "adjust_end";
    case EventType::kMsgSend: return "msg_send";
    case EventType::kMsgDeliver: return "msg_deliver";
    case EventType::kPhase: return "phase";
    case EventType::kAuditFail: return "audit_fail";
    case EventType::kComposeCache: return "compose_cache";
    case EventType::kLockOrderFail: return "lock_order_fail";
    case EventType::kRtEvent: return "rt_event";
    case EventType::kRtRetransmit: return "rt_retransmit";
  }
  return "?";
}

namespace {

// Wire names for the small enums carried in TraceEvent::aux. Kept local so
// the observability layer stays at the bottom of the dependency stack;
// obs_test pins them against the authoritative enums
// (core::AdjustmentKind, proto::MsgType).
const char* direction_name(std::uint8_t aux) {
  return aux == 0 ? "up" : "down";
}

const char* adjust_kind_name(std::uint8_t aux) {
  static const char* const kNames[] = {"no_change", "local_release",
                                       "local_schedule", "partition_adjust",
                                       "rejected"};
  return aux < 5 ? kNames[aux] : "?";
}

const char* msg_type_name(std::uint8_t aux) {
  static const char* const kNames[] = {"post_intf", "put_intf", "post_part",
                                       "put_part", "cell_assign", "reject"};
  return aux < 6 ? kNames[aux] : "?";
}

const char* rt_kind_name(std::uint8_t aux) {
  // rt::Dispatcher event kinds (rt/dispatcher.hpp EventKind).
  static const char* const kNames[] = {"task", "timer"};
  return aux < 2 ? kNames[aux] : "?";
}

}  // namespace

void TraceSink::enable(std::size_t capacity) {
  if (capacity == 0) capacity = 1;
  if (ring_.size() != capacity) {
    ring_.assign(capacity, TraceEvent{});
  }
  head_ = 0;
  size_ = 0;
  overwritten_ = 0;
  enabled_ = true;
}

void TraceSink::disable() { enabled_ = false; }

void TraceSink::clear() {
  head_ = 0;
  size_ = 0;
  overwritten_ = 0;
}

std::vector<TraceEvent> TraceSink::snapshot() const {
  std::vector<TraceEvent> out;
  out.reserve(size_);
  // head_ points at the next write position; the oldest retained event is
  // head_ when the ring has wrapped, index 0 otherwise.
  const std::size_t start = size_ == ring_.size() ? head_ : 0;
  for (std::size_t i = 0; i < size_; ++i) {
    out.push_back(ring_[(start + i) % ring_.size()]);
  }
  return out;
}

std::uint16_t TraceSink::register_phase(const std::string& name) {
  for (std::size_t i = 0; i < phase_names_.size(); ++i) {
    if (phase_names_[i] == name) return static_cast<std::uint16_t>(i);
  }
  phase_names_.push_back(name);
  return static_cast<std::uint16_t>(phase_names_.size() - 1);
}

const char* TraceSink::phase_name(std::uint16_t id) const {
  return id < phase_names_.size() ? phase_names_[id].c_str() : "?";
}

void TraceSink::emit_phase(std::uint32_t scope_id, std::uint64_t elapsed_ns) {
#if HARP_OBS_ENABLED
  if (!enabled_) return;
  if (scope_phase_.size() <= scope_id) {
    scope_phase_.resize(scope_id + 1, kNoPhase);
  }
  if (scope_phase_[scope_id] == kNoPhase) {
    scope_phase_[scope_id] = register_phase(histogram_name(scope_id));
  }
  emit({.type = EventType::kPhase,
        .a = scope_phase_[scope_id],
        .value = elapsed_ns});
#else
  (void)scope_id;
  (void)elapsed_ns;
#endif
}

void TraceSink::write_jsonl(std::ostream& out, std::int64_t trial) const {
  for (const TraceEvent& e : snapshot()) {
    Json line = Json::object();
    if (trial >= 0) line["trial"] = trial;
    line["type"] = to_string(e.type);
    if (e.slot != TraceEvent::kNoSlot) line["slot"] = e.slot;
    switch (e.type) {
      case EventType::kSlotTick:
        break;
      case EventType::kTxAttempt:
      case EventType::kTxSuccess:
      case EventType::kCollision:
      case EventType::kLinkLoss:
        line["from"] = e.a;
        line["to"] = e.b;
        if (e.channel != TraceEvent::kNoChannel) line["channel"] = e.channel;
        if (e.aux != TraceEvent::kNoAux) line["dir"] = direction_name(e.aux);
        break;
      case EventType::kQueueDrop:
        line["source"] = e.a;
        break;
      case EventType::kRouteDrop:
        line["source"] = e.a;
        if (e.b != kNoNode) line["destination"] = e.b;
        break;
      case EventType::kDeliver:
        line["source"] = e.a;
        line["latency_slots"] = e.value;
        line["met_deadline"] = e.aux != 0;
        break;
      case EventType::kQueueDepth:
        line["node"] = e.a;
        if (e.aux != TraceEvent::kNoAux) line["dir"] = direction_name(e.aux);
        line["depth"] = e.value;
        break;
      case EventType::kAdjustStart:
        line["node"] = e.a;
        if (e.aux != TraceEvent::kNoAux) line["dir"] = direction_name(e.aux);
        line["cells"] = e.value;
        break;
      case EventType::kAdjustEnd:
        line["node"] = e.a;
        if (e.aux != TraceEvent::kNoAux) {
          line["kind"] = adjust_kind_name(e.aux);
        }
        line["messages"] = e.value;
        break;
      case EventType::kMsgSend:
      case EventType::kMsgDeliver:
        line["from"] = e.a;
        line["to"] = e.b;
        if (e.aux != TraceEvent::kNoAux) line["msg"] = msg_type_name(e.aux);
        if (e.type == EventType::kMsgDeliver) line["bytes"] = e.value;
        break;
      case EventType::kPhase:
        line["phase"] = phase_name(static_cast<std::uint16_t>(e.a));
        line["ns"] = e.value;
        break;
      case EventType::kAuditFail:
        // Check names are interned through the phase-name table (they are
        // static strings exactly like HARP_OBS_SCOPE labels).
        line["check"] = phase_name(static_cast<std::uint16_t>(e.a));
        if (e.b != kNoNode) line["node"] = e.b;
        break;
      case EventType::kComposeCache:
        line["hits"] = e.a;
        line["misses"] = e.b;
        line["invalidations"] = e.value;
        break;
      case EventType::kLockOrderFail:
        // Mutex names are interned through the phase-name table like
        // audit check names (static strings).
        line["acquiring"] = phase_name(static_cast<std::uint16_t>(e.a));
        line["held"] = phase_name(static_cast<std::uint16_t>(e.b));
        line["acquiring_rank"] = e.value & 0xffffffffull;
        line["held_rank"] = e.value >> 32;
        break;
      case EventType::kRtEvent:
        // `slot` carries the dispatcher's virtual tick (emitted above).
        if (e.aux != TraceEvent::kNoAux) line["kind"] = rt_kind_name(e.aux);
        break;
      case EventType::kRtRetransmit:
        line["from"] = e.a;
        line["to"] = e.b;
        if (e.aux != TraceEvent::kNoAux) line["msg"] = msg_type_name(e.aux);
        line["attempt"] = e.value;
        break;
    }
    line.dump(out, /*indent=*/0);
    out << '\n';
  }
}

TraceSink& TraceSink::global() { return current_context().trace; }

}  // namespace harp::obs
