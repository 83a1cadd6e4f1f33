#include "sim/mgmt_plane.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "obs/obs.hpp"
#include "proto/codec.hpp"

namespace harp::sim {

namespace {

struct MgmtObs {
  obs::Counter* sent;
  obs::Counter* delivered;
  obs::Counter* bytes;
};

// Names interned once; instruments resolved per call against the calling
// thread's current context so concurrent trials stay isolated.
MgmtObs mgmt_obs() {
  static const obs::InstrumentId kSent =
      obs::intern_counter("harp.mgmt.msgs_sent");
  static const obs::InstrumentId kDelivered =
      obs::intern_counter("harp.mgmt.msgs_delivered");
  static const obs::InstrumentId kBytes =
      obs::intern_counter("harp.mgmt.bytes_delivered");
  auto& reg = obs::MetricsRegistry::global();
  return MgmtObs{&reg.counter(kSent), &reg.counter(kDelivered),
                 &reg.counter(kBytes)};
}

}  // namespace

MgmtPlane::MgmtPlane(net::SlotframeConfig frame) : frame_(frame) {
  frame_.validate();
  if (frame_.mgmt_slots() == 0) {
    throw InvalidArgument("management sub-frame is empty");
  }
}

SlotId MgmtPlane::tx_slot(NodeId node) const {
  return frame_.data_slots + (node % frame_.mgmt_slots());
}

void MgmtPlane::send(proto::Message msg, AbsoluteSlot now) {
  HARP_ASSERT(msg.src != kNoNode);
  if (msg.src >= queues_.size()) queues_.resize(msg.src + 1);
  mgmt_obs().sent->inc();
  HARP_OBS_EVENT({.type = obs::EventType::kMsgSend,
                  .aux = static_cast<std::uint8_t>(msg.type),
                  .a = msg.src,
                  .b = msg.dst,
                  .slot = now});
  queues_[msg.src].push_back({std::move(msg), now});
  ++queued_;
}

void MgmtPlane::deliver_on_slot(AbsoluteSlot t, DeliverFn deliver) {
  if (queued_ == 0) return;
  const SlotId slot = static_cast<SlotId>(t % frame_.length);
  if (slot < frame_.data_slots) return;

  for (NodeId node = 0; node < queues_.size(); ++node) {
    if (queues_[node].empty() || tx_slot(node) != slot) continue;
    Queued q = std::move(queues_[node].front());
    queues_[node].pop_front();
    --queued_;
    const std::size_t bytes = proto::encoded_size(q.msg);
    log_.push_back({q.msg.type, q.msg.src, q.msg.dst, q.sent, t, bytes});
    mgmt_obs().delivered->inc();
    mgmt_obs().bytes->inc(bytes);
    HARP_OBS_EVENT({.type = obs::EventType::kMsgDeliver,
                    .aux = static_cast<std::uint8_t>(q.msg.type),
                    .a = q.msg.src,
                    .b = q.msg.dst,
                    .slot = t,
                    .value = bytes});
    deliver(std::move(q.msg));
  }
}

AbsoluteSlot MgmtPlane::next_tx_after(NodeId node, AbsoluteSlot t) const {
  // Smallest T >= t+1 with T mod length == tx_slot(node).
  const AbsoluteSlot base = t + 1;
  const SlotId want = tx_slot(node);
  const SlotId at = static_cast<SlotId>(base % frame_.length);
  return base + (want >= at ? want - at : frame_.length - at + want);
}

AbsoluteSlot MgmtPlane::next_departure_after(AbsoluteSlot t) const {
  AbsoluteSlot best = kNoDeparture;
  for (NodeId node = 0; node < queues_.size(); ++node) {
    if (!queues_[node].empty()) best = std::min(best, next_tx_after(node, t));
  }
  return best;
}

MgmtPlane::Summary MgmtPlane::summarize(const net::Topology& topo) const {
  Summary s;
  if (log_.empty()) return s;
  s.first_sent = log_.front().sent;
  int lo = 1 << 30, hi = 0;
  for (const Record& r : log_) {
    ++s.all_messages;
    if (proto::counts_as_harp_overhead(r.type)) ++s.harp_messages;
    s.bytes += r.bytes;
    s.nodes.insert(r.from);
    s.nodes.insert(r.to);
    s.last_delivered = std::max(s.last_delivered, r.delivered);
    for (NodeId v : {r.from, r.to}) {
      lo = std::min(lo, topo.node_layer(v));
      hi = std::max(hi, topo.node_layer(v));
    }
  }
  s.layers = std::max(hi - lo, 1);
  const AbsoluteSlot span = s.last_delivered - s.first_sent + 1;
  s.elapsed_seconds = static_cast<double>(span) * frame_.slot_seconds;
  s.elapsed_slotframes = (span + frame_.length - 1) / frame_.length;
  return s;
}

void MgmtChannel::transmit(rt::Packet p) {
  // The mgmt plane is a raw (loss-free, in-order) transport; ARQ framing
  // must stay off so the wire carries plain protocol messages.
  HARP_ASSERT(p.kind == rt::Packet::Kind::kData && p.seq == 0);
  const NodeId src = p.src;
  plane_.send(std::move(p.msg), d_.now());
  // Only the source's queue changed, so only its next TX cell can beat
  // the armed departure (mid-delivery, the rescan after it corrects).
  arm_by(plane_.next_tx_after(src, d_.now()));
}

void MgmtChannel::arm_by(AbsoluteSlot next) {
  if (next == MgmtPlane::kNoDeparture) return;
  if (armed_) {
    if (armed_deadline_ <= next) return;  // already firing at/before it
    d_.cancel(timer_);
  }
  arm_at(next);
}

void MgmtChannel::arm_at(AbsoluteSlot slot) {
  armed_ = true;
  armed_deadline_ = slot;
  timer_ = d_.schedule_at(slot, [this] { on_departure_slot(); });
}

void MgmtChannel::on_departure_slot() {
  armed_ = false;
  const AbsoluteSlot t = d_.now();
  if (slot_hook_) {
    try {
      slot_hook_(t);
    } catch (...) {
      arm_at(t);  // nothing departed: a later run delivers this slot
      throw;
    }
  }
  // Deliveries run synchronously in ascending node order; follow-up
  // sends re-arm through transmit().
  plane_.deliver_on_slot(t, [this](proto::Message&& m) {
    deliver(rt::Packet{rt::Packet::Kind::kData, m.src, m.dst, 0,
                       std::move(m)});
  });
  // Exactly the next departure: a timer armed mid-delivery for a
  // follow-up that then left in this same slot must not fire.
  const AbsoluteSlot next = plane_.next_departure_after(t);
  if (armed_ && armed_deadline_ != next) {
    d_.cancel(timer_);
    armed_ = false;
  }
  arm_by(next);
  if (slot_hook_ && !plane_.busy()) slot_hook_(t + 1);
}

}  // namespace harp::sim
