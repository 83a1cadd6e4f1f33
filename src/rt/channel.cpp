#include "rt/channel.hpp"

#include <utility>

#include "common/error.hpp"
#include "obs/obs.hpp"
#include "proto/codec.hpp"

namespace harp::rt {

namespace {

struct ChannelObs {
  obs::Counter* sent;
  obs::Counter* delivered;
  obs::Counter* dropped;
  obs::Counter* duplicated;
};

// Names interned once; instruments resolved per call against the calling
// thread's current context so concurrent trials stay isolated.
ChannelObs channel_obs() {
  static const obs::InstrumentId kSent =
      obs::intern_counter("harp.rt.msgs_sent");
  static const obs::InstrumentId kDelivered =
      obs::intern_counter("harp.rt.msgs_delivered");
  static const obs::InstrumentId kDropped =
      obs::intern_counter("harp.rt.msgs_dropped");
  static const obs::InstrumentId kDuplicated =
      obs::intern_counter("harp.rt.msgs_duplicated");
  auto& reg = obs::MetricsRegistry::global();
  return ChannelObs{&reg.counter(kSent), &reg.counter(kDelivered),
                    &reg.counter(kDropped), &reg.counter(kDuplicated)};
}

}  // namespace

void Channel::attach(NodeId node, Sink sink) {
  if (sinks_.size() <= node) sinks_.resize(node + 1);
  sinks_[node] = std::move(sink);
}

void Channel::send(Packet p) {
  channel_obs().sent->inc();
  if (p.kind == Packet::Kind::kData) {
    stats_.count[p.msg.type] += 1;
    stats_.bytes[p.msg.type] += proto::encoded_size(p.msg);
  }
  transmit(std::move(p));
}

void Channel::deliver(const Packet& p) {
  HARP_ASSERT(p.dst < sinks_.size() && sinks_[p.dst]);
  channel_obs().delivered->inc();
  sinks_[p.dst](p);
}

void Channel::deliver_pooled(std::uint32_t idx) {
  // Deliver by reference into the slab (stable even if the sink
  // re-enters send() and grows the pool), then recycle the slot so the
  // packet's message buffers are reused by a later send.
  deliver(pool_.at(idx));
  pool_.release(idx);
}

void LoopbackChannel::transmit(Packet p) {
  const std::uint32_t idx = pool_.acquire(std::move(p));
  d_.post([this, idx] { deliver_pooled(idx); });
}

void LossyChannel::enqueue_delivery(const Packet& p) {
  const Tick span = opt_.delay_max > opt_.delay_min
                        ? opt_.delay_max - opt_.delay_min
                        : 0;
  const Tick delay = opt_.delay_min + (span > 0 ? rng_.below(span + 1) : 0);
  const std::uint32_t idx = pool_.acquire(p);  // copy: duplication needs p again
  if (delay == 0) {
    d_.post([this, idx] { deliver_pooled(idx); });
  } else {
    d_.schedule_after(delay, [this, idx] { deliver_pooled(idx); });
  }
}

void LossyChannel::transmit(Packet p) {
  if (drop_filter_ && drop_filter_(p)) {
    ++dropped_;
    channel_obs().dropped->inc();
    return;
  }
  // One fate draw per impairment, in fixed order, so the decision stream
  // is a pure function of (seed, send sequence).
  const bool drop = opt_.drop_rate > 0.0 && rng_.chance(opt_.drop_rate);
  const bool dup =
      opt_.duplicate_rate > 0.0 && rng_.chance(opt_.duplicate_rate);
  if (drop) {
    ++dropped_;
    channel_obs().dropped->inc();
    return;
  }
  enqueue_delivery(p);
  if (dup) {
    ++duplicated_;
    channel_obs().duplicated->inc();
    enqueue_delivery(p);
  }
}

}  // namespace harp::rt
