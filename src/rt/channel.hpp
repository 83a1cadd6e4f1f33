// Channel: pluggable transports the rt runtime moves packets over.
//
// A Channel owns delivery, not reliability: it accepts rt::Packets and
// invokes the receiver's attached sink, possibly later (via dispatcher
// tasks/timers), possibly never (lossy transport). Reliability, when a
// transport needs it, lives one layer up in rt::ReliableEndpoint.
//
// Transport matrix (docs/RUNTIME.md):
//   LoopbackChannel  in-order, loss-free   one dispatcher task per packet
//   LossyChannel     seeded drop/dup/delay one task or timer per copy
//   sim::MgmtChannel in-order, loss-free   departs on real TSCH mgmt
//                                          cells (sim/mgmt_plane.hpp)
//
// Every packet enters through the non-virtual Channel::send, which is
// the one place the messages are counted: the `harp.rt.msgs_sent`
// counter and the per-type proto::MessageStats window (data packets
// only; acks are ARQ framing, not protocol messages).
//
// Determinism: LossyChannel draws every fate decision from its own
// seeded Rng stream in send order, so one seed reproduces one exact
// loss/reorder pattern.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <vector>

#include "common/inline_task.hpp"
#include "common/rng.hpp"
#include "common/types.hpp"
#include "proto/messages.hpp"
#include "rt/dispatcher.hpp"

namespace harp::rt {

/// The unit a Channel moves: a protocol message plus the thin ARQ
/// framing ReliableEndpoint adds (kind + sequence number).
struct Packet {
  enum class Kind : std::uint8_t {
    kData = 0,  ///< carries `msg`; seq == 0 means unsequenced (raw mode)
    kAck = 1,   ///< acknowledges the sender's data packet `seq`
  };

  Kind kind{Kind::kData};
  NodeId src{kNoNode};
  NodeId dst{kNoNode};
  /// Per-(src -> dst) stream sequence number; 0 = unsequenced.
  std::uint32_t seq{0};
  proto::Message msg;  ///< meaningful only for kData
};

/// Slab/freelist parking lot for packets between send() and delivery.
///
/// A Packet (with its proto::Message payload) is far too big for an
/// InlineTask capture, so channels park the packet in a pool slot and
/// the delivery task captures just {channel, slot index} — 12 bytes,
/// comfortably inline. Slots recycle through a freelist, so the steady
/// state re-uses the same storage (and each proto::Message's grown
/// buffers) instead of allocating a type-erased closure per packet.
///
/// The slab is a deque on purpose: sinks may re-enter send() while a
/// delivery is still borrowing a `Packet&` from the pool, and deque
/// growth never moves existing elements.
class PacketPool {
 public:
  /// Parks a packet; the slot index stays valid until release().
  std::uint32_t acquire(Packet p) {
    if (!free_.empty()) {
      const std::uint32_t idx = free_.back();
      free_.pop_back();
      slab_[idx] = std::move(p);
      return idx;
    }
    const auto idx = static_cast<std::uint32_t>(slab_.size());
    slab_.push_back(std::move(p));
    return idx;
  }

  Packet& at(std::uint32_t idx) { return slab_[idx]; }
  void release(std::uint32_t idx) { free_.push_back(idx); }

  /// Slots ever created (capacity diagnostics; steady state stops
  /// growing once it covers the max packets simultaneously in flight).
  std::size_t slab_size() const { return slab_.size(); }

 private:
  std::deque<Packet> slab_;
  std::vector<std::uint32_t> free_;
};

class Channel {
 public:
  /// Receive callbacks are inline too: a sink is invoked once per
  /// delivered packet, so it must not cost an allocation to store.
  using Sink = InlineFunction<void(const Packet&)>;

  virtual ~Channel() = default;
  Channel() = default;
  Channel(const Channel&) = delete;
  Channel& operator=(const Channel&) = delete;

  /// Registers the receive callback for `node`. One sink per node;
  /// re-attaching replaces (how roaming re-homes an endpoint).
  void attach(NodeId node, Sink sink);

  /// Hands one packet to the transport. Never delivers synchronously —
  /// delivery happens on a later dispatcher event, like a real network.
  void send(Packet p);

  /// True when the transport can drop or reorder packets, i.e. callers
  /// need the ARQ endpoint (docs/RUNTIME.md transport matrix).
  virtual bool lossy() const { return false; }

  /// Protocol messages handed to send() since the last reset_stats(),
  /// by type, with their encoded sizes (retransmissions count again;
  /// acks do not count).
  const proto::MessageStats& stats() const { return stats_; }
  void reset_stats() { stats_.clear(); }

 protected:
  /// The transport proper: takes one counted packet from send().
  virtual void transmit(Packet p) = 0;

  /// Invokes the destination sink (counts harp.rt.msgs_delivered).
  /// Unattached destinations are a hard error: packets never vanish
  /// silently on a loss-free path.
  void deliver(const Packet& p);

  /// Delivers the pooled packet `idx` and recycles its slot — the body
  /// of every deferred delivery task.
  void deliver_pooled(std::uint32_t idx);

  std::vector<Sink> sinks_;
  PacketPool pool_;

 private:
  proto::MessageStats stats_;
};

/// In-memory loopback: each send becomes one dispatcher task, so packets
/// are delivered in exact send order — the reference transport the
/// protocol tests run the agents over.
class LoopbackChannel : public Channel {
 public:
  explicit LoopbackChannel(Dispatcher& d) : d_(d) {}

 protected:
  void transmit(Packet p) override;

 private:
  Dispatcher& d_;
};

/// Loopback with seeded impairments: Bernoulli drop and duplication plus
/// a uniform delivery delay (in ticks) that reorders packets whenever
/// the delay window is wider than one tick. Acks travel the same lossy
/// path as data.
class LossyChannel : public Channel {
 public:
  struct Options {
    double drop_rate{0.0};       ///< P(a packet copy is lost)
    double duplicate_rate{0.0};  ///< P(a packet is sent twice)
    Tick delay_min{0};           ///< inclusive delivery delay bounds
    Tick delay_max{0};
    std::uint64_t seed{0};       ///< impairment stream seed
  };

  LossyChannel(Dispatcher& d, const Options& opt)
      : d_(d), opt_(opt), rng_(opt.seed) {}

  bool lossy() const override { return true; }

  /// Test hook: packets this predicate claims are dropped before the
  /// random impairments (targeted-loss regression tests). Fate draws
  /// are NOT consumed for filtered packets. std::function is fine here:
  /// installed once per test, never on the per-packet path.
  void set_drop_filter(
      std::function<bool(const Packet&)> filter) {  // harp-lint: allow(std-function)
    drop_filter_ = std::move(filter);
  }

  std::uint64_t dropped() const { return dropped_; }
  std::uint64_t duplicated() const { return duplicated_; }

 protected:
  void transmit(Packet p) override;

 private:
  void enqueue_delivery(const Packet& p);

  Dispatcher& d_;
  Options opt_;
  Rng rng_;
  std::function<bool(const Packet&)> drop_filter_;  // harp-lint: allow(std-function)
  std::uint64_t dropped_{0};
  std::uint64_t duplicated_{0};
};

}  // namespace harp::rt
