// Management plane: delivers HARP protocol messages over dedicated cells
// in the Management sub-frame, with real slot timing.
//
// Mirrors the testbed setup of Sec. VI-A: when a node joins it receives
// collision-free management cells; HARP messages travel in those cells.
// Each node owns one TX cell per slotframe at
//   slot    = data_slots + (id mod mgmt_slots)
//   channel = (id / mgmt_slots) mod num_channels
// One queued message departs per TX cell (one hop per slotframe per node
// under backlog), which is what makes multi-hop adjustments take multiple
// slotframes — the "Time(s)" and "SF" columns of Table II.
#pragma once

#include <deque>
#include <set>
#include <vector>

#include "common/inline_task.hpp"
#include "net/slotframe.hpp"
#include "net/topology.hpp"
#include "proto/messages.hpp"
#include "rt/channel.hpp"
#include "rt/dispatcher.hpp"

namespace harp::sim {

class MgmtPlane {
 public:
  explicit MgmtPlane(net::SlotframeConfig frame);

  /// Queues a message at its source node, stamped as sent in slot `now`.
  /// The per-node queues grow to cover any source (nodes that join later
  /// need no resize).
  void send(proto::Message msg, AbsoluteSlot now);

  /// Receiver callback for deliver_on_slot: one call per message whose TX
  /// cell fires, in ascending source-node order. The callee takes the
  /// message and may send() follow-ups; a follow-up queued at a node later
  /// in that order whose TX cell is the firing one departs in this slot.
  using DeliverFn = InlineFunction<void(proto::Message&&)>;

  /// Hands each message departing in slot `t` to `deliver` and logs it.
  void deliver_on_slot(AbsoluteSlot t, DeliverFn deliver);

  /// "Nothing queued" sentinel for next_departure_after().
  static constexpr AbsoluteSlot kNoDeparture = ~0ull;

  /// Earliest absolute slot strictly after `t` at which some queued
  /// message departs (the next slot whose TX cell has a backlog), or
  /// kNoDeparture while idle. Lets an event-driven driver skip straight
  /// to the next interesting slot instead of ticking every slot.
  AbsoluteSlot next_departure_after(AbsoluteSlot t) const;
  /// The first slot strictly after `t` on which `node`'s TX cell fires.
  AbsoluteSlot next_tx_after(NodeId node, AbsoluteSlot t) const;

  /// True while any management message is still queued.
  bool busy() const { return queued_ > 0; }

  // ------------------------------------------------------- accounting
  struct Record {
    proto::MsgType type;
    NodeId from;
    NodeId to;
    AbsoluteSlot sent;       // when queued
    AbsoluteSlot delivered;  // when the TX cell fired
    std::size_t bytes;
  };
  const std::vector<Record>& log() const { return log_; }
  void clear_log() { log_.clear(); }

  /// Aggregate over the log: HARP messages (intf/part), nodes touched,
  /// layer span, and elapsed slots from first send to last delivery.
  struct Summary {
    std::size_t harp_messages{0};
    std::size_t all_messages{0};
    std::size_t bytes{0};
    std::set<NodeId> nodes;
    int layers{0};
    AbsoluteSlot first_sent{0};
    AbsoluteSlot last_delivered{0};
    double elapsed_seconds{0.0};
    AbsoluteSlot elapsed_slotframes{0};
  };
  Summary summarize(const net::Topology& topo) const;

  SlotId tx_slot(NodeId node) const;

 private:
  struct Queued {
    proto::Message msg;
    AbsoluteSlot sent;
  };
  net::SlotframeConfig frame_;
  std::vector<std::deque<Queued>> queues_;  // per source node
  std::size_t queued_{0};
  std::vector<Record> log_;
};

/// The management plane as an rt transport: sends queue into a MgmtPlane
/// stamped with the dispatcher clock, and a dispatcher timer fires at each
/// upcoming departure slot (1 tick == 1 absolute slot) to deliver that
/// slot's messages in ascending node order.
///
/// Raw transport: the mgmt plane neither drops nor reorders, so run it
/// with ARQ disabled (Packet framing must stay unsequenced).
class MgmtChannel final : public rt::Channel {
 public:
  /// Slot hook, called with slot `t` before the departures of slot `t`
  /// are delivered, and with `last + 1` once the plane has drained after
  /// its last departure at slot `last`. A slot-clocked driver runs its
  /// other per-slot work up to `t` from here. If the hook throws, the
  /// departures of `t` stay queued and their timer stays armed.
  using SlotFn = InlineFunction<void(AbsoluteSlot)>;

  MgmtChannel(rt::Dispatcher& d, MgmtPlane& plane, SlotFn slot_hook = {})
      : d_(d), plane_(plane), slot_hook_(std::move(slot_hook)) {}

 private:
  void transmit(rt::Packet p) override;
  /// Makes the departure timer fire no later than slot `next`.
  void arm_by(AbsoluteSlot next);
  void arm_at(AbsoluteSlot slot);
  void on_departure_slot();

  rt::Dispatcher& d_;
  MgmtPlane& plane_;
  SlotFn slot_hook_;
  bool armed_{false};
  rt::Tick armed_deadline_{0};
  rt::TimerId timer_{0};
};

}  // namespace harp::sim
