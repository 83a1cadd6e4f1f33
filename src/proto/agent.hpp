// Distributed per-node HARP protocol agent.
//
// HarpAgent is the node-local program of Fig. 8: it holds exactly the
// state a real device holds (its children's link demands, the interfaces
// its children reported, its own composed components/layouts, the
// partitions granted by its parent, and the cells it assigned to its
// links) and drives all three phases purely by exchanging Messages
// through a Transport. Running one agent per node against any transport —
// the in-memory loopback used by tests or the simulator's management
// plane — executes HARP exactly as the testbed deployment does.
//
// Where the state lives: the partitions and cells are rows of the
// network's core::PartitionTable and core::Schedule, which the agent
// borrows at construction (rt::ProtoRuntime owns both). An agent reads
// and writes only its own partition rows (node = id()) and the cell rows
// of its current children (child = a ChildLink's node). Every child has
// exactly one parent, so no two agents write the same row. Everything
// else above is private to the agent.
//
// The engine (harp/engine.hpp) computes the same protocol centrally;
// integration tests assert that agents and engine converge to identical
// partitions and schedules.
#pragma once

#include <map>
#include <optional>
#include <vector>

#include "harp/adjustment.hpp"
#include "harp/compose.hpp"
#include "harp/partition_alloc.hpp"
#include "harp/resource.hpp"
#include "harp/rm_scheduler.hpp"
#include "harp/schedule.hpp"
#include "net/slotframe.hpp"
#include "proto/messages.hpp"

namespace harp::proto {

/// Outgoing-message sink. Implementations may deliver synchronously
/// (tests) or after management-plane latency (simulator).
class Transport {
 public:
  virtual ~Transport() = default;
  virtual void send(Message msg) = 0;
};

/// What a node knows about one of its child links.
struct ChildLink {
  NodeId child{kNoNode};
  bool is_leaf{true};
  int up_demand{0};
  int down_demand{0};
  std::uint32_t up_period{~0u};    // RM priority
  std::uint32_t down_period{~0u};
};

/// Node-local static configuration.
struct AgentConfig {
  NodeId id{kNoNode};
  NodeId parent{kNoNode};  // kNoNode marks the gateway
  int link_layer{1};       // l(V_id): layer of the links to the children
  std::vector<ChildLink> children;
  net::SlotframeConfig frame;
  /// Reservation headroom in the own-layer partition (see
  /// core::EngineOptions::own_slack); lets growth resolve locally.
  int own_slack{0};
};

class HarpAgent {
 public:
  /// `parts` and `schedule` are the network's tables (sized to cover
  /// this node and its children); they must outlive the agent.
  HarpAgent(AgentConfig cfg, core::PartitionTable& parts,
            core::Schedule& schedule);

  NodeId id() const { return cfg_.id; }
  bool is_gateway() const { return cfg_.parent == kNoNode; }
  bool is_leaf() const { return cfg_.children.empty(); }

  /// Kicks off the static phase. Deepest non-leaf nodes report their
  /// interfaces immediately; everyone else waits for children.
  void start(Transport& t);

  /// Delivers one received message.
  void on_message(const Message& msg, Transport& t);

  /// Application-triggered traffic change on the link to `child`
  /// (invoked at the parent, which maintains the link's requirement).
  /// Starts the dynamic phase of Sec. V when the change does not fit.
  void change_demand(NodeId child, Direction dir, int cells, Transport& t);

  /// Topology dynamics, invoked at the (new) parent by the join/leave
  /// handshake. add_child registers a leaf device and negotiates its
  /// demands (possibly escalating); remove_child releases the link and
  /// scrubs the departing leaf's bookkeeping (the partition reservation
  /// stays, per Sec. V's release semantics).
  void add_child(const ChildLink& link, Transport& t);
  void remove_child(NodeId child, Transport& t);

  /// Re-homes this (childless) device under a new parent at a new depth,
  /// scrubbing any residual relay-era reservations. The join handshake at
  /// the new parent then negotiates resources via add_child there.
  void rehome(NodeId new_parent, int new_link_layer);

  /// Unwinds the in-flight escalation at (layer, dir) exactly as a
  /// received kReject would: restore the tentative composition/layout,
  /// and either forward the rejection to the requesting child or roll
  /// back the local demand change. Returns false (no-op) when nothing is
  /// pending there. This is the timeout path of the rt runtime: when an
  /// escalated PUT-intf exhausts its retransmissions, the ARQ endpoint
  /// aborts the exchange instead of deadlocking (docs/RUNTIME.md).
  bool abort_pending(int layer, Direction dir, Transport& t);

  // ------------------------------------------------------------ observers
  /// True once partitions were granted and cells assigned.
  bool ready() const { return ready_; }
  /// This node's partition at (dir, layer); empty if none.
  core::Partition partition(Direction dir, int layer) const {
    return parts_.get(dir, cfg_.id, layer);
  }
  /// Layers at which this node holds a partition.
  std::vector<int> partition_layers(Direction dir) const {
    return parts_.layers(dir, cfg_.id);
  }
  /// Current demand bookkeeping (for tests).
  int child_demand(NodeId child, Direction dir) const;
  /// True while an escalated adjustment awaits the parent's verdict.
  bool adjustment_pending() const { return !pending_.empty(); }

 private:
  struct PerDir {
    std::map<int, core::ResourceComponent> comp;                // by layer
    std::map<int, std::vector<packing::Placement>> layout;      // by layer
  };
  struct Pending {
    NodeId requester{kNoNode};  // child that sent PUT-intf; kNoNode = self
    core::ResourceComponent prev_requester_comp;  // to restore on reject
    core::ResourceComponent prev_own_comp;
    std::vector<packing::Placement> prev_layout;
    // Set when the escalation began with a local demand change here.
    std::optional<std::pair<NodeId, int>> demand_rollback;  // child, cells
  };

  PerDir& side(Direction dir) { return dirs_[dir == Direction::kUp ? 0 : 1]; }
  const PerDir& side(Direction dir) const {
    return dirs_[dir == Direction::kUp ? 0 : 1];
  }
  ChildLink& link(NodeId child);
  int& demand(ChildLink& l, Direction dir) {
    return dir == Direction::kUp ? l.up_demand : l.down_demand;
  }

  // Phase 1-2 helpers.
  void compose_own_interfaces();
  void report_interface(Transport& t);
  void gateway_allocate(Transport& t);
  void carve_and_grant(Direction dir, int layer, Transport& t);
  void reassign_cells(Direction dir, Transport& t);
  void send_initial_grants(Transport& t);

  // Dynamic helpers.
  void handle_put_intf(const Message& msg, Transport& t);
  void handle_put_part(const Message& msg, Transport& t);
  void handle_reject(const Message& msg, Transport& t);
  void escalate(Direction dir, int layer, Pending pending, Transport& t);
  void gateway_replace(Direction dir, Transport& t);
  /// Rolls back one escalation that was refused (kReject, ARQ timeout or
  /// a failed gateway re-placement): restores this layer's composition
  /// and layout, then either restores the requester's component and
  /// rejects it, or restores the local demand that started it.
  void unwind(int layer, Direction dir, const Pending& pending,
              Transport& t);

  AgentConfig cfg_;
  /// The network's tables: this node's partition rows, its children's
  /// cell rows.
  core::PartitionTable& parts_;
  core::Schedule& schedule_;
  PerDir dirs_[2];
  /// Interfaces reported by children: child -> dir -> layer -> component.
  std::map<NodeId, std::map<int, core::ResourceComponent>> child_comp_[2];
  /// Partitions last granted to each child: child -> layer -> partition.
  std::map<NodeId, std::map<int, core::Partition>> granted_[2];
  /// Non-leaf children whose POST-intf is still missing.
  std::size_t awaiting_children_{0};
  std::map<std::pair<int, int>, Pending> pending_;  // (layer, dir) -> state
  bool ready_{false};
};

}  // namespace harp::proto
