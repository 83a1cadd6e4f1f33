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
// Where the state lives: the agent's own interfaces, partitions and its
// children's cells are rows of the network's NetworkTables (the tables
// core::HarpEngine holds), which the agent borrows at construction;
// rt::ProtoRuntime owns them. An agent writes only its own interface and
// partition rows (node = id()) and the cell rows of its current children,
// and every child has one parent, so no two agents write the same row.
// Private to the agent: its links, what its children reported and what it
// last granted them (a parent's view of a child may lag while an
// escalation or a retransmission is in flight), and its Pending
// escalations.
//
// Each Alg. 2 hop runs core::adjust_hop / core::recompose_hop, as the
// engine's climb does; integration tests assert that agents and engine
// converge to identical interfaces, partitions and schedules.
#pragma once

#include <map>
#include <optional>
#include <vector>

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

  int& demand(Direction dir) {
    return dir == Direction::kUp ? up_demand : down_demand;
  }
  int demand(Direction dir) const {
    return dir == Direction::kUp ? up_demand : down_demand;
  }
  std::uint32_t period(Direction dir) const {
    return dir == Direction::kUp ? up_period : down_period;
  }
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

/// The network's tables the agents keep their rows in; rt::ProtoRuntime
/// owns one.
struct NetworkTables {
  explicit NetworkTables(std::size_t num_nodes)
      : up(num_nodes), down(num_nodes), parts(num_nodes), schedule(num_nodes) {}

  core::InterfaceSet& interfaces(Direction dir) {
    return dir == Direction::kUp ? up : down;
  }
  const core::InterfaceSet& interfaces(Direction dir) const {
    return dir == Direction::kUp ? up : down;
  }
  /// Grows every table for newly joined nodes (no rows).
  void resize(std::size_t num_nodes) {
    up.resize(num_nodes);
    down.resize(num_nodes);
    parts.resize(num_nodes);
    schedule.resize(num_nodes);
  }

  core::InterfaceSet up;
  core::InterfaceSet down;
  core::PartitionTable parts;
  core::Schedule schedule;
};

class HarpAgent {
 public:
  /// `tables` must cover this node and its children and outlive the agent.
  HarpAgent(AgentConfig cfg, NetworkTables& tables);

  NodeId id() const { return cfg_.id; }
  bool is_gateway() const { return cfg_.parent == kNoNode; }
  bool is_leaf() const { return cfg_.children.empty(); }

  /// Kicks off the static phase. Deepest non-leaf nodes report their
  /// interfaces immediately; everyone else waits for children.
  void start(Transport& t);

  /// Delivers one received message. One this node cannot have been sent
  /// is dropped before any state change and counted in
  /// `harp.agent.msgs_rejected`: an interface report from a non-child or
  /// with an item outside this subtree's layers or the frame, a PUT-intf
  /// with other than one item, a partition grant from a non-parent or
  /// outside the frame, and a kReject with no escalation pending.
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
    return tables_.parts.get(dir, cfg_.id, layer);
  }
  /// Layers at which this node holds a partition.
  std::vector<int> partition_layers(Direction dir) const {
    return tables_.parts.layers(dir, cfg_.id);
  }
  /// Current demand bookkeeping (for tests).
  int child_demand(NodeId child, Direction dir) const;
  /// True while an escalated adjustment awaits the parent's verdict.
  bool adjustment_pending() const { return !pending_.empty(); }

 private:
  struct Pending {
    NodeId requester{kNoNode};  // child that sent PUT-intf; kNoNode = self
    core::ResourceComponent prev_requester_comp;  // to restore on reject
    core::ResourceComponent prev_own_comp;
    std::vector<packing::Placement> prev_layout;
    // Set when the escalation began with a local demand change here.
    std::optional<std::pair<NodeId, int>> demand_rollback;  // child, cells
  };

  core::InterfaceSet& own(Direction dir) { return tables_.interfaces(dir); }
  bool has_child(NodeId child) const;
  ChildLink& link(NodeId child);
  const ChildLink& link(NodeId child) const;

  /// False for a message this node cannot have been sent (see
  /// on_message); checked before any state change.
  bool accepts(const Message& msg) const;
  /// The components the children reported at `layer`, by child id.
  std::vector<core::ChildComponent> child_components(Direction dir,
                                                     int layer) const;

  // Phase 1-2 helpers.
  void compose_own_interfaces();
  /// Once every child reported: composes this node's interface and
  /// reports it to the parent (the gateway allocates instead).
  void report_interface(Transport& t);
  void gateway_allocate(Transport& t);
  /// Once this node holds its partitions: POST-part to every non-leaf
  /// child, then the cells of its own links; the node is then ready.
  void grant_initial(Transport& t);
  void carve_and_grant(Direction dir, int layer, Transport& t);
  void reassign_cells(Direction dir, Transport& t);

  // Dynamic helpers.
  void handle_put_intf(const Message& msg, Transport& t);
  void handle_put_part(const Message& msg, Transport& t);
  /// Records `pending` and asks the parent for this layer's new component
  /// (the gateway re-places its own layers instead).
  void escalate(Direction dir, int layer, Pending pending, Transport& t);
  /// The gateway's escalation step: re-places this direction's layers,
  /// or unwinds `pending` (at `layer`) when they no longer fit.
  void gateway_replace(Direction dir, int layer, const Pending& pending,
                       Transport& t);
  /// Rolls back one escalation that was refused (kReject, ARQ timeout or
  /// a failed gateway re-placement): restores this layer's composition
  /// and layout, then either restores the requester's component and
  /// rejects it, or restores the local demand that started it.
  void unwind(int layer, Direction dir, const Pending& pending,
              Transport& t);

  AgentConfig cfg_;
  /// The network's tables: this node's interface and partition rows, its
  /// children's cell rows.
  NetworkTables& tables_;
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
