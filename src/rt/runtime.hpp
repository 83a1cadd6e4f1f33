// ProtoRuntime: a whole HARP network of agents running event-driven over
// one dispatcher and one pluggable Channel (docs/RUNTIME.md).
//
// The one driver of proto::HarpAgent networks. Each operation (bootstrap /
// change_demand / join / leave / roam) posts the triggering agent call as
// a dispatcher task and settles the network to quiescence; every message
// travels as dispatcher events through the chosen transport — loopback,
// lossy loopback, or the TSCH management plane (sim::MgmtChannel, which
// is how sim::HarpSimulation runs its agents) — with one ReliableEndpoint
// per node supplying retransmission when the transport can lose packets.
// Each operation returns the messages its exchange put on the channel.
//
// The runtime owns the network's one proto::NetworkTables (two
// core::InterfaceSets, a core::PartitionTable and a core::Schedule, the
// tables core::HarpEngine holds; join_node grows them). Every agent keeps
// its own interfaces, partitions and its children's cells there
// (proto/agent.hpp), so the converged state is read in place.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string_view>
#include <vector>

#include "harp/partition_alloc.hpp"
#include "harp/schedule.hpp"
#include "net/task.hpp"
#include "net/topology.hpp"
#include "net/traffic.hpp"
#include "proto/agent.hpp"
#include "rt/channel.hpp"
#include "rt/dispatcher.hpp"
#include "rt/endpoint.hpp"

namespace harp::rt {

/// Order-insensitive digest of a network's converged control state: FNV
/// over every partition row and schedule entry, in canonical (direction,
/// node, layer) order. Computed the same way for ProtoRuntime and
/// core::HarpEngine outputs, so "same final state" is one integer
/// comparison in tests and benches.
std::uint64_t state_fingerprint(const core::PartitionTable& parts,
                                const core::Schedule& sched);

/// ProtoRuntime knobs (a namespace-scope struct so the constructor can
/// default it — in-class NSDMIs cannot be used in a default argument of
/// the enclosing class).
struct RuntimeOptions {
  /// Reliability for every endpoint. Disable on loss-free transports
  /// to keep the wire byte-identical to the synchronous paths.
  ArqOptions arq{};
  /// Event budget per settle() — the no-deadlock backstop.
  std::size_t max_events{Dispatcher::kDefaultEventCap};
};

class ProtoRuntime {
 public:
  using Options = RuntimeOptions;

  ProtoRuntime(const net::Topology& topo, const net::TrafficMatrix& traffic,
               const net::SlotframeConfig& frame, Dispatcher& d, Channel& ch,
               std::span<const net::Task> tasks = {}, int own_slack = 0,
               Options opt = Options{});
  /// Agents hold references into the runtime's tables.
  ProtoRuntime(const ProtoRuntime&) = delete;
  ProtoRuntime& operator=(const ProtoRuntime&) = delete;

  /// Runs the static phases to quiescence (event-driven bootstrap).
  /// Throws InfeasibleError when the gateway cannot admit the demands.
  proto::MessageStats bootstrap();

  /// Injects a demand change at the link's parent, then settles.
  proto::MessageStats change_demand(NodeId child, Direction dir, int cells);

  /// Topology dynamics (leaf devices), each settled to quiescence. A
  /// joining leaf's links get the RM period `rm_period` (~0u: lowest
  /// priority).
  struct JoinResult {
    NodeId node{kNoNode};
    proto::MessageStats stats;
  };
  JoinResult join_node(NodeId parent, int up_cells, int down_cells,
                       std::uint32_t rm_period = ~0u);
  proto::MessageStats leave_node(NodeId leaf);
  proto::MessageStats roam_node(NodeId leaf, NodeId new_parent);

  proto::HarpAgent& agent(NodeId id);
  const proto::HarpAgent& agent(NodeId id) const;
  ReliableEndpoint& endpoint(NodeId id);

  const net::Topology& topology() const { return topo_; }

  /// Throws InvalidArgument naming `op` and `node` unless `node` is in
  /// the topology and, when `device`, is not the gateway. Every operation
  /// above checks the ids it takes this way before it changes any state.
  void require_node(std::string_view op, NodeId node, bool device) const;
  /// Throws InvalidArgument naming `op` unless `cells` is a valid link
  /// demand (not negative), in the same before-any-state-change way.
  static void require_demand(std::string_view op, int cells);

  /// The live global schedule: every parent's cell assignments.
  const core::Schedule& current_schedule() const { return tables_.schedule; }
  /// The live partitions of every node.
  const core::PartitionTable& current_partitions() const {
    return tables_.parts;
  }
  /// Every node's own interface of one direction (mirrors
  /// core::HarpEngine::interfaces).
  const core::InterfaceSet& current_interfaces(Direction dir) const {
    return tables_.interfaces(dir);
  }
  /// state_fingerprint() of the partitions and the schedule.
  std::uint64_t fingerprint() const {
    return state_fingerprint(tables_.parts, tables_.schedule);
  }

  /// True when the dispatcher has no work and no endpoint awaits an ack.
  bool quiescent();

  /// Total retransmissions across all endpoints (bounded-retry checks).
  std::uint64_t total_retransmits() const;
  std::uint64_t total_give_ups() const;

 private:
  /// Runs the dispatcher until the network is quiescent (with ARQ,
  /// quiescence waits for the retransmit machinery to drain too) and
  /// returns the messages sent since the operation reset the stats.
  proto::MessageStats settle();
  /// Node `v`'s configuration in the current topology, without children.
  proto::AgentConfig agent_config(NodeId v) const;
  void add_agent(proto::AgentConfig cfg);

  net::Topology topo_;
  net::SlotframeConfig frame_;
  int own_slack_{0};
  Options opt_;
  Dispatcher& d_;
  Channel& ch_;
  proto::NetworkTables tables_;
  std::vector<std::unique_ptr<proto::HarpAgent>> agents_;
  std::vector<std::unique_ptr<ReliableEndpoint>> endpoints_;
};

}  // namespace harp::rt
