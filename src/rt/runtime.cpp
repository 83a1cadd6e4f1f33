#include "rt/runtime.hpp"

#include <string>
#include <utility>

#include "common/error.hpp"
#include "common/hash.hpp"
#include "harp/rm_scheduler.hpp"

namespace harp::rt {

std::uint64_t state_fingerprint(const core::PartitionTable& parts,
                                const core::Schedule& sched) {
  // Walks both tables in place: row counts come from the per-node sizes
  // and total_cells(), so no flattened copy of either table is built.
  std::uint64_t h = kFnvOffset;
  for (Direction dir : {Direction::kUp, Direction::kDown}) {
    std::size_t rows = 0;
    for (NodeId node = 0; node < parts.num_nodes(); ++node) {
      rows += parts.of(dir, node).size();
    }
    h = fnv1a_u64(h, rows);
    for (NodeId node = 0; node < parts.num_nodes(); ++node) {
      for (const auto& [layer, p] : parts.of(dir, node)) {
        h = fnv1a_u64(h, dir == Direction::kUp ? 0 : 1);
        h = fnv1a_u64(h, node);
        h = fnv1a_u64(h, static_cast<std::uint64_t>(layer));
        h = fnv1a_u64(h, static_cast<std::uint64_t>(p.comp.slots));
        h = fnv1a_u64(h, static_cast<std::uint64_t>(p.comp.channels));
        h = fnv1a_u64(h, p.slot);
        h = fnv1a_u64(h, p.channel);
      }
    }
  }
  h = fnv1a_u64(h, sched.total_cells());
  for (NodeId child = 0; child < sched.num_nodes(); ++child) {
    for (Direction dir : {Direction::kUp, Direction::kDown}) {
      for (const Cell& cell : sched.cells(child, dir)) {
        h = fnv1a_u64(h, child);
        h = fnv1a_u64(h, dir == Direction::kUp ? 0 : 1);
        h = fnv1a_u64(h, cell.slot);
        h = fnv1a_u64(h, cell.channel);
      }
    }
  }
  return h;
}

ProtoRuntime::ProtoRuntime(const net::Topology& topo,
                           const net::TrafficMatrix& traffic,
                           const net::SlotframeConfig& frame, Dispatcher& d,
                           Channel& ch, std::span<const net::Task> tasks,
                           int own_slack, Options opt)
    : topo_(topo),
      frame_(frame),
      own_slack_(own_slack),
      opt_(opt),
      d_(d),
      ch_(ch),
      parts_(topo.size()),
      schedule_(topo.size()) {
  // Demands come from the traffic matrix, RM priorities from the tasks.
  const core::LinkPeriods periods = core::link_periods(topo, tasks);
  for (NodeId v = 0; v < topo.size(); ++v) {
    proto::AgentConfig cfg = agent_config(v);
    for (NodeId c : topo.children(v)) {
      cfg.children.push_back(proto::ChildLink{
          c, topo.is_leaf(c), traffic.uplink(c), traffic.downlink(c),
          periods.up[c], periods.down[c]});
    }
    add_agent(std::move(cfg));
  }
}

proto::AgentConfig ProtoRuntime::agent_config(NodeId v) const {
  proto::AgentConfig cfg;
  cfg.id = v;
  cfg.parent = topo_.parent(v);
  cfg.link_layer = topo_.link_layer(v);
  cfg.frame = frame_;
  cfg.own_slack = own_slack_;
  return cfg;
}

void ProtoRuntime::add_agent(proto::AgentConfig cfg) {
  agents_.push_back(
      std::make_unique<proto::HarpAgent>(std::move(cfg), parts_, schedule_));
  // The endpoint attaches itself to the channel as its agent's sink.
  endpoints_.push_back(std::make_unique<ReliableEndpoint>(
      *agents_.back(), d_, ch_, opt_.arq));
}

proto::HarpAgent& ProtoRuntime::agent(NodeId id) {
  HARP_ASSERT(id < agents_.size());
  return *agents_[id];
}

const proto::HarpAgent& ProtoRuntime::agent(NodeId id) const {
  HARP_ASSERT(id < agents_.size());
  return *agents_[id];
}

ReliableEndpoint& ProtoRuntime::endpoint(NodeId id) {
  HARP_ASSERT(id < endpoints_.size());
  return *endpoints_[id];
}

void ProtoRuntime::require_node(std::string_view op, NodeId node,
                                bool device) const {
  if (node < topo_.size() && !(device && node == net::Topology::gateway())) {
    return;
  }
  throw InvalidArgument(std::string(op) +
                        (node < topo_.size() ? ": gateway node "
                                             : ": unknown node ") +
                        std::to_string(node));
}

proto::MessageStats ProtoRuntime::settle() {
  d_.run_until_idle(opt_.max_events);
  return ch_.stats();
}

bool ProtoRuntime::quiescent() {
  if (!d_.idle()) return false;
  for (const auto& ep : endpoints_) {
    if (!ep->quiescent()) return false;
  }
  return true;
}

proto::MessageStats ProtoRuntime::bootstrap() {
  // Deepest nodes first so reports flow bottom-up naturally: each start
  // is one dispatcher task, so the send order (and with it the delivered
  // order on in-order transports) is the bottom-up node order.
  ch_.reset_stats();
  for (NodeId v : topo_.nodes_bottom_up()) {
    d_.post([this, v] { agent(v).start(endpoint(v)); });
  }
  proto::MessageStats stats = settle();
  for (NodeId v = 0; v < topo_.size(); ++v) {
    if (!topo_.is_leaf(v)) HARP_ASSERT(agent(v).ready());
  }
  return stats;
}

proto::MessageStats ProtoRuntime::change_demand(NodeId child, Direction dir,
                                                int cells) {
  require_node("change_demand", child, true);
  const NodeId parent = topo_.parent(child);
  ch_.reset_stats();
  d_.post([this, parent, child, dir, cells] {
    agent(parent).change_demand(child, dir, cells, endpoint(parent));
  });
  return settle();
}

ProtoRuntime::JoinResult ProtoRuntime::join_node(NodeId parent, int up_cells,
                                                 int down_cells,
                                                 std::uint32_t rm_period) {
  require_node("join_node", parent, false);
  topo_ = topo_.with_leaf(parent);
  const NodeId node = static_cast<NodeId>(topo_.size() - 1);
  parts_.resize(topo_.size());
  schedule_.resize(topo_.size());
  add_agent(agent_config(node));

  ch_.reset_stats();
  d_.post([this, node] { agent(node).start(endpoint(node)); });
  d_.post([this, parent, node, up_cells, down_cells, rm_period] {
    agent(parent).add_child(proto::ChildLink{node, true, up_cells, down_cells,
                                             rm_period, rm_period},
                            endpoint(parent));
  });
  return {node, settle()};
}

proto::MessageStats ProtoRuntime::leave_node(NodeId leaf) {
  require_node("leave_node", leaf, true);
  const NodeId parent = topo_.parent(leaf);
  ch_.reset_stats();
  d_.post([this, parent, leaf] {
    agent(parent).remove_child(leaf, endpoint(parent));
  });
  return settle();
}

proto::MessageStats ProtoRuntime::roam_node(NodeId leaf, NodeId new_parent) {
  require_node("roam_node", leaf, true);
  require_node("roam_node", new_parent, false);
  net::Topology moved = topo_.with_parent(leaf, new_parent);  // no cycles
  const NodeId old_parent = topo_.parent(leaf);
  const int up = agent(old_parent).child_demand(leaf, Direction::kUp);
  const int down = agent(old_parent).child_demand(leaf, Direction::kDown);

  ch_.reset_stats();
  d_.post([this, old_parent, leaf] {
    agent(old_parent).remove_child(leaf, endpoint(old_parent));
  });
  settle();
  topo_ = std::move(moved);
  agent(leaf).rehome(new_parent, topo_.link_layer(leaf));
  d_.post([this, new_parent, leaf, up, down] {
    agent(new_parent).add_child(
        proto::ChildLink{leaf, true, up, down, ~0u, ~0u},
        endpoint(new_parent));
  });
  return settle();
}

std::uint64_t ProtoRuntime::total_retransmits() const {
  std::uint64_t n = 0;
  for (const auto& ep : endpoints_) n += ep->retransmits();
  return n;
}

std::uint64_t ProtoRuntime::total_give_ups() const {
  std::uint64_t n = 0;
  for (const auto& ep : endpoints_) n += ep->give_ups();
  return n;
}

}  // namespace harp::rt
