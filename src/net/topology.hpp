// Routing-tree topology model.
//
// HARP assumes the network's routing graph is a tree rooted at the gateway
// (6TiSCH/RPL and WirelessHART deployments commonly form one). This module
// provides an immutable, validated tree with the subtree/layer algebra the
// paper's Section II defines:
//   * layer of a node  = hop count to the gateway (gateway = 0);
//   * layer of a link  = layer of its child endpoint, so all links between
//     V_i and its children share the value l(V_i) = layer(V_i) + 1;
//   * layer of subtree G_{V_i}, l(G_{V_i}) = deepest link layer inside it.
#pragma once

#include <cstdint>
#include <vector>

#include "common/error.hpp"
#include "common/types.hpp"

namespace harp::net {

class TopologyBuilder;

/// Immutable rooted tree. Node 0 is always the gateway. Construct through
/// TopologyBuilder or topology_gen helpers.
class Topology {
 public:
  /// Number of nodes including the gateway.
  std::size_t size() const { return parent_.size(); }

  /// Process-unique id of this tree structure, assigned at build time
  /// (copies share it — they are the same structure). Lets caches detect
  /// that the topology object they memoized against was swapped for a
  /// structurally different one.
  std::uint64_t uid() const { return uid_; }

  static constexpr NodeId gateway() { return 0; }

  /// Parent of `node`; kNoNode for the gateway. Inline: the simulator's
  /// slot loop asks it once per scheduled cell.
  NodeId parent(NodeId node) const {
    HARP_ASSERT(node < parent_.size());
    return parent_[node];
  }

  /// Children of `node` in insertion order.
  const std::vector<NodeId>& children(NodeId node) const;

  bool is_leaf(NodeId node) const { return children(node).empty(); }

  /// Hop count from `node` to the gateway (gateway -> 0).
  int node_layer(NodeId node) const;

  /// Layer shared by all links between `node` and its children,
  /// l(V_i) = node_layer(i) + 1. Valid for any node (leaves simply have no
  /// such links).
  int link_layer(NodeId node) const { return node_layer(node) + 1; }

  /// l(G_{V_i}): the largest link layer inside the subtree rooted at
  /// `node`. For a leaf this is node_layer(node) (it contains no links;
  /// we return the layer of its uplink's position minus nothing — by the
  /// paper's convention a leaf subtree has no components, and callers use
  /// subtree_depth >= link_layer to iterate component layers).
  int subtree_depth(NodeId node) const;

  /// Number of nodes in the subtree rooted at `node`, including itself.
  std::size_t subtree_size(NodeId node) const;

  /// All nodes of the subtree rooted at `node`, in preorder.
  std::vector<NodeId> subtree_nodes(NodeId node) const;

  /// True if `descendant` lies in the subtree rooted at `ancestor`
  /// (a node is its own descendant). O(1) via the ancestor table.
  bool in_subtree(NodeId ancestor, NodeId descendant) const;

  /// Ancestor of `node` at exact node-layer `layer` (0 = the gateway,
  /// node_layer(node) = the node itself); kNoNode when `layer` is deeper
  /// than the node. O(1).
  NodeId ancestor_at_layer(NodeId node, int layer) const;

  /// The child of `from` on the tree path down to `descendant`, or
  /// kNoNode when `from` is not a proper ancestor of `descendant`
  /// (e.g. the destination roamed away). O(1) downlink routing, inline
  /// for the simulator's per-packet forwarding.
  NodeId next_hop_toward(NodeId from, NodeId descendant) const {
    HARP_ASSERT(from < size() && descendant < size());
    const int fl = layer_[from];
    if (layer_[descendant] <= fl) return kNoNode;
    const std::uint32_t row =
        anc_off_[descendant] + static_cast<std::uint32_t>(fl);
    if (anc_flat_[row] != from) return kNoNode;
    return anc_flat_[row + 1];
  }

  /// Deepest link layer of the whole tree, l(G).
  int depth() const { return depth_; }

  /// Nodes ordered so every child precedes its parent (reverse BFS).
  /// This is the order in which resource interfaces are generated.
  /// Computed once at build time (the tree is immutable), so the hot
  /// recomputation paths can iterate it without a per-call allocation.
  const std::vector<NodeId>& nodes_bottom_up() const { return bottom_up_; }

  /// Nodes ordered so every parent precedes its children (BFS). This is
  /// the order in which partitions are propagated.
  const std::vector<NodeId>& nodes_top_down() const { return top_down_; }

  /// nodes_bottom_up() restricted to internal (non-leaf) nodes — the only
  /// nodes that carry an interface, so the generation hot loop iterates
  /// exactly the work items and skips the leaf majority.
  const std::vector<NodeId>& internal_bottom_up() const {
    return internal_bottom_up_;
  }

  /// Path node -> ... -> gateway, inclusive on both ends.
  std::vector<NodeId> path_to_gateway(NodeId node) const;

  /// The uplink of `child` (child transmits to its parent).
  Link uplink(NodeId child) const { return {child, parent(child)}; }

  /// The downlink of `child` (parent transmits to child).
  Link downlink(NodeId child) const { return {parent(child), child}; }

  /// All non-gateway nodes, i.e. every node that owns an uplink.
  std::vector<NodeId> device_nodes() const;

  /// Nodes at an exact node-layer.
  std::vector<NodeId> nodes_at_layer(int layer) const;

  /// A copy of this tree with one new leaf attached under `parent`
  /// (the new node's id is the old size()). Topology-dynamics support.
  Topology with_leaf(NodeId parent) const;

  /// A copy with `node` re-attached under `new_parent` (its whole subtree
  /// moves along; layers are recomputed). Throws InvalidArgument when the
  /// move would create a cycle.
  Topology with_parent(NodeId node, NodeId new_parent) const;

 private:
  friend class TopologyBuilder;
  Topology() = default;

  std::vector<NodeId> parent_;
  std::vector<std::vector<NodeId>> children_;
  std::vector<int> layer_;
  std::vector<int> subtree_depth_;
  std::vector<std::uint32_t> subtree_size_;
  /// Flattened ancestor table: row of node v (at anc_off_[v], length
  /// layer_[v] + 1) lists v's ancestors by node layer, gateway first and
  /// v itself last. O(n * depth) memory; powers the O(1) queries above.
  std::vector<NodeId> anc_flat_;
  std::vector<std::uint32_t> anc_off_;
  /// BFS order and its reverse, precomputed at build time, plus the
  /// internal-node restriction the generation hot path iterates.
  std::vector<NodeId> top_down_;
  std::vector<NodeId> bottom_up_;
  std::vector<NodeId> internal_bottom_up_;
  std::uint64_t uid_ = 0;
  int depth_ = 0;
};

/// Incremental tree construction with validation at build().
class TopologyBuilder {
 public:
  TopologyBuilder();

  /// Adds a node whose parent is `parent` (which must already exist) and
  /// returns the new node's id. Ids are dense and assigned in call order,
  /// starting at 1 (0 is the gateway).
  NodeId add_node(NodeId parent);

  /// Builds a topology from a parent vector: parents[i] is the parent of
  /// node i+1 (node 0 is the gateway and has no entry).
  static Topology from_parents(const std::vector<NodeId>& parents);

  /// Builds from a full parent vector including the gateway's kNoNode
  /// entry at index 0; parents may reference any id (BFS validation
  /// detects cycles/orphans). Used by the topology-dynamics helpers.
  static Topology build_from(const std::vector<NodeId>& parents);

  /// Finalizes and validates the tree. The builder can keep being used
  /// afterwards (build() copies).
  Topology build() const;

 private:
  std::vector<NodeId> parent_;  // parent_[0] == kNoNode (gateway)
};

}  // namespace harp::net
