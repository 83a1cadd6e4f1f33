#include "net/topology.hpp"

#include <algorithm>
#include <atomic>

#include "common/error.hpp"

namespace harp::net {

const std::vector<NodeId>& Topology::children(NodeId node) const {
  HARP_ASSERT(node < children_.size());
  return children_[node];
}

int Topology::node_layer(NodeId node) const {
  HARP_ASSERT(node < layer_.size());
  return layer_[node];
}

int Topology::subtree_depth(NodeId node) const {
  HARP_ASSERT(node < subtree_depth_.size());
  return subtree_depth_[node];
}

std::size_t Topology::subtree_size(NodeId node) const {
  HARP_ASSERT(node < subtree_size_.size());
  return subtree_size_[node];
}

std::vector<NodeId> Topology::subtree_nodes(NodeId node) const {
  std::vector<NodeId> out;
  out.reserve(subtree_size(node));
  std::vector<NodeId> stack{node};
  while (!stack.empty()) {
    const NodeId v = stack.back();
    stack.pop_back();
    out.push_back(v);
    const auto& kids = children(v);
    // Push in reverse so preorder visits children in insertion order.
    for (auto it = kids.rbegin(); it != kids.rend(); ++it) stack.push_back(*it);
  }
  return out;
}

bool Topology::in_subtree(NodeId ancestor, NodeId descendant) const {
  HARP_ASSERT(ancestor < size() && descendant < size());
  const int al = layer_[ancestor];
  if (layer_[descendant] < al) return false;
  return anc_flat_[anc_off_[descendant] + static_cast<std::uint32_t>(al)] ==
         ancestor;
}

NodeId Topology::ancestor_at_layer(NodeId node, int layer) const {
  HARP_ASSERT(node < size());
  if (layer < 0 || layer > layer_[node]) return kNoNode;
  return anc_flat_[anc_off_[node] + static_cast<std::uint32_t>(layer)];
}

std::vector<NodeId> Topology::path_to_gateway(NodeId node) const {
  std::vector<NodeId> path;
  for (NodeId v = node; v != kNoNode; v = parent(v)) path.push_back(v);
  HARP_ASSERT(path.back() == gateway());
  return path;
}

std::vector<NodeId> Topology::device_nodes() const {
  std::vector<NodeId> out;
  out.reserve(size() - 1);
  for (NodeId v = 1; v < size(); ++v) out.push_back(v);
  return out;
}

std::vector<NodeId> Topology::nodes_at_layer(int layer) const {
  std::vector<NodeId> out;
  for (NodeId v = 0; v < size(); ++v) {
    if (layer_[v] == layer) out.push_back(v);
  }
  return out;
}

TopologyBuilder::TopologyBuilder() { parent_.push_back(kNoNode); }

NodeId TopologyBuilder::add_node(NodeId parent) {
  if (parent >= parent_.size()) {
    throw InvalidArgument("parent " + std::to_string(parent) +
                          " does not exist");
  }
  parent_.push_back(parent);
  return static_cast<NodeId>(parent_.size() - 1);
}

Topology TopologyBuilder::from_parents(const std::vector<NodeId>& parents) {
  TopologyBuilder b;
  for (std::size_t i = 0; i < parents.size(); ++i) b.add_node(parents[i]);
  return b.build();
}

Topology TopologyBuilder::build() const {
  return build_from(parent_);
}

Topology TopologyBuilder::build_from(const std::vector<NodeId>& parents) {
  Topology t;
  const std::size_t n = parents.size();
  if (n == 0 || parents[0] != kNoNode) {
    throw InvalidArgument("node 0 must be the parentless gateway");
  }
  t.parent_ = parents;
  t.children_.assign(n, {});
  t.layer_.assign(n, -1);
  t.subtree_depth_.assign(n, 0);
  t.subtree_size_.assign(n, 1);

  for (NodeId v = 1; v < n; ++v) {
    if (parents[v] >= n || parents[v] == v) {
      throw InvalidArgument("node " + std::to_string(v) +
                            " has invalid parent");
    }
    t.children_[parents[v]].push_back(v);
  }

  // Layers via BFS from the gateway; unreached nodes mean a cycle or a
  // disconnected component (parents may be in arbitrary id order, e.g.
  // after a reparent).
  t.layer_[0] = 0;
  std::vector<NodeId> bfs{0};
  for (std::size_t i = 0; i < bfs.size(); ++i) {
    for (NodeId child : t.children_[bfs[i]]) {
      t.layer_[child] = t.layer_[bfs[i]] + 1;
      bfs.push_back(child);
    }
  }
  if (bfs.size() != n) {
    throw InvalidArgument("parent vector contains a cycle or orphan");
  }

  // Ancestor table: BFS order guarantees a parent's row is complete
  // before its children extend it by one entry.
  t.anc_off_.assign(n + 1, 0);
  for (NodeId v = 0; v < n; ++v) {
    t.anc_off_[v + 1] =
        t.anc_off_[v] + static_cast<std::uint32_t>(t.layer_[v] + 1);
  }
  t.anc_flat_.resize(t.anc_off_[n]);
  t.anc_flat_[0] = 0;
  for (std::size_t i = 1; i < bfs.size(); ++i) {
    const NodeId v = bfs[i];
    const NodeId p = parents[v];
    std::copy(t.anc_flat_.begin() + t.anc_off_[p],
              t.anc_flat_.begin() + t.anc_off_[p + 1],
              t.anc_flat_.begin() + t.anc_off_[v]);
    t.anc_flat_[t.anc_off_[v + 1] - 1] = v;
  }

  // Subtree sizes and depths via reverse BFS (children before parents).
  for (std::size_t i = bfs.size(); i-- > 1;) {
    const NodeId v = bfs[i];
    const NodeId p = parents[v];
    t.subtree_size_[p] += t.subtree_size_[v];
    // The uplink of v sits at link layer == layer_[v]; the subtree of p
    // reaches at least that deep.
    t.subtree_depth_[p] =
        std::max({t.subtree_depth_[p], t.subtree_depth_[v], t.layer_[v]});
  }
  for (NodeId v = 1; v < n; ++v) {
    if (t.children_[v].empty()) t.subtree_depth_[v] = t.layer_[v];
  }
  t.subtree_depth_[0] =
      std::max(t.subtree_depth_[0],
               *std::max_element(t.layer_.begin(), t.layer_.end()));
  t.depth_ = t.subtree_depth_[0];

  // The BFS above is exactly the top-down traversal order; keep it (and
  // its reverse, plus the internal-node restriction) so the
  // per-recompute traversals allocate nothing.
  t.top_down_ = std::move(bfs);
  t.bottom_up_.assign(t.top_down_.rbegin(), t.top_down_.rend());
  for (NodeId v : t.bottom_up_) {
    if (!t.children_[v].empty()) t.internal_bottom_up_.push_back(v);
  }

  static std::atomic<std::uint64_t> next_uid{0};
  t.uid_ = next_uid.fetch_add(1, std::memory_order_relaxed) + 1;
  return t;
}

Topology Topology::with_leaf(NodeId parent) const {
  HARP_ASSERT(parent < size());
  std::vector<NodeId> parents = parent_;
  parents.push_back(parent);
  return TopologyBuilder::build_from(parents);
}

Topology Topology::with_parent(NodeId node, NodeId new_parent) const {
  if (node == gateway() || node >= size()) {
    throw InvalidArgument("cannot reparent the gateway or unknown node");
  }
  if (new_parent >= size()) throw InvalidArgument("unknown new parent");
  if (in_subtree(node, new_parent)) {
    throw InvalidArgument("reparenting under own subtree would form a cycle");
  }
  std::vector<NodeId> parents = parent_;
  parents[node] = new_parent;
  return TopologyBuilder::build_from(parents);
}

}  // namespace harp::net
