#include "harp/resource.hpp"

#include <utility>

#include "common/error.hpp"

namespace harp::core {

const std::vector<packing::Placement> InterfaceSet::kEmptyLayout{};

InterfaceSet::InterfaceSet(std::size_t num_nodes)
    : store_(std::make_shared<Store>()) {
  store_->nodes.resize(num_nodes);
}

void InterfaceSet::resize(std::size_t num_nodes) {
  if (num_nodes > this->num_nodes()) mutable_store().nodes.resize(num_nodes);
}

InterfaceSet::Store& InterfaceSet::mutable_store() {
  if (!store_) {
    store_ = std::make_shared<Store>();
  } else if (store_.use_count() > 1) {
    // Shared with a snapshot (engine save/restore, the memo's pristine
    // last result): clone the table — the node interfaces themselves stay
    // shared until mutable_node touches one.
    store_ = std::make_shared<Store>(*store_);
  }
  return *store_;
}

InterfaceSet::NodeInterface& InterfaceSet::mutable_node(NodeId node) {
  std::shared_ptr<NodeInterface>& p = mutable_store().nodes[node];
  if (!p) {
    p = std::make_shared<NodeInterface>();
  } else if (p.use_count() > 1) {
    // Shared with a cache snapshot (or another set): clone before writing
    // so the snapshot stays what it was when taken.
    p = std::make_shared<NodeInterface>(*p);
  }
  return *p;
}

ResourceComponent InterfaceSet::component(NodeId node, int layer) const {
  HARP_ASSERT(node < num_nodes());
  const auto& p = store_->nodes[node];
  if (!p) return {};
  const auto it = p->find(layer);
  return it == p->end() ? ResourceComponent{} : it->second.comp;
}

void InterfaceSet::set_component(NodeId node, int layer, ResourceComponent c) {
  HARP_ASSERT(node < num_nodes());
  HARP_ASSERT(layer >= 1);
  if (c.empty()) {
    const auto& p = store_->nodes[node];
    if (!p || !p->contains(layer)) return;
    mutable_node(node).erase(layer);
  } else {
    mutable_node(node)[layer].comp = c;
  }
}

const std::vector<packing::Placement>& InterfaceSet::layout(NodeId node,
                                                            int layer) const {
  HARP_ASSERT(node < num_nodes());
  const auto& p = store_->nodes[node];
  if (!p) return kEmptyLayout;
  const auto it = p->find(layer);
  return it == p->end() ? kEmptyLayout : it->second.layout;
}

void InterfaceSet::set_layout(NodeId node, int layer,
                              std::vector<packing::Placement> layout) {
  HARP_ASSERT(node < num_nodes());
  NodeInterface& m = mutable_node(node);
  const auto it = m.find(layer);
  HARP_ASSERT(it != m.end());  // set the component first
  it->second.layout = std::move(layout);
}

void InterfaceSet::erase_placement(NodeId node, NodeId child) {
  HARP_ASSERT(node < num_nodes());
  if (store_->nodes[node] == nullptr) return;
  for (auto& [layer, entry] : mutable_node(node)) {
    std::erase_if(entry.layout, [child](const packing::Placement& p) {
      return p.id == static_cast<std::uint64_t>(child);
    });
  }
}

std::vector<int> InterfaceSet::layers(NodeId node) const {
  HARP_ASSERT(node < num_nodes());
  std::vector<int> out;
  const auto& p = store_->nodes[node];
  if (!p) return out;
  out.reserve(p->size());
  for (const auto& [layer, entry] : *p) out.push_back(layer);
  return out;
}

std::int64_t InterfaceSet::interface_cells(NodeId node) const {
  HARP_ASSERT(node < num_nodes());
  std::int64_t total = 0;
  const auto& p = store_->nodes[node];
  if (!p) return total;
  for (const auto& [layer, entry] : *p) total += entry.comp.cells();
  return total;
}

void InterfaceSet::set_node_interface(
    NodeId node, std::shared_ptr<const NodeInterface> interface) {
  HARP_ASSERT(node < num_nodes());
  HARP_ASSERT(interface != nullptr);
  // Safe const_cast: every write path goes through mutable_node, which
  // clones while the snapshot's other owners hold their references.
  mutable_store().nodes[node] =
      std::const_pointer_cast<NodeInterface>(std::move(interface));
}

bool InterfaceSet::has_interface(NodeId node) const {
  HARP_ASSERT(node < num_nodes());
  return store_->nodes[node] != nullptr;
}

void InterfaceSet::clear_node(NodeId node) {
  HARP_ASSERT(node < num_nodes());
  if (store_->nodes[node] == nullptr) return;
  mutable_store().nodes[node].reset();
}

bool operator==(const InterfaceSet& a, const InterfaceSet& b) {
  if (a.store_ == b.store_) return true;  // same table (or both empty sets)
  if (a.num_nodes() != b.num_nodes()) return false;
  static const InterfaceSet::NodeInterface kEmpty{};
  for (std::size_t i = 0; i < a.num_nodes(); ++i) {
    const auto& pa = a.store_->nodes[i];
    const auto& pb = b.store_->nodes[i];
    if (pa == pb) continue;  // same snapshot (or both null)
    if ((pa ? *pa : kEmpty) != (pb ? *pb : kEmpty)) return false;
  }
  return true;
}

}  // namespace harp::core
