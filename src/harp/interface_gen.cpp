#include "harp/interface_gen.hpp"

#include <algorithm>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "harp/compose.hpp"
#include "harp/compose_cache.hpp"

namespace harp::core {
namespace {

/// Per-thread buffers for one node's derivation. Distinct engines run
/// concurrently (run_fleet trial workers, fleet shards), so each thread
/// gets its own.
struct GenScratch {
  ComposeScratch compose;
  /// Children's components bucketed per composed layer (index
  /// layer - own_layer - 1), filled by one walk over each child's
  /// interface map (docs/KERNELS.md "Gather").
  std::vector<std::vector<ChildComponent>> by_layer;
  Composition composed;
};

GenScratch& gen_scratch() {
  thread_local GenScratch s;
  return s;
}

/// One contiguous block holding every interface of a from-scratch pass
/// (docs/KERNELS.md "Interface pool"). Nodes get aliased shared_ptrs into
/// the block, so a whole pass costs one allocation instead of one
/// make_shared per internal node — and the bottom-up fill order makes a
/// parent's gather walk read its children's maps from adjacent memory.
/// The block lives until the last aliased reference dies; mutating an
/// InterfaceSet entry clones it out first (the pool refcount keeps
/// use_count above 1), so snapshot semantics are unchanged.
struct InterfacePool {
  std::shared_ptr<InterfaceSet::NodeInterface[]> block;
  std::size_t next{0};
};

/// Alg. 1 for one node (Cases 1 and 2), writing into `ifs`. Children's
/// entries must be final; the node's own entry must be clear (incremental
/// passes clear stale nodes before re-deriving).
void derive_interface(const net::Topology& topo,
                      const net::TrafficMatrix& traffic, Direction dir,
                      int num_channels, int own_slack, NodeId node,
                      InterfaceSet& ifs, InterfacePool* ipool) {
  GenScratch& s = gen_scratch();
  const int own_layer = topo.link_layer(node);
  const int depth = topo.subtree_depth(node);
  const std::vector<NodeId>& children = topo.children(node);

  // Case 1: the node's own links.
  const ResourceComponent own =
      own_layer_component(topo, traffic, dir, node, own_slack);

  // Case 2 gather: instead of probing every child's map once per layer
  // (children x layers ordered lookups), walk each child's interface map
  // once and bucket its components per composed layer. A child's entries
  // all lie in (own_layer, depth] and each child contributes at most one
  // component per layer, so bucket order == children order — the part
  // order the per-layer composition saw before, bit-identical results.
  const std::size_t num_layers = static_cast<std::size_t>(depth - own_layer);
  if (s.by_layer.size() < num_layers) s.by_layer.resize(num_layers);
  for (std::size_t l = 0; l < num_layers; ++l) s.by_layer[l].clear();
  for (NodeId child : children) {
    const InterfaceSet::NodeInterface* ni = ifs.peek(child);
    if (ni == nullptr) continue;
    for (const auto& [layer, entry] : *ni) {
      HARP_ASSERT(layer > own_layer && layer <= depth);
      s.by_layer[static_cast<std::size_t>(layer - own_layer) - 1].push_back(
          {child, entry.comp});
    }
  }

  // Build the node's whole interface in one shot — layers ascend, so each
  // entry lands with a hinted tail emplace — and install it with a single
  // O(1) snapshot swap instead of per-layer set_component/set_layout
  // lookups.
  std::shared_ptr<InterfaceSet::NodeInterface> owned;
  InterfaceSet::NodeInterface* iface;
  if (ipool != nullptr) {
    // Build straight into the pass pool's next free slot. A slot whose
    // interface ends up empty is simply reused for the next node.
    iface = &ipool->block[ipool->next];
  } else {
    owned = std::make_shared<InterfaceSet::NodeInterface>();
    iface = owned.get();
  }
  iface->reserve(num_layers + 1);
  if (!own.empty()) {
    iface->append(own_layer, InterfaceSet::LayerIf{own, {}});
  }
  for (std::size_t l = 0; l < num_layers; ++l) {
    if (s.by_layer[l].empty()) continue;
    compose_components_into(s.by_layer[l], num_channels, s.compose,
                            s.composed);
    if (s.composed.composite.empty()) continue;
    iface->append(own_layer + 1 + static_cast<int>(l),
                  InterfaceSet::LayerIf{s.composed.composite,
                                        std::move(s.composed.layout)});
  }
  // An all-empty interface stays un-stored, as set_component would have
  // left it (the node was cleared before derivation on every path).
  if (iface->empty()) return;
  if (ipool != nullptr) {
    ifs.set_node_interface(
        node, std::shared_ptr<InterfaceSet::NodeInterface>(ipool->block,
                                                           iface));
    ++ipool->next;
  } else {
    ifs.set_node_interface(node, std::move(owned));
  }
}

}  // namespace

ResourceComponent own_layer_component(const net::Topology& topo,
                                      const net::TrafficMatrix& traffic,
                                      Direction dir, NodeId node,
                                      int own_slack) {
  int sum = 0;
  int active = 0;
  // One dense lane, scanned with branch-free accumulation: the gathered
  // loads and the comparison-to-count pattern vectorize cleanly.
  const std::vector<int>& demand = traffic.row(dir);
  for (NodeId child : topo.children(node)) {
    const int d = demand[child];
    sum += d;
    active += static_cast<int>(d > 0);
  }
  // Slack is per active link: every link gets its own spare cells, so a
  // lossy or bursty link cannot be starved by its siblings.
  return sum > 0 ? ResourceComponent{sum + own_slack * active, 1}
                 : ResourceComponent{};
}

InterfaceSet generate_interfaces(const net::Topology& topo,
                                 const net::TrafficMatrix& traffic,
                                 Direction dir, int num_channels,
                                 int own_slack, ComposeMemo* memo) {
  // Composition would reject this per call; checking once up front keeps
  // the invalid-argument contract even for nodes whose layers all turn
  // out empty (whose compositions are now skipped entirely).
  if (num_channels <= 0) {
    throw InvalidArgument("num_channels must be positive");
  }
  InterfaceSet ifs;

  std::vector<std::uint8_t>* valid = nullptr;
  if (memo != nullptr) {
    memo->resize(topo.size());
    const bool structure_changed =
        memo->begin_pass(topo, dir, num_channels, own_slack);
    valid = &memo->valid(dir);
    // Incremental regeneration: take over the pristine result of the last
    // pass and rewrite only the stale nodes. Still-valid nodes keep their
    // content without a single write, and when the caller released its
    // previous result first the node table is updated in place — no
    // clone, no per-node refcount traffic. Should the memo have lost its
    // result (a previous pass died mid-way), the validity bits no longer
    // have content behind them: drop them all.
    ifs = std::move(memo->last_result(dir));
    if (ifs.num_nodes() == 0 && topo.size() > 0) {
      valid->assign(valid->size(), 0);
    }
    ifs.resize(topo.size());
    if (structure_changed) {
      // The hot loop visits only internal nodes, so a node that lost its
      // last child since the previous pass would keep its stale interface
      // forever: scrub leaves once per structure change.
      for (NodeId v = 0; v < topo.size(); ++v) {
        if (topo.is_leaf(v) && ifs.has_interface(v)) ifs.clear_node(v);
      }
    }
  } else {
    ifs = InterfaceSet(topo.size());
  }

  // Passes that derive every internal node (no memo, the first pass, or
  // every bit dropped) allocate all their interfaces in one block (see
  // InterfacePool above). Incremental passes allocate per stale node:
  // their few derivations do not pay for a block, and an old block stays
  // alive only as long as the valid entries that point into it.
  const std::vector<NodeId>& internal = topo.internal_bottom_up();
  InterfacePool pool_storage;
  InterfacePool* ipool = nullptr;
  if (!internal.empty() &&
      (valid == nullptr ||
       std::none_of(internal.begin(), internal.end(),
                    [&](NodeId v) { return (*valid)[v] != 0; }))) {
    pool_storage.block =
        std::make_shared<InterfaceSet::NodeInterface[]>(internal.size());
    ipool = &pool_storage;
  }

  // Deepest first, so every child's entry is final before its parent's
  // derivation reads it. Leaves carry no interface and are skipped.
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  for (NodeId node : internal) {
    if (valid != nullptr) {
      if ((*valid)[node] != 0) {
        // Still valid: the last result's content for this subtree IS the
        // from-scratch derivation.
        ++hits;
        continue;
      }
      // Derive from a clean slate so no layer of the stale snapshot
      // survives (the snapshot itself stays intact for its other owners).
      ifs.clear_node(node);
    }
    derive_interface(topo, traffic, dir, num_channels, own_slack, node, ifs,
                     ipool);
    ++misses;
    // Validity is set only once the content is in place, so an exception
    // mid-pass can never leave a valid bit without its interface.
    if (valid != nullptr) (*valid)[node] = 1;
  }
  if (memo != nullptr) {
    memo->note_pass(hits, misses);
    memo->last_result(dir) = ifs;
  }
  return ifs;
}

}  // namespace harp::core
