// Resource Component Composition (paper Problem 1 / Alg. 1).
//
// A node composes its direct subtrees' components at one layer into a
// single composite component, minimizing the number of slots first and the
// number of channels second. The paper maps the problem to 2-D strip
// packing twice ("double mapping"):
//   pass 1: strip width = M channels  -> minimal slot count n_s^min;
//   pass 2: strip width = n_s^min slots -> minimal channel count.
// The second pass's layout is kept: it tells the node where each child
// component lives inside the composite, which partition allocation later
// turns into concrete child partitions.
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "common/types.hpp"
#include "harp/resource.hpp"
#include "packing/rect.hpp"
#include "packing/skyline.hpp"

namespace harp::core {

/// One child's contribution to a composition.
struct ChildComponent {
  NodeId child{kNoNode};
  ResourceComponent comp;
};

struct Composition {
  /// The minimal composite [n_s^min, n_c^min].
  ResourceComponent composite;
  /// Relative placements of each child's component inside the composite
  /// (x = slot offset, y = channel offset, id = child NodeId).
  std::vector<packing::Placement> layout;
};

/// Reusable buffers for compose_components_into: the rect list and the
/// two strip-packing passes of the double mapping, plus the packer's own
/// scratch. One per thread keeps the composition hot path allocation-free
/// in steady state.
struct ComposeScratch {
  packing::PackScratch pack;
  std::vector<packing::Rect> rects;
  packing::StripResult pass1;
  packing::StripResult pass2;
};

/// Composes child components per Alg. 1. Children with empty components
/// are ignored. Throws InfeasibleError if any child needs more than
/// `num_channels` channels (cannot fit the strip of pass 1), and
/// InvalidArgument on num_channels <= 0.
Composition compose_components(const std::vector<ChildComponent>& children,
                               int num_channels);

/// Scratch-reusing core of compose_components: identical output, with all
/// intermediate buffers drawn from `scratch` and the result written into
/// `out` (layout capacity reused).
void compose_components_into(std::span<const ChildComponent> children,
                             int num_channels, ComposeScratch& scratch,
                             Composition& out);

/// The naive single-rectangle abstraction the paper's Fig. 3 argues
/// against: one bounding component per subtree covering ALL layers at
/// once (sum of slots across layers, max channels). Used only by the
/// ablation benchmark quantifying the layered-interface design.
ResourceComponent monolithic_bound(const std::vector<ResourceComponent>& comps);

}  // namespace harp::core
