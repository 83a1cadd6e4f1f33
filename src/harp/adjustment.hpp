// Feasibility test and cost-aware partition adjustment
// (paper Problems 2-3, Alg. 2).
//
// When child j's component at layer l grows, its parent tries to rearrange
// the sibling partitions inside its own partition P_{p,l} so the new
// component fits while MOVING AS FEW SIBLINGS AS POSSIBLE — every moved
// partition costs reconfiguration messages down that branch. The heuristic
// mirrors Alg. 2: first try to fit the grown component into the idle space
// alone; then progressively free the partitions closest to it (nearby idle
// area coalesces best) and repack the freed set; as a last resort free
// everything and solve the rectangle-packing problem from scratch.
//
// adjust_hop + recompose_hop are the per-node step of Alg. 2 that the
// engine's climb and the distributed agents both run.
#pragma once

#include <optional>
#include <vector>

#include "harp/compose.hpp"
#include "harp/resource.hpp"
#include "packing/rect.hpp"

namespace harp::core {

struct AdjustOutcome {
  bool success{false};
  /// Complete new relative layout (all children components, id = child).
  std::vector<packing::Placement> layout;
  /// Children other than the requester whose placement changed.
  std::vector<NodeId> moved;
};

/// Which side newly added slots attach to when a component grows. Uplink
/// partitions grow toward later slots (right: the inter-layer gap sits
/// after them); downlink partitions grow toward earlier slots (left), so
/// the existing interior keeps its absolute position when the partition's
/// start moves.
enum class GrowSide { kRight, kLeft };

inline GrowSide grow_side(Direction dir) {
  return dir == Direction::kUp ? GrowSide::kRight : GrowSide::kLeft;
}

/// Problem 2: can the given components (current siblings with child_j's
/// replaced by `updated`) be packed into a box at all? Uses the same
/// packing heuristics as the adjustment itself, so "feasible" here means
/// "our solver can realize it".
bool feasibility_test(const ResourceComponent& box,
                      const std::vector<packing::Placement>& current_layout,
                      NodeId child_j, const ResourceComponent& updated);

/// Problem 3 / Alg. 2. `current_layout` holds the relative placements of
/// all child components inside the parent partition (id = child node id);
/// `child_j` may or may not appear in it (it does not when the subtree is
/// new at this layer). On success the returned layout contains every
/// previous child (with j's component resized to `updated`), all within
/// the box and non-overlapping.
/// `side` selects the in-place-first candidate: before any repacking, the
/// grown component is tried at its current position extended toward that
/// side — when adjacent idle cells suffice, nothing moves at all.
AdjustOutcome adjust_partition_layout(
    const ResourceComponent& box,
    const std::vector<packing::Placement>& current_layout, NodeId child_j,
    const ResourceComponent& updated, GrowSide side = GrowSide::kRight);

/// Anchored composite growth: when child_j's grown component cannot fit
/// the CURRENT box, extend the box minimally — channels first (slots are
/// the scarcer resource), then slots on `side` — while keeping every
/// sibling placement fixed. This is what keeps an escalation's blast
/// radius to the requesting branch: siblings never receive PUT-part
/// messages. Returns nullopt when even the maximal extension
/// (max_channels) cannot host the child.
struct GrownComposite {
  ResourceComponent box;
  std::vector<packing::Placement> layout;
};
std::optional<GrownComposite> grow_composite_anchored(
    const ResourceComponent& box,
    const std::vector<packing::Placement>& current_layout, NodeId child_j,
    const ResourceComponent& updated, int max_channels,
    GrowSide side = GrowSide::kRight);

/// One Alg. 2 hop at a parent: its new component and layout at the layer.
/// When `absorbed`, the component is the unchanged box; otherwise the
/// parent escalates it.
struct HopStep {
  bool absorbed{false};
  ResourceComponent comp;
  std::vector<packing::Placement> layout;
};

/// The hop at a parent whose child `requester` now needs `updated`:
/// absorb it inside `box` (the parent's partition size, empty when it
/// holds none at this layer), else grow the box anchored. Returns nullopt
/// when neither works; the caller then gathers the children's components
/// for recompose_hop, so the common paths never gather.
std::optional<HopStep> adjust_hop(
    const ResourceComponent& box,
    const std::vector<packing::Placement>& current_layout, NodeId requester,
    const ResourceComponent& updated, GrowSide side, int max_channels);

/// The rest of the hop: recompose the layer (Alg. 1) over `children`, the
/// requester already at its new size, and escalate the composite.
/// adjust_hop leaves a hop to it only when the parent holds no box at the
/// layer: with a box, anchored growth succeeds unless the requester is
/// wider than the frame, and then no composition fits either.
HopStep recompose_hop(const std::vector<ChildComponent>& children,
                      int max_channels);

}  // namespace harp::core
