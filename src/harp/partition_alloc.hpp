// Top-down partition allocation (paper Sec. IV-C).
//
// Once the gateway holds the composed interface I_g, it pins every
// gateway-level component to a location in the Data sub-frame and the
// partition information flows down the tree: each node carves its own
// partitions into child partitions using the composition layout recorded
// during interface generation.
//
// Placement at the gateway follows the routing-path-compliant property of
// APaS [19]: the slotframe's data region is split into an uplink
// super-partition (from the left edge) and a downlink super-partition
// (right-aligned at the end of the data sub-frame). Within uplink, deeper
// layers come first (a sensor packet traverses layer L, then L-1, ...);
// within downlink, shallower layers come first. This keeps per-packet
// in-slotframe forwarding possible, bounding e2e latency near one
// slotframe.
#pragma once

#include <map>
#include <optional>
#include <vector>

#include "harp/resource.hpp"
#include "net/slotframe.hpp"
#include "net/topology.hpp"

namespace harp::core {

/// Partition lookup for every (direction, node, layer).
class PartitionTable {
 public:
  PartitionTable() = default;
  explicit PartitionTable(std::size_t num_nodes)
      : up_(num_nodes), down_(num_nodes) {}

  std::size_t num_nodes() const { return up_.size(); }

  /// Grows the table for newly joined nodes (no partitions).
  void resize(std::size_t num_nodes) {
    if (num_nodes > up_.size()) {
      up_.resize(num_nodes);
      down_.resize(num_nodes);
    }
  }

  /// P_{node,layer} for one direction; empty partition when absent.
  Partition get(Direction dir, NodeId node, int layer) const;
  void set(Direction dir, NodeId node, int layer, Partition p);
  void erase(Direction dir, NodeId node, int layer);

  /// Layers at which `node` holds a non-empty partition, ascending.
  std::vector<int> layers(Direction dir, NodeId node) const;

  /// One node's partitions of one direction, layer -> P, ascending — a
  /// borrowed read-only view for walks that must not allocate (the state
  /// digests). Invalidated by any mutation of this table.
  using PerNode = std::map<int, Partition>;
  const PerNode& of(Direction dir, NodeId node) const {
    HARP_ASSERT(node < num_nodes());
    return side(dir)[node];
  }
  /// Replaces all of one node's partitions of one direction; empty ones
  /// are dropped, as set() drops them.
  void assign(Direction dir, NodeId node, PerNode row);

  /// All partitions of one direction, flattened as (node, layer, P).
  struct Row {
    NodeId node;
    int layer;
    Partition part;
  };
  std::vector<Row> rows(Direction dir) const;

  /// Deep equality over both directions; see InterfaceSet::operator==.
  friend bool operator==(const PartitionTable&, const PartitionTable&) =
      default;

 private:
  std::vector<PerNode> up_;
  std::vector<PerNode> down_;
  std::vector<PerNode>& side(Direction dir) {
    return dir == Direction::kUp ? up_ : down_;
  }
  const std::vector<PerNode>& side(Direction dir) const {
    return dir == Direction::kUp ? up_ : down_;
  }
};

struct AllocationResult {
  PartitionTable partitions;
  /// Slots consumed by each super-partition (admission-control headroom =
  /// data_slots - up - down).
  SlotId uplink_slots{0};
  SlotId downlink_slots{0};
};

/// Places the gateway's per-layer components of one direction inside
/// [limit_begin, limit_end), preserving the compliant order (uplink:
/// deeper layers earlier, growing from limit_begin; downlink: shallower
/// layers earlier, flush against limit_end).
///
/// Movement is minimal: a layer keeps its position from `current` unless
/// the cursor forces it. On first placement (`current` empty) `gap` spare
/// slots are left after every layer, so later growth can extend a single
/// layer partition in place instead of shifting its neighbours — this is
/// what keeps gateway-level adjustments local (Table II's small message
/// counts). Returns nullopt when the components cannot fit the window.
std::optional<std::map<int, Partition>> place_gateway_side(
    const std::map<int, ResourceComponent>& comps, Direction dir,
    SlotId limit_begin, SlotId limit_end,
    const std::map<int, Partition>& current, SlotId gap);

/// The gateway's components of one direction, layer -> component.
std::map<int, ResourceComponent> gateway_components(const InterfaceSet& ifs);

/// Initial gateway layout for both directions, spreading the data
/// sub-frame's spare slots as inter-layer gaps (half to each direction).
/// Throws InfeasibleError when the components cannot be admitted.
std::pair<std::map<int, Partition>, std::map<int, Partition>>
initial_gateway_layout(const std::map<int, ResourceComponent>& up,
                       const std::map<int, ResourceComponent>& down,
                       const net::SlotframeConfig& frame);

/// Gateway re-placement ladder after a component change of direction
/// `dir`: anchored first (existing partitions keep their position; the
/// grown layer extends into its gap), compact second (everything shifts).
/// Reads the gateway's components from `ifs` and its partitions of both
/// directions from `parts` in place; the other direction's partitions
/// bound the usable window. Returns nullopt when the request must be
/// rejected.
std::optional<std::map<int, Partition>> replace_gateway_side(
    const InterfaceSet& ifs, const PartitionTable& parts, Direction dir,
    const net::SlotframeConfig& frame);

/// Places both interface sets into the slotframe and derives the partition
/// of every subtree at every layer. Throws InfeasibleError when the two
/// super-partitions cannot fit the data sub-frame, or when a gateway
/// component needs more channels than available.
AllocationResult allocate_partitions(const net::Topology& topo,
                                     const InterfaceSet& up,
                                     const InterfaceSet& down,
                                     const net::SlotframeConfig& frame);

/// Validation oracle for the paper's isolation claim: every pair of
/// same-direction partitions at (node a, layer la) and (node b, layer lb)
/// must be disjoint unless one subtree contains the other and the layers
/// are equal (nested) — plus partitions of different layers never overlap,
/// and every child partition is contained in its parent's. Returns "" when
/// valid.
std::string validate_partitions(const net::Topology& topo,
                                const InterfaceSet& up,
                                const InterfaceSet& down,
                                const PartitionTable& parts,
                                const net::SlotframeConfig& frame);

}  // namespace harp::core
