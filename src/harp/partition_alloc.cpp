#include "harp/partition_alloc.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace harp::core {

Partition PartitionTable::get(Direction dir, NodeId node, int layer) const {
  HARP_ASSERT(node < num_nodes());
  const auto& per_node = side(dir)[node];
  const auto it = per_node.find(layer);
  return it == per_node.end() ? Partition{} : it->second;
}

void PartitionTable::set(Direction dir, NodeId node, int layer, Partition p) {
  HARP_ASSERT(node < num_nodes());
  HARP_ASSERT(layer >= 1);
  if (p.empty()) {
    side(dir)[node].erase(layer);
  } else {
    side(dir)[node][layer] = p;
  }
}

void PartitionTable::erase(Direction dir, NodeId node, int layer) {
  HARP_ASSERT(node < num_nodes());
  side(dir)[node].erase(layer);
}

void PartitionTable::assign(Direction dir, NodeId node, PerNode row) {
  HARP_ASSERT(node < num_nodes());
  std::erase_if(row, [](const auto& entry) { return entry.second.empty(); });
  side(dir)[node] = std::move(row);
}

std::vector<int> PartitionTable::layers(Direction dir, NodeId node) const {
  HARP_ASSERT(node < num_nodes());
  std::vector<int> out;
  for (const auto& [layer, p] : side(dir)[node]) out.push_back(layer);
  return out;
}

std::vector<PartitionTable::Row> PartitionTable::rows(Direction dir) const {
  std::vector<Row> out;
  for (NodeId node = 0; node < num_nodes(); ++node) {
    for (const auto& [layer, p] : side(dir)[node]) {
      out.push_back({node, layer, p});
    }
  }
  return out;
}

namespace {

std::int64_t total_slots(const std::map<int, ResourceComponent>& comps) {
  std::int64_t total = 0;
  for (const auto& [layer, c] : comps) total += c.slots;
  return total;
}

std::map<int, ResourceComponent> gateway_components(const InterfaceSet& ifs) {
  std::map<int, ResourceComponent> comps;
  for (int layer : ifs.layers(net::Topology::gateway())) {
    comps[layer] = ifs.component(net::Topology::gateway(), layer);
  }
  return comps;
}

/// Derives child partitions from every composed layer's layout, top-down.
void descend(const net::Topology& topo, const InterfaceSet& ifs,
             Direction dir, PartitionTable& table) {
  for (NodeId node : topo.nodes_top_down()) {
    if (topo.is_leaf(node)) continue;
    for (int layer : ifs.layers(node)) {
      const auto& layout = ifs.layout(node, layer);
      if (layout.empty()) continue;  // own-layer component: no sub-partitions
      const Partition parent_part = table.get(dir, node, layer);
      HARP_ASSERT(!parent_part.empty());
      for (const packing::Placement& pl : layout) {
        const auto child = static_cast<NodeId>(pl.id);
        const ResourceComponent cc = ifs.component(child, layer);
        HARP_ASSERT(cc.slots == pl.w && cc.channels == pl.h);
        table.set(dir, child, layer,
                  Partition{cc,
                            parent_part.slot + static_cast<SlotId>(pl.x),
                            parent_part.channel +
                                static_cast<ChannelId>(pl.y)});
      }
    }
  }
}

}  // namespace

std::optional<std::map<int, Partition>> place_gateway_side(
    const std::map<int, ResourceComponent>& comps, Direction dir,
    SlotId limit_begin, SlotId limit_end,
    const std::map<int, Partition>& current, SlotId gap) {
  // Spatial processing order is deepest layer first in both directions:
  // uplink grows left-to-right from limit_begin, downlink right-to-left
  // from limit_end (keeping shallow layers earliest in time, per the
  // compliant order).
  std::vector<int> order;
  for (const auto& [layer, c] : comps) {
    if (!c.empty()) order.push_back(layer);
  }
  std::sort(order.begin(), order.end(), std::greater<int>());

  std::map<int, Partition> out;
  if (dir == Direction::kUp) {
    std::int64_t cursor = limit_begin;
    for (int layer : order) {
      const ResourceComponent c = comps.at(layer);
      std::int64_t start = cursor;
      const auto it = current.find(layer);
      if (it != current.end()) {
        start = std::max<std::int64_t>(cursor, it->second.slot);
      }
      if (start + c.slots > static_cast<std::int64_t>(limit_end)) {
        return std::nullopt;
      }
      out[layer] = Partition{c, static_cast<SlotId>(start), 0};
      cursor = start + c.slots + gap;
    }
  } else {
    std::int64_t cursor = limit_end;
    for (int layer : order) {
      const ResourceComponent c = comps.at(layer);
      std::int64_t end = cursor;
      const auto it = current.find(layer);
      if (it != current.end()) {
        end = std::min<std::int64_t>(cursor, it->second.end_slot());
      }
      const std::int64_t start = end - c.slots;
      if (start < static_cast<std::int64_t>(limit_begin)) return std::nullopt;
      out[layer] = Partition{c, static_cast<SlotId>(start), 0};
      cursor = start - static_cast<std::int64_t>(gap);
    }
  }
  return out;
}

std::pair<std::map<int, Partition>, std::map<int, Partition>>
initial_gateway_layout(const std::map<int, ResourceComponent>& up,
                       const std::map<int, ResourceComponent>& down,
                       const net::SlotframeConfig& frame) {
  frame.validate();
  for (const auto* side : {&up, &down}) {
    for (const auto& [layer, c] : *side) {
      if (c.channels > static_cast<int>(frame.num_channels)) {
        throw InfeasibleError("gateway component at layer " +
                              std::to_string(layer) + " needs " +
                              std::to_string(c.channels) +
                              " channels, have " +
                              std::to_string(frame.num_channels));
      }
    }
  }
  const std::int64_t up_total = total_slots(up);
  const std::int64_t down_total = total_slots(down);
  if (up_total + down_total > static_cast<std::int64_t>(frame.data_slots)) {
    throw InfeasibleError(
        "super-partitions need " + std::to_string(up_total + down_total) +
        " slots, data sub-frame has " + std::to_string(frame.data_slots));
  }

  // Spread the spare slots as inter-layer gaps, half per direction, so a
  // later growth of one layer can extend in place.
  const std::int64_t spare = frame.data_slots - up_total - down_total;
  const auto per_gap = [](std::int64_t budget, std::size_t layers) -> SlotId {
    return layers > 1 ? static_cast<SlotId>(budget / static_cast<std::int64_t>(
                                                         layers - 1))
                      : 0;
  };
  const SlotId up_gap = per_gap(spare / 2, up.size());
  const SlotId down_gap = per_gap(spare - spare / 2, down.size());

  const std::int64_t down_span =
      down_total +
      static_cast<std::int64_t>(down_gap) *
          (down.empty() ? 0 : static_cast<std::int64_t>(down.size()) - 1);

  auto up_parts = place_gateway_side(
      up, Direction::kUp, 0,
      static_cast<SlotId>(frame.data_slots - down_span), {}, up_gap);
  auto down_parts = place_gateway_side(down, Direction::kDown, 0,
                                       frame.data_slots, {}, down_gap);
  HARP_ASSERT(up_parts && down_parts);  // totals were checked above
  return {std::move(*up_parts), std::move(*down_parts)};
}

std::optional<std::map<int, Partition>> replace_gateway_side(
    const std::map<int, ResourceComponent>& comps, Direction dir,
    const net::SlotframeConfig& frame,
    const std::map<int, Partition>& current_side,
    const std::map<int, Partition>& other_side) {
  for (const auto& [layer, c] : comps) {
    if (c.channels > static_cast<int>(frame.num_channels)) {
      return std::nullopt;
    }
  }
  // The other direction's partitions bound the usable window.
  SlotId limit_begin = 0;
  SlotId limit_end = frame.data_slots;
  for (const auto& [layer, p] : other_side) {
    if (dir == Direction::kUp) {
      limit_end = std::min(limit_end, p.slot);
    } else {
      limit_begin = std::max(limit_begin, p.end_slot());
    }
  }
  // Anchored first: untouched layers keep their positions and only the
  // grown layer (plus whoever it displaces) moves.
  if (auto anchored = place_gateway_side(comps, dir, limit_begin, limit_end,
                                         current_side, 0)) {
    return anchored;
  }
  // Compact fallback: shift everything together.
  return place_gateway_side(comps, dir, limit_begin, limit_end, {}, 0);
}

AllocationResult allocate_partitions(const net::Topology& topo,
                                     const InterfaceSet& up,
                                     const InterfaceSet& down,
                                     const net::SlotframeConfig& frame) {
  frame.validate();

  AllocationResult result;
  result.partitions = PartitionTable(topo.size());
  const auto up_comps = gateway_components(up);
  const auto down_comps = gateway_components(down);
  result.uplink_slots = static_cast<SlotId>(total_slots(up_comps));
  result.downlink_slots = static_cast<SlotId>(total_slots(down_comps));

  auto [up_parts, down_parts] =
      initial_gateway_layout(up_comps, down_comps, frame);
  for (const auto& [layer, p] : up_parts) {
    result.partitions.set(Direction::kUp, net::Topology::gateway(), layer, p);
  }
  for (const auto& [layer, p] : down_parts) {
    result.partitions.set(Direction::kDown, net::Topology::gateway(), layer,
                          p);
  }

  descend(topo, up, Direction::kUp, result.partitions);
  descend(topo, down, Direction::kDown, result.partitions);
  return result;
}

std::string validate_partitions(const net::Topology& topo,
                                const InterfaceSet& up,
                                const InterfaceSet& down,
                                const PartitionTable& parts,
                                const net::SlotframeConfig& frame) {
  struct Tagged {
    Direction dir;
    NodeId node;
    int layer;
    Partition p;
  };

  for (Direction dir : {Direction::kUp, Direction::kDown}) {
    const InterfaceSet& ifs = dir == Direction::kUp ? up : down;

    // 1. Every non-empty component has a matching, in-bounds partition.
    for (NodeId node = 0; node < topo.size(); ++node) {
      for (int layer : ifs.layers(node)) {
        const ResourceComponent c = ifs.component(node, layer);
        const Partition p = parts.get(dir, node, layer);
        if (p.empty()) {
          return "missing partition for node " + std::to_string(node) +
                 " layer " + std::to_string(layer);
        }
        if (p.comp != c) {
          return "partition/component size mismatch at node " +
                 std::to_string(node) + " layer " + std::to_string(layer);
        }
        if (p.end_slot() > frame.data_slots ||
            p.end_channel() > frame.num_channels) {
          return "partition " + to_string(p) + " of node " +
                 std::to_string(node) + " exceeds the data sub-frame";
        }
      }
    }

    // 2. Child partitions nest inside the parent's partition at the same
    //    layer and siblings are disjoint.
    for (NodeId node = 0; node < topo.size(); ++node) {
      for (int layer : ifs.layers(node)) {
        if (ifs.layout(node, layer).empty()) continue;
        const Partition outer = parts.get(dir, node, layer);
        std::vector<Partition> inner;
        for (NodeId child : topo.children(node)) {
          if (ifs.component(child, layer).empty()) continue;
          const Partition p = parts.get(dir, child, layer);
          if (p.slot < outer.slot || p.end_slot() > outer.end_slot() ||
              p.channel < outer.channel ||
              p.end_channel() > outer.end_channel()) {
            return "child " + std::to_string(child) + " partition " +
                   to_string(p) + " escapes parent partition " +
                   to_string(outer);
          }
          inner.push_back(p);
        }
        for (std::size_t i = 0; i < inner.size(); ++i) {
          for (std::size_t j = i + 1; j < inner.size(); ++j) {
            if (inner[i].overlaps(inner[j])) {
              return "sibling partitions overlap under node " +
                     std::to_string(node) + " at layer " +
                     std::to_string(layer);
            }
          }
        }
      }
    }
  }

  // 3. The leaf-level scheduling partitions (each node's own-layer
  //    partition) are globally pairwise disjoint across nodes AND
  //    directions: this is the resource-isolation property that makes
  //    distributed scheduling collision-free.
  std::vector<Tagged> own;
  for (Direction dir : {Direction::kUp, Direction::kDown}) {
    const InterfaceSet& ifs = dir == Direction::kUp ? up : down;
    for (NodeId node = 0; node < topo.size(); ++node) {
      if (topo.is_leaf(node)) continue;
      const int l0 = topo.link_layer(node);
      if (ifs.component(node, l0).empty()) continue;
      own.push_back({dir, node, l0, parts.get(dir, node, l0)});
    }
  }
  for (std::size_t i = 0; i < own.size(); ++i) {
    for (std::size_t j = i + 1; j < own.size(); ++j) {
      if (own[i].p.overlaps(own[j].p)) {
        return "scheduling partitions of node " + std::to_string(own[i].node) +
               " (" + to_string(own[i].dir) + ") and node " +
               std::to_string(own[j].node) + " (" + to_string(own[j].dir) +
               ") overlap: " + to_string(own[i].p) + " vs " +
               to_string(own[j].p);
      }
    }
  }
  return {};
}

}  // namespace harp::core
