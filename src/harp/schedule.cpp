#include "harp/schedule.hpp"

#include <algorithm>
#include <map>
#include <set>
#include <unordered_map>

#include "common/error.hpp"

namespace harp::core {

const std::vector<Cell>& Schedule::cells(NodeId child, Direction dir) const {
  HARP_ASSERT(child < num_nodes());
  return table(dir)[child];
}

void Schedule::set_cells(NodeId child, Direction dir, std::vector<Cell> cells) {
  HARP_ASSERT(child < num_nodes());
  table(dir)[child] = std::move(cells);
  ++version_;
}

void Schedule::add_cell(NodeId child, Direction dir, Cell cell) {
  HARP_ASSERT(child < num_nodes());
  table(dir)[child].push_back(cell);
  ++version_;
}

void Schedule::clear_link(NodeId child, Direction dir) {
  HARP_ASSERT(child < num_nodes());
  table(dir)[child].clear();
  ++version_;
}

std::size_t Schedule::total_cells() const {
  std::size_t total = 0;
  for (const auto& v : up_) total += v.size();
  for (const auto& v : down_) total += v.size();
  return total;
}

std::string validate_schedule(const net::Topology& topo,
                              const net::TrafficMatrix& traffic,
                              const Schedule& schedule,
                              const net::SlotframeConfig& frame,
                              bool check_sufficiency) {
  frame.validate();
  if (schedule.num_nodes() != topo.size()) {
    return "schedule sized for " + std::to_string(schedule.num_nodes()) +
           " nodes, topology has " + std::to_string(topo.size());
  }

  std::map<Cell, std::pair<NodeId, Direction>> cell_owner;
  // slot -> set of nodes busy in that slot (half-duplex bookkeeping).
  std::unordered_map<SlotId, std::set<NodeId>> busy;

  for (NodeId child = 1; child < topo.size(); ++child) {
    for (Direction dir : {Direction::kUp, Direction::kDown}) {
      const auto& cells = schedule.cells(child, dir);
      if (check_sufficiency &&
          cells.size() < static_cast<std::size_t>(traffic.demand(child, dir))) {
        return "link child=" + std::to_string(child) + " dir=" +
               std::string(to_string(dir)) + " holds " +
               std::to_string(cells.size()) + " cells, needs " +
               std::to_string(traffic.demand(child, dir));
      }
      for (Cell c : cells) {
        if (c.slot >= frame.data_slots || c.channel >= frame.num_channels) {
          return "cell " + to_string(c) + " of child " +
                 std::to_string(child) + " outside the data sub-frame";
        }
        const auto [it, inserted] = cell_owner.insert({c, {child, dir}});
        if (!inserted) {
          return "cell " + to_string(c) + " assigned to both child " +
                 std::to_string(it->second.first) + " and child " +
                 std::to_string(child);
        }
        const NodeId parent = topo.parent(child);
        for (NodeId endpoint : {child, parent}) {
          if (!busy[c.slot].insert(endpoint).second) {
            return "half-duplex violation: node " + std::to_string(endpoint) +
                   " busy twice in slot " + std::to_string(c.slot);
          }
        }
      }
    }
  }
  return {};
}

std::size_t count_colliding_entries(const net::Topology& topo,
                                    const Schedule& schedule) {
  struct Entry {
    NodeId child;
    Direction dir;
    Cell cell;
    NodeId sender;
    NodeId receiver;
  };
  std::vector<Entry> entries;
  for (NodeId child = 1; child < topo.size(); ++child) {
    const NodeId parent = topo.parent(child);
    for (Cell c : schedule.cells(child, Direction::kUp)) {
      entries.push_back({child, Direction::kUp, c, child, parent});
    }
    for (Cell c : schedule.cells(child, Direction::kDown)) {
      entries.push_back({child, Direction::kDown, c, parent, child});
    }
  }

  // Exact-cell conflicts.
  std::map<Cell, int> per_cell;
  for (const Entry& e : entries) ++per_cell[e.cell];

  // Half-duplex conflicts: node engaged more than once in a slot.
  std::map<std::pair<SlotId, NodeId>, int> per_slot_node;
  for (const Entry& e : entries) {
    ++per_slot_node[{e.cell.slot, e.sender}];
    ++per_slot_node[{e.cell.slot, e.receiver}];
  }

  std::size_t colliding = 0;
  for (const Entry& e : entries) {
    if (per_cell[e.cell] > 1 ||
        per_slot_node[{e.cell.slot, e.sender}] > 1 ||
        per_slot_node[{e.cell.slot, e.receiver}] > 1) {
      ++colliding;
    }
  }
  return colliding;
}

}  // namespace harp::core
