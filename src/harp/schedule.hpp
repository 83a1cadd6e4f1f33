// Network schedule (cell assignment) and its validators.
//
// A schedule maps every tree link (identified by child endpoint +
// direction) to the cells it may transmit in. The validators encode the
// paper's correctness requirements and serve as the oracle for both HARP
// and the baseline schedulers:
//   1. collision-freedom  - no cell assigned to more than one link;
//   2. half-duplex        - a node never appears in two links scheduled in
//                           the same time slot (even on different channels);
//   3. sufficiency        - every link holds at least its required cells;
//   4. containment        - all cells lie inside the data sub-frame.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "net/slotframe.hpp"
#include "net/topology.hpp"
#include "net/traffic.hpp"

namespace harp::core {

/// Cell assignment for every link in a topology.
class Schedule {
 public:
  Schedule() = default;
  explicit Schedule(std::size_t num_nodes) : up_(num_nodes), down_(num_nodes) {}

  std::size_t num_nodes() const { return up_.size(); }

  /// Grows the table for newly joined nodes (no cells).
  void resize(std::size_t num_nodes) {
    if (num_nodes > up_.size()) {
      up_.resize(num_nodes);
      down_.resize(num_nodes);
    }
  }

  const std::vector<Cell>& cells(NodeId child, Direction dir) const;

  /// Replaces the cell set of one link.
  void set_cells(NodeId child, Direction dir, std::vector<Cell> cells);
  void add_cell(NodeId child, Direction dir, Cell cell);
  void clear_link(NodeId child, Direction dir);

  /// Total number of assigned cells.
  std::size_t total_cells() const;

  /// Deep equality (cell-for-cell, order included); used by the audit
  /// layer's rollback checks.
  friend bool operator==(const Schedule&, const Schedule&) = default;

 private:
  std::vector<std::vector<Cell>> up_;    // indexed by child node
  std::vector<std::vector<Cell>> down_;
  std::vector<std::vector<Cell>>& table(Direction dir) {
    return dir == Direction::kUp ? up_ : down_;
  }
  const std::vector<std::vector<Cell>>& table(Direction dir) const {
    return dir == Direction::kUp ? up_ : down_;
  }
};

/// Full validation per the four rules above. Returns an empty string when
/// the schedule is valid, else a description of the first violation.
/// Set `check_sufficiency` to false for best-effort baseline schedulers
/// that deliberately assign exactly the demanded cells but may collide.
std::string validate_schedule(const net::Topology& topo,
                              const net::TrafficMatrix& traffic,
                              const Schedule& schedule,
                              const net::SlotframeConfig& frame,
                              bool check_sufficiency = true);

/// Counts colliding transmissions: the number of schedule entries whose
/// cell is shared with at least one other entry, PLUS entries violating
/// half-duplex at either endpoint. This is the numerator of the collision
/// probability reported in Fig. 11 (denominator = total entries).
std::size_t count_colliding_entries(const net::Topology& topo,
                                    const Schedule& schedule);

}  // namespace harp::core
