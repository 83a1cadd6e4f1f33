// Subtree-interface memoization for full hierarchy recomputation.
//
// Bootstrap, recompaction and roam fallbacks re-derive every node's
// interface from scratch (Alg. 1 bottom-up), yet after localized churn
// most subtrees' inputs have not changed. A node's from-scratch interface
// is a pure function of its subtree (direction, M, own_slack, the child
// lists and link demands below it), so the memo keeps the pristine result
// of the last pass plus one validity bit per node and direction. Every
// input change clears the bits along its ancestor chain, and the next
// pass re-derives exactly the stale internal nodes.
//
// Soundness: the memo only ever holds from-scratch results. The engine's
// live state may drift away from them between recomputations — anchored
// growth and kept reservations after dynamic adjustments — but its writes
// clone first, so the drift never reaches the memo. The audit oracle
// `audit::check_compose_cache` re-derives the equality at runtime
// (docs/STATIC_ANALYSIS.md).
//
// Concurrency: the memo is engine-owned and used only by the engine's one
// thread (the engine-affinity contract), so it takes no lock.
#pragma once

#include <cstdint>
#include <vector>

#include "common/types.hpp"
#include "harp/resource.hpp"
#include "net/topology.hpp"

namespace harp::core {

/// Engine-side memo: per-node validity bits (per direction) and the
/// pristine result of the last generation pass. A memo is bound to one
/// engine's topology lineage — reusing it across unrelated trees without
/// invalidating would keep interfaces that were never derived for them.
///
/// Invariant: staleness is upward-closed — whenever a node whose
/// interface a chain depends on is stale, so is every ancestor above it.
/// invalidate_chain always marks its start node, then stops at the first
/// already-stale ancestor, making invalidation O(affected chain) while
/// tolerating stale-start nodes the invariant does not cover (freshly
/// attached leaves that later gain children).
class ComposeMemo {
 public:
  /// Running totals since construction (monotone; the engine publishes
  /// per-pass deltas as `harp.compose_cache.*` counters and one
  /// `compose_cache` trace event, docs/OBSERVABILITY.md).
  struct Stats {
    /// Internal nodes a pass left untouched (still valid).
    std::uint64_t hits{0};
    /// Internal nodes a pass re-derived.
    std::uint64_t misses{0};
    /// Validity bits cleared by invalidation or a parameter change.
    std::uint64_t invalidations{0};
  };

  explicit ComposeMemo(std::size_t num_nodes);

  /// Grows the arrays for newly attached nodes (stale until generated).
  void resize(std::size_t num_nodes);

  /// Marks `node` and every ancestor up to the gateway stale in `dir`.
  void invalidate_chain(const net::Topology& topo, Direction dir, NodeId node);
  /// Marks everything stale in both directions (topology rewires).
  void invalidate_all();

  /// Records the generation parameters of the current pass; when they
  /// differ from the previous pass the whole direction is invalidated
  /// (validity bits do not know about them). Returns true when the tree
  /// structure changed since the previous pass in this direction (or this
  /// is the first one): the caller must then scrub interface remnants off
  /// nodes that have become leaves — the hot loop never visits leaves.
  bool begin_pass(const net::Topology& topo, Direction dir, int num_channels,
                  int own_slack);

  /// Adds one finished pass's node counts to the totals.
  void note_pass(std::uint64_t hits, std::uint64_t misses) {
    stats_.hits += hits;
    stats_.misses += misses;
  }

  Stats stats() const { return stats_; }

  /// Statistics accumulated since the previous call (or since
  /// construction): what the `harp.compose_cache.*` counters and the
  /// `compose_cache` trace event should attribute to the generation
  /// passes just finished. The per-pass baseline lives here, with the
  /// object it describes, so a memo that is rebuilt across a topology
  /// swap starts a fresh baseline — an engine-side snapshot would keep
  /// the old totals and wrap the unsigned deltas.
  Stats take_stats_delta();

  // Raw access for generate_interfaces (indexed by NodeId).
  std::vector<std::uint8_t>& valid(Direction dir) {
    return valid_[static_cast<int>(dir)];
  }
  /// The pristine from-scratch result of the last generation pass in
  /// `dir`. Shares its node table copy-on-write with whatever the caller
  /// holds, so keeping it costs nothing — and the next pass starts from
  /// it and touches only stale nodes. Live-state drift (dynamic
  /// adjustments) never reaches it: the engine's writes clone first.
  InterfaceSet& last_result(Direction dir) {
    return last_[static_cast<int>(dir)];
  }

 private:
  /// Clears every validity bit of direction `d`, counting the set ones.
  void drop_all(int d);

  std::vector<std::uint8_t> valid_[2];
  InterfaceSet last_[2];
  struct PassKey {
    std::uint64_t topo_uid{0};
    int num_channels{0};
    int own_slack{0};
    bool set{false};
  };
  PassKey key_[2];
  Stats stats_{};
  Stats stats_base_{};  // anchor of take_stats_delta()
};

}  // namespace harp::core
