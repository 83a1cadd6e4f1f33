// HARP engine: the full framework state machine.
//
// Ties together the three phases of Fig. 2:
//   1. static partition allocation  (interface generation bottom-up,
//      partition placement top-down),
//   2. distributed schedule generation (RM inside each partition),
//   3. dynamic partition adjustment  (local grab -> Alg. 2 at the parent
//      -> escalation toward the gateway).
//
// The engine holds the authoritative network state and reports, for every
// dynamic request, the exact HARP protocol messages a distributed
// deployment would exchange (PUT-intf climbing up, PUT-part fanning out to
// every subtree whose partition changed). src/proto implements the same
// logic as genuinely distributed per-node agents; tests assert both
// produce identical partitions.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "harp/compose_cache.hpp"
#include "harp/interface_gen.hpp"
#include "harp/partition_alloc.hpp"
#include "harp/rm_scheduler.hpp"
#include "harp/schedule.hpp"
#include "net/slotframe.hpp"
#include "net/task.hpp"
#include "net/topology.hpp"
#include "net/traffic.hpp"

namespace harp::core {

/// A HARP control-plane message (Table I: CoAP POST/PUT on intf/part).
struct ProtocolMessage {
  enum class Type {
    kPostIntf,  // initial interface report, child -> parent
    kPostPart,  // initial partition grant, parent -> child
    kPutIntf,   // updated interface (adjustment request), child -> parent
    kPutPart,   // updated partition, parent -> child
  };
  NodeId from{kNoNode};
  NodeId to{kNoNode};
  Type type{Type::kPutIntf};
};

const char* to_string(ProtocolMessage::Type t);

/// How a dynamic request was resolved.
enum class AdjustmentKind {
  kNoChange,       // demand unchanged
  kLocalRelease,   // demand decreased: cells released, partitions kept
  kLocalSchedule,  // fit inside the existing partition (Case 1, Fig. 5a)
  kPartitionAdjust,  // required partition adjustment (Case 2, Fig. 5b/c)
  kRejected,       // infeasible even at the gateway: admission denied
};

const char* to_string(AdjustmentKind k);

struct AdjustmentReport {
  AdjustmentKind kind{AdjustmentKind::kNoChange};
  bool satisfied{false};
  /// Every control message exchanged, in order.
  std::vector<ProtocolMessage> messages;
  /// Node at which the request was finally absorbed (the partition
  /// adjuster), when kind == kPartitionAdjust.
  NodeId resolved_at{kNoNode};
  /// PUT-intf hops climbed above the link's parent.
  int hops_up{0};
  /// Subtree partitions whose placement changed, excluding the
  /// requester's own (each costs a PUT-part and possibly propagation).
  int partitions_moved{0};
  /// Tree layers spanned by the message exchange (Table II "Layers"):
  /// distance between the deepest and shallowest nodes involved, >= 1.
  int layers_spanned(const net::Topology& topo) const;
};

struct EngineOptions {
  /// Extra slots reserved in every node's own-layer (scheduling)
  /// partition beyond the current demand — the "idle cells" of Sec. V
  /// that let small traffic increases resolve locally. 0 = exact fit.
  int own_slack = 0;
  /// Memoize subtree interfaces across full recomputations (bootstrap,
  /// recompact): a recomputation re-derives only the ancestor chains of
  /// the links that changed since the last one and keeps every other
  /// subtree's interface. Pure accelerator — the produced state is
  /// bit-identical either way (audited by check_compose_cache).
  bool compose_cache = true;
};

class HarpEngine {
 public:
  /// Constructs and immediately bootstraps (phases 1-2). Throws
  /// InfeasibleError when the task set cannot be admitted.
  HarpEngine(net::Topology topo, net::TrafficMatrix traffic,
             net::SlotframeConfig frame, std::vector<net::Task> tasks = {},
             EngineOptions options = {});

  /// Convenience: derives the traffic matrix from the tasks.
  HarpEngine(net::Topology topo, std::vector<net::Task> tasks,
             net::SlotframeConfig frame, EngineOptions options = {});

  const net::Topology& topology() const { return topo_; }
  const net::TrafficMatrix& traffic() const { return traffic_; }
  const net::SlotframeConfig& frame() const { return frame_; }
  const InterfaceSet& interfaces(Direction dir) const {
    return dir == Direction::kUp ? up_ : down_;
  }
  const PartitionTable& partitions() const { return parts_; }
  const Schedule& schedule() const { return schedule_; }

  /// The number of messages the initial (static) phases would exchange in
  /// a distributed deployment: one POST-intf per non-gateway non-leaf
  /// node, one POST-part per non-leaf node's child... (reported for
  /// overhead studies; the bootstrap itself is computed directly).
  std::size_t bootstrap_message_count() const;

  /// Dynamic request: set the demand of `child`'s link in `dir` to
  /// `new_cells` (Sec. V). Returns the report; on kRejected the engine
  /// state (including the traffic matrix) is left unchanged.
  AdjustmentReport request_demand(NodeId child, Direction dir, int new_cells);

  // ------------------------------------------------- topology dynamics
  // Sec. I-II: interference makes nodes change their connected relay,
  // and devices join/leave at runtime. Supported for LEAF devices (the
  // sensors/actuators that actually roam); moving whole relay subtrees
  // is future work, like the paper's non-tree extension.

  struct TopoChangeReport {
    NodeId node{kNoNode};
    AdjustmentReport up;
    AdjustmentReport down;
    bool satisfied() const { return up.satisfied && down.satisfied; }
    std::size_t total_messages() const {
      return up.messages.size() + down.messages.size();
    }
  };

  /// Adds a new leaf device under `parent` with the given per-direction
  /// demands and integrates it into the schedule. On rejection (either
  /// direction inadmissible) the node remains attached with zero demand —
  /// exactly a joined-but-unprovisioned device.
  TopoChangeReport attach_leaf(NodeId parent, int up_cells, int down_cells);

  /// Releases a leaf's reservations (the paper's decrease path: cells are
  /// freed, partitions keep their size). The node stays in the tree with
  /// zero demand, modelling a departed device whose slot resources are
  /// instantly reusable.
  TopoChangeReport detach_leaf(NodeId leaf);

  /// Moves a leaf under a new parent: releases the old link, rewires the
  /// tree, and requests the same demands at the new location. If the new
  /// location cannot admit them, the leaf moves back to its old parent
  /// (guaranteed to fit: its old reservation was kept) and the report is
  /// unsatisfied.
  TopoChangeReport reparent_leaf(NodeId leaf, NodeId new_parent);

  /// Re-runs every validator (partition isolation + schedule rules).
  /// Returns "" when the state is consistent.
  std::string validate() const;

  /// Deterministic 64-bit digest (FNV-1a over integers only, so it is
  /// identical across machines) of the full resource state: both
  /// interface sets, the partition table and the schedule. The equality
  /// oracle behind the determinism contract: the fingerprint must be
  /// bit-identical with the compose cache on or off
  /// (tests/compose_cache_test.cpp, bench/perf_bootstrap_scale).
  std::uint64_t state_fingerprint() const;

  /// Compose-memo totals since construction; zeros when the memo is
  /// disabled.
  ComposeMemo::Stats compose_cache_stats() const;

  /// Cells currently held by scheduling partitions (reservations included)
  /// versus the task set's true demand — the fragmentation/over-reserve
  /// gauge.
  std::int64_t reserved_cells() const;

  struct CompactionReport {
    bool performed{false};
    std::int64_t reserved_before{0};
    std::int64_t reserved_after{0};
    /// Partitions whose placement changed = PUT-part messages a
    /// deployment would broadcast during the maintenance window.
    std::size_t partitions_changed{0};
  };

  /// Global re-allocation from the CURRENT demands: drops accumulated
  /// reservations and packing fragmentation by re-running the static
  /// phases (a gateway-triggered maintenance action). Keeps the old state
  /// and reports performed=false if the fresh allocation unexpectedly
  /// fails.
  CompactionReport recompact();

 private:
  void bootstrap();
  void rebuild_schedule();
  /// Sets one link demand and invalidates the compose memo along the
  /// parent's ancestor chain (every interface this demand feeds).
  /// All engine-side demand writes go through here.
  void set_demand(NodeId child, Direction dir, int cells);
  /// Publishes the memo-stat deltas since the previous generation pass:
  /// `harp.compose_cache.*` counters plus one `compose_cache` trace event.
  void publish_cache_stats();
  /// Incremental counterpart of rebuild_schedule(): re-derives only the
  /// links under the given parents in one direction. Equivalent to a full
  /// rebuild when `parents` covers every node whose scheduling inputs
  /// (own-layer partition, child demands, link priorities) changed,
  /// because assign_cells_rm is deterministic per parent.
  void rebuild_links(Direction dir, const std::set<NodeId>& parents);
  /// request_demand minus the observability envelope (events + counters
  /// recorded by the public wrapper).
  AdjustmentReport request_demand_impl(NodeId child, Direction dir,
                                       int new_cells);

  struct ClimbResult;
  /// On success fills `dirty_parents` with the nodes whose own-layer
  /// (scheduling) partition the escalation moved.
  AdjustmentReport climb(NodeId start, int layer, Direction dir,
                         ResourceComponent grown,
                         std::set<NodeId>& dirty_parents);

  net::Topology topo_;
  net::TrafficMatrix traffic_;
  net::SlotframeConfig frame_;
  std::vector<net::Task> tasks_;
  EngineOptions options_;
  LinkPeriods periods_;

  InterfaceSet up_;
  InterfaceSet down_;
  PartitionTable parts_;
  Schedule schedule_;

  /// Subtree-interface memo (null when options_.compose_cache is false).
  std::unique_ptr<ComposeMemo> memo_;
  /// Full recomputations so far; the audit layer samples the expensive
  /// cache-soundness oracle on power-of-two counts.
  std::uint64_t recompute_count_{0};
};

}  // namespace harp::core
