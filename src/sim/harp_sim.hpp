// HarpSimulation: the complete testbed-in-software.
//
// Combines one HarpAgent per node (the distributed control plane, run by
// rt::ProtoRuntime), the management plane (protocol messages over
// management-sub-frame cells, slot-accurate, through sim::MgmtChannel on
// a dispatcher whose tick is one absolute slot), and the TSCH data plane
// (packets over the scheduled cells, run up to each management departure
// from the channel's slot hook). The data plane's slot table is
// reinstalled at logged management departures, and only when some agent
// changed the schedule since the previous install. This is the substrate
// for the paper's testbed experiments: Fig. 9 (static latency), Fig. 10
// (latency under rate changes) and Table II (adjustment overhead with
// real message timing).
#pragma once

#include <vector>

#include "proto/agent.hpp"
#include "rt/dispatcher.hpp"
#include "rt/runtime.hpp"
#include "sim/data_plane.hpp"
#include "sim/mgmt_plane.hpp"

namespace harp::sim {

class HarpSimulation {
 public:
  struct Options {
    net::SlotframeConfig frame;
    double pdr = 1.0;
    std::uint64_t seed = 1;
    std::size_t queue_capacity = 128;
    /// Reservation headroom per scheduling partition (idle cells that
    /// absorb local growth; see core::EngineOptions::own_slack).
    int own_slack = 0;
  };

  /// Builds agents and the planes. Does not exchange messages yet.
  HarpSimulation(const net::Topology& topo, std::vector<net::Task> tasks,
                 Options options);

  /// Runs the distributed static phase over management cells: interface
  /// reports climb, partitions descend, cells get assigned — all timed by
  /// the nodes' TX cells. Returns the number of slots the bootstrap took.
  /// Application tasks start releasing packets only after this returns.
  /// Throws InfeasibleError if the gateway rejects the task set.
  AbsoluteSlot bootstrap(AbsoluteSlot timeout_frames = 1000);

  /// Advances network time: every slot first serves management cells
  /// (agents may reconfigure) then data cells under the current schedule.
  /// Each operation below runs to management quiescence within its
  /// timeout (roam_node: both halves together) or throws Error, leaving
  /// the undelivered messages queued for later slots.
  void run_slots(AbsoluteSlot slots);
  void run_frames(AbsoluteSlot frames);

  /// Changes one task's rate at runtime: the data plane's generator
  /// switches immediately; the per-link reservations along the task's
  /// path are re-requested deepest-first, each running to protocol
  /// quiescence (HARP adjustments over management cells). Returns the
  /// summary of the whole exchange.
  MgmtPlane::Summary change_task_rate(TaskId task, std::uint32_t period_slots,
                                      AbsoluteSlot timeout_frames = 200);

  /// Directly changes one link's reservation (Table II-style events) and
  /// runs to quiescence.
  MgmtPlane::Summary change_link_demand(NodeId child, Direction dir,
                                        int cells,
                                        AbsoluteSlot timeout_frames = 200);

  // ------------------------------------------------- topology dynamics
  /// A new leaf device joins under `parent`, reserving the given demands;
  /// when `echo_period_slots` > 0 it also starts an end-to-end echo task.
  /// Runs the join negotiation over the management plane to quiescence.
  struct JoinResult {
    NodeId node{kNoNode};
    MgmtPlane::Summary summary;
  };
  JoinResult join_node(NodeId parent, int up_cells, int down_cells,
                       std::uint32_t echo_period_slots = 0,
                       AbsoluteSlot timeout_frames = 200);

  /// A leaf device leaves: its tasks stop, queued packets are discarded,
  /// its reservation is released at the parent.
  MgmtPlane::Summary leave_node(NodeId leaf,
                                AbsoluteSlot timeout_frames = 200);

  /// A leaf device re-homes under a new relay (interference response):
  /// release at the old parent, rewire, negotiate at the new parent.
  MgmtPlane::Summary roam_node(NodeId leaf, NodeId new_parent,
                               AbsoluteSlot timeout_frames = 200);

  const net::Topology& topology() const { return runtime_.topology(); }
  const LatencyRecorder& metrics() const { return data_.metrics(); }
  DataPlane& data() { return data_; }
  MgmtPlane& mgmt() { return mgmt_; }
  proto::HarpAgent& agent(NodeId id) { return runtime_.agent(id); }
  AbsoluteSlot now() const { return now_; }
  double now_seconds() const {
    return static_cast<double>(now_) * options_.frame.slot_seconds;
  }

  /// The live global schedule: every parent agent's cell assignments.
  const core::Schedule& current_schedule() const {
    return runtime_.current_schedule();
  }

  /// Full schedule installs into the data plane so far (bootstrap
  /// included); also counted by the `harp.sim.schedule_installs` metric.
  std::uint64_t schedule_installs() const { return schedule_installs_; }

 private:
  /// MgmtChannel slot hook: enforces the running operation's timeout,
  /// then runs the data plane (once bootstrapped) up to slot `t`.
  void advance_to(AbsoluteSlot t);
  /// Runs `op` (one or more ProtoRuntime operations) to management
  /// quiescence, throwing Error at the first departure past the timeout.
  template <typename Op>
  void settle(AbsoluteSlot timeout_frames, Op&& op);
  /// At a logged departure: installs the live schedule into the data
  /// plane if its version moved since the last install.
  void refresh_schedule();
  void install_schedule();

  static constexpr AbsoluteSlot kNoDeadline = ~0ull;

  Options options_;
  std::vector<net::Task> tasks_;
  MgmtPlane mgmt_;
  rt::Dispatcher dispatcher_;
  MgmtChannel channel_;
  rt::ProtoRuntime runtime_;
  DataPlane data_;
  /// Slots simulated so far: the data plane has run every slot below it.
  AbsoluteSlot now_{0};
  AbsoluteSlot deadline_{kNoDeadline};
  std::size_t installed_log_size_{0};
  std::uint64_t installed_version_{0};
  std::uint64_t schedule_installs_{0};
  obs::Counter& installs_counter_;
  bool bootstrapped_{false};
};

}  // namespace harp::sim
