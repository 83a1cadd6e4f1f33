#include "sim/harp_sim.hpp"

#include <algorithm>

#include "audit/audit.hpp"
#include "common/error.hpp"
#include "net/traffic.hpp"
#include "obs/obs.hpp"

namespace harp::sim {

HarpSimulation::HarpSimulation(const net::Topology& topo,
                               std::vector<net::Task> tasks, Options options)
    : options_(options),
      tasks_(std::move(tasks)),
      mgmt_(options.frame),
      channel_(dispatcher_, mgmt_, [this](AbsoluteSlot t) { advance_to(t); }),
      // The mgmt plane is loss-free and in order: raw packets, no ARQ.
      runtime_(topo, net::derive_traffic(topo, tasks_, options.frame),
               options.frame, dispatcher_, channel_, tasks_,
               options.own_slack, rt::RuntimeOptions{.arq = {.enabled = false}}),
      data_(runtime_.topology(), tasks_,
            SimConfig{options.frame, options.pdr, options.queue_capacity},
            options.seed),
      installs_counter_(obs::MetricsRegistry::global().counter(
          "harp.sim.schedule_installs")) {}

void HarpSimulation::refresh_schedule() {
  // Install points are the logged departures (the pinned digests depend
  // on that timing); at one, reinstall only if some agent rewrote cells
  // since the last install.
  if (mgmt_.log().size() == installed_log_size_) return;
  installed_log_size_ = mgmt_.log().size();
  data_.resize_for_topology();  // a join may have grown the topology
  if (current_schedule().version() != installed_version_) install_schedule();
}

void HarpSimulation::install_schedule() {
  data_.set_schedule(current_schedule());
  installed_version_ = current_schedule().version();
  ++schedule_installs_;
  installs_counter_.inc();
}

void HarpSimulation::advance_to(AbsoluteSlot t) {
  if (mgmt_.busy() && t >= deadline_) {
    throw Error("management plane did not quiesce within the timeout");
  }
  if (t <= now_) return;
  if (bootstrapped_) {
    refresh_schedule();
    data_.run_slots(t - now_);
  }
  now_ = t;
}

template <typename Op>
void HarpSimulation::settle(AbsoluteSlot timeout_frames, Op&& op) {
  deadline_ = now_ + timeout_frames * options_.frame.length;
  try {
    op();
  } catch (...) {
    deadline_ = kNoDeadline;
    throw;
  }
  deadline_ = kNoDeadline;
  // Once the management plane quiesces, the union of every agent's cell
  // assignments must be a legal TSCH schedule (collision-free, half-duplex,
  // inside the slotframe). Sufficiency is audited with a zero-demand
  // traffic matrix: mid-transient demand bookkeeping lives in the agents,
  // not here.
  HARP_AUDIT("sim.mgmt_schedule",
             audit::check_schedule(topology(),
                                   net::TrafficMatrix(topology().size()),
                                   current_schedule(), options_.frame));
}

AbsoluteSlot HarpSimulation::bootstrap(AbsoluteSlot timeout_frames) {
  HARP_OBS_SCOPE("harp.sim.bootstrap_ns");
  HARP_ASSERT(!bootstrapped_);
  const AbsoluteSlot start = now_;
  settle(timeout_frames, [&] { runtime_.bootstrap(); });
  install_schedule();
  installed_log_size_ = mgmt_.log().size();
  bootstrapped_ = true;
  return now_ - start;
}

void HarpSimulation::run_slots(AbsoluteSlot slots) {
  HARP_ASSERT(bootstrapped_);
  if (slots == 0) return;
  const AbsoluteSlot target = now_ + slots;
  // Any management departures before the target (left queued by a timed
  // out operation) run the data plane up to themselves first.
  dispatcher_.run_until(target - 1);
  advance_to(target);
}

void HarpSimulation::run_frames(AbsoluteSlot frames) {
  run_slots(frames * options_.frame.length);
}

MgmtPlane::Summary HarpSimulation::change_link_demand(
    NodeId child, Direction dir, int cells, AbsoluteSlot timeout_frames) {
  HARP_ASSERT(bootstrapped_);
  runtime_.require_node("change_link_demand", child, true);
  rt::ProtoRuntime::require_demand("change_link_demand", cells);
  mgmt_.clear_log();
  settle(timeout_frames, [&] { runtime_.change_demand(child, dir, cells); });
  return mgmt_.summarize(topology());
}

HarpSimulation::JoinResult HarpSimulation::join_node(
    NodeId parent, int up_cells, int down_cells,
    std::uint32_t echo_period_slots, AbsoluteSlot timeout_frames) {
  HARP_ASSERT(bootstrapped_);
  runtime_.require_node("join_node", parent, false);
  rt::ProtoRuntime::require_demand("join_node", up_cells);
  rt::ProtoRuntime::require_demand("join_node", down_cells);
  const std::uint32_t rm_period =
      echo_period_slots > 0 ? echo_period_slots : ~0u;
  mgmt_.clear_log();
  NodeId node = kNoNode;
  settle(timeout_frames, [&] {
    node = runtime_.join_node(parent, up_cells, down_cells, rm_period).node;
  });

  if (echo_period_slots > 0) {
    net::Task task{node, node, echo_period_slots, 0, true};
    tasks_.push_back(task);
    data_.add_task(task);
  }
  return {node, mgmt_.summarize(topology())};
}

MgmtPlane::Summary HarpSimulation::leave_node(NodeId leaf,
                                              AbsoluteSlot timeout_frames) {
  HARP_ASSERT(bootstrapped_);
  runtime_.require_node("leave_node", leaf, true);
  std::erase_if(tasks_,
                [&](const net::Task& t) { return t.source == leaf; });
  data_.remove_tasks_from(leaf);
  mgmt_.clear_log();
  settle(timeout_frames, [&] { runtime_.leave_node(leaf); });
  return mgmt_.summarize(topology());
}

MgmtPlane::Summary HarpSimulation::roam_node(NodeId leaf, NodeId new_parent,
                                             AbsoluteSlot timeout_frames) {
  HARP_ASSERT(bootstrapped_);
  runtime_.require_node("roam_node", leaf, true);
  runtime_.require_node("roam_node", new_parent, false);
  mgmt_.clear_log();
  settle(timeout_frames, [&] { runtime_.roam_node(leaf, new_parent); });
  return mgmt_.summarize(topology());
}

MgmtPlane::Summary HarpSimulation::change_task_rate(
    TaskId task, std::uint32_t period_slots, AbsoluteSlot timeout_frames) {
  HARP_ASSERT(bootstrapped_);
  auto it = std::find_if(tasks_.begin(), tasks_.end(),
                         [&](const net::Task& t) { return t.id == task; });
  if (it == tasks_.end()) throw InvalidArgument("unknown task");
  it->period_slots = period_slots;
  data_.set_task_period(task, period_slots);

  // New per-link reservations along the task's path.
  const net::Topology& topo = topology();
  const auto traffic = net::derive_traffic(topo, tasks_, options_.frame);
  mgmt_.clear_log();

  // Deepest link first: grow the leaf edge before the links that must
  // also carry the forwarded load.
  for (NodeId v : topo.path_to_gateway(it->source)) {
    if (v == net::Topology::gateway()) continue;
    const NodeId parent = topo.parent(v);
    for (Direction dir : {Direction::kUp, Direction::kDown}) {
      const int want = traffic.demand(v, dir);
      if (agent(parent).child_demand(v, dir) == want) continue;
      settle(timeout_frames, [&] { runtime_.change_demand(v, dir, want); });
    }
  }
  return mgmt_.summarize(topo);
}

}  // namespace harp::sim
