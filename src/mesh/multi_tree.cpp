#include "mesh/multi_tree.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "net/traffic.hpp"

namespace harp::mesh {
namespace {

net::SlotframeConfig region_frame(const net::SlotframeConfig& frame,
                                  SlotId data_slots) {
  net::SlotframeConfig out = frame;
  out.data_slots = data_slots;
  return out;
}

SlotId compute_split(const MultiTreeHarp::Options& options) {
  options.frame.validate();
  if (options.secondary_share <= 0.0 || options.secondary_share >= 1.0) {
    throw InvalidArgument("secondary_share must be in (0,1)");
  }
  const auto secondary = static_cast<SlotId>(
      static_cast<double>(options.frame.data_slots) *
      options.secondary_share);
  if (secondary == 0 || secondary >= options.frame.data_slots) {
    throw InvalidArgument("data sub-frame too small to split");
  }
  return options.frame.data_slots - secondary;
}

}  // namespace

const char* to_string(Tree t) {
  return t == Tree::kPrimary ? "primary" : "secondary";
}

MultiTreeHarp::MultiTreeHarp(const MeshGraph& mesh,
                             std::vector<net::Task> tasks, Options options)
    : MultiTreeHarp(decompose(mesh), std::move(tasks), options) {}

MultiTreeHarp::MultiTreeHarp(Decomposition d, std::vector<net::Task> tasks,
                             Options options)
    : options_(options),
      diversity_(d.uplink_diversity),
      tasks_(std::move(tasks)),
      assignment_(d.primary.size(), Tree::kPrimary),
      split_(compute_split(options)),
      primary_(d.primary,
               net::derive_traffic(d.primary, tasks_,
                                   region_frame(options.frame, split_)),
               region_frame(options.frame, split_), tasks_,
               {.own_slack = options.own_slack}),
      secondary_(d.secondary,
                 [&] {
                   net::TrafficMatrix standby(d.secondary.size());
                   for (NodeId v = 1; v < d.secondary.size(); ++v) {
                     standby.set_uplink(v, options.standby_demand);
                     standby.set_downlink(v, options.standby_demand);
                   }
                   return standby;
                 }(),
                 region_frame(options.frame,
                              options.frame.data_slots - split_),
                 tasks_, {.own_slack = options.own_slack}) {
  if (options.standby_demand < 0) {
    throw InvalidArgument("standby_demand must be >= 0");
  }
}

Tree MultiTreeHarp::assignment(NodeId node) const {
  HARP_ASSERT(node < assignment_.size());
  return assignment_[node];
}

std::pair<SlotId, SlotId> MultiTreeHarp::region(Tree t) const {
  return t == Tree::kPrimary
             ? std::pair<SlotId, SlotId>{0, split_}
             : std::pair<SlotId, SlotId>{split_, options_.frame.data_slots};
}

core::Schedule MultiTreeHarp::global_schedule(Tree t) const {
  core::Schedule out = engine(t).schedule();
  if (t == Tree::kSecondary) {
    core::Schedule shifted(out.num_nodes());
    for (NodeId child = 1; child < out.num_nodes(); ++child) {
      for (Direction dir : {Direction::kUp, Direction::kDown}) {
        std::vector<Cell> cells = out.cells(child, dir);
        for (Cell& c : cells) c.slot += split_;
        shifted.set_cells(child, dir, std::move(cells));
      }
    }
    return shifted;
  }
  return out;
}

net::TrafficMatrix MultiTreeHarp::desired_traffic(Tree t) const {
  std::vector<net::Task> subset;
  for (const net::Task& task : tasks_) {
    if (assignment_[task.source] == t) subset.push_back(task);
  }
  const auto [begin, end] = region(t);
  net::TrafficMatrix m = net::derive_traffic(
      topology(t), subset, region_frame(options_.frame, end - begin));
  if (t == Tree::kSecondary && options_.standby_demand > 0) {
    // Keep the hot-standby floor on every link.
    for (NodeId v = 1; v < m.num_nodes(); ++v) {
      for (Direction dir : {Direction::kUp, Direction::kDown}) {
        m.set_demand(v, dir,
                     std::max(m.demand(v, dir), options_.standby_demand));
      }
    }
  }
  return m;
}

bool MultiTreeHarp::apply_diff(Tree t, const net::TrafficMatrix& desired,
                               std::vector<Applied>& undo_log,
                               std::size_t& messages, std::size_t& links) {
  core::HarpEngine& eng = engine_mut(t);
  for (NodeId v : eng.topology().nodes_bottom_up()) {
    if (v == net::Topology::gateway()) continue;
    for (Direction dir : {Direction::kUp, Direction::kDown}) {
      const int want = desired.demand(v, dir);
      const int cur = eng.traffic().demand(v, dir);
      if (want == cur) continue;
      const auto r = eng.request_demand(v, dir, want);
      if (!r.satisfied) return false;
      undo_log.push_back({t, v, dir, cur});
      messages += r.messages.size();
      ++links;
    }
  }
  return true;
}

void MultiTreeHarp::rollback(const std::vector<Applied>& undo_log) {
  for (auto it = undo_log.rbegin(); it != undo_log.rend(); ++it) {
    const auto r =
        engine_mut(it->tree).request_demand(it->child, it->dir, it->old_cells);
    // Undo of an increase is a release; undo of a release re-fills the
    // kept reservation. Both are guaranteed to succeed.
    HARP_ASSERT(r.satisfied);
  }
}

MultiTreeHarp::FailoverReport MultiTreeHarp::failover(NodeId node) {
  if (node == net::Topology::gateway() || node >= assignment_.size()) {
    throw InvalidArgument("cannot fail over this node");
  }
  FailoverReport report;
  const Tree from = assignment_[node];
  const Tree to = from == Tree::kPrimary ? Tree::kSecondary : Tree::kPrimary;
  assignment_[node] = to;

  std::vector<Applied> undo_log;
  // Releases on the old hierarchy first (they free nothing the new
  // hierarchy needs — the regions are disjoint — but keeping this order
  // mirrors a deployment, where traffic stops before it restarts).
  if (!apply_diff(from, desired_traffic(from), undo_log, report.messages,
                  report.links_touched) ||
      !apply_diff(to, desired_traffic(to), undo_log, report.messages,
                  report.links_touched)) {
    rollback(undo_log);
    assignment_[node] = from;
    return report;
  }
  report.satisfied = true;
  return report;
}

std::string MultiTreeHarp::validate() const {
  for (Tree t : {Tree::kPrimary, Tree::kSecondary}) {
    if (auto err = engine(t).validate(); !err.empty()) {
      return std::string(to_string(t)) + ": " + err;
    }
    const auto [begin, end] = region(t);
    const core::Schedule schedule = global_schedule(t);
    for (NodeId child = 0; child < schedule.num_nodes(); ++child) {
      for (const Direction dir : {Direction::kUp, Direction::kDown}) {
        for (const Cell c : schedule.cells(child, dir)) {
          if (c.slot < begin || c.slot >= end) {
            return std::string(to_string(t)) + " cell " + to_string(c) +
                   " escapes region";
          }
        }
      }
    }
  }
  return {};
}

}  // namespace harp::mesh
