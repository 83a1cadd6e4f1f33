// Incremental schedule rebuild equivalence.
//
// request_demand() now re-derives only the dirty parents' links
// (HarpEngine::rebuild_links) instead of regenerating the whole schedule.
// Because assign_cells_rm is deterministic given (partition, requests,
// priorities), the incremental result must be IDENTICAL to a from-scratch
// generate_schedule() over the engine's current state — these tests drive
// randomized adjustment sequences (local absorptions, escalations,
// releases, rejections, joins/leaves/roams) and assert exactly that after
// every step.
#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>
#include <vector>

#include "common/rng.hpp"
#include "harp/engine.hpp"
#include "harp/rm_scheduler.hpp"
#include "net/topology_gen.hpp"
#include "net/traffic.hpp"

namespace harp::core {
namespace {

using FlatSchedule = std::vector<std::tuple<NodeId, int, SlotId, ChannelId>>;

FlatSchedule flatten(const Schedule& s) {
  FlatSchedule out;
  for (NodeId child = 0; child < s.num_nodes(); ++child) {
    for (const Direction dir : {Direction::kUp, Direction::kDown}) {
      for (const Cell c : s.cells(child, dir)) {
        out.emplace_back(child, static_cast<int>(dir), c.slot, c.channel);
      }
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

/// The engine's schedule vs a from-scratch rebuild over its current
/// partitions/traffic/priorities. `tasks` must be the engine's task set
/// (request_demand and topology dynamics never change it).
void expect_matches_scratch(const HarpEngine& engine,
                            const std::vector<net::Task>& tasks) {
  const Schedule scratch =
      generate_schedule(engine.topology(), engine.traffic(),
                        engine.partitions(),
                        link_periods(engine.topology(), tasks),
                        /*distribute_leftover=*/true);
  EXPECT_EQ(flatten(engine.schedule()), flatten(scratch));
}

TEST(IncrementalRebuild, MatchesScratchAfterRandomizedDemandChanges) {
  Rng topo_rng(11);
  const auto topo = net::random_tree(
      {.num_nodes = 60, .num_layers = 5, .max_children = 4}, topo_rng);
  net::SlotframeConfig frame;
  frame.length = 599;
  frame.data_slots = 540;
  const auto tasks = net::uniform_echo_tasks(topo, frame.length);
  HarpEngine engine(topo, tasks, frame);

  Rng rng(123);
  for (int i = 0; i < 300; ++i) {
    const NodeId child =
        1 + static_cast<NodeId>(rng.below(engine.topology().size() - 1));
    const Direction dir =
        rng.chance(0.5) ? Direction::kUp : Direction::kDown;
    // 0..6 cells: mixes releases, no-changes, local fits and escalations
    // (some of which get rejected — those must leave the schedule alone).
    engine.request_demand(child, dir, static_cast<int>(rng.below(7)));
    expect_matches_scratch(engine, tasks);
    if (HasFailure()) {
      ADD_FAILURE() << "diverged after step " << i << " (child " << child
                    << ", dir " << static_cast<int>(dir) << ")";
      return;
    }
  }
  EXPECT_EQ(engine.validate(), "");
}

TEST(IncrementalRebuild, MatchesScratchAcrossTopologyDynamics) {
  const auto topo = net::testbed_tree();
  const auto tasks = net::uniform_echo_tasks(topo, 199);
  HarpEngine engine(topo, tasks, net::SlotframeConfig{});

  Rng rng(7);
  for (int i = 0; i < 40; ++i) {
    const int action = static_cast<int>(rng.below(4));
    if (action == 0) {
      const NodeId parent =
          static_cast<NodeId>(rng.below(engine.topology().size()));
      engine.attach_leaf(parent, static_cast<int>(rng.below(3)),
                         static_cast<int>(rng.below(3)));
    } else if (action == 1 || action == 2) {
      std::vector<NodeId> leaves;
      for (NodeId v = 1; v < engine.topology().size(); ++v) {
        if (engine.topology().is_leaf(v)) leaves.push_back(v);
      }
      const NodeId leaf = leaves[rng.index(leaves.size())];
      if (action == 1) {
        engine.detach_leaf(leaf);
      } else {
        const NodeId new_parent =
            static_cast<NodeId>(rng.below(engine.topology().size()));
        if (new_parent != leaf && !engine.topology().is_leaf(new_parent)) {
          engine.reparent_leaf(leaf, new_parent);
        }
      }
    } else {
      const NodeId child =
          1 + static_cast<NodeId>(rng.below(engine.topology().size() - 1));
      engine.request_demand(
          child, rng.chance(0.5) ? Direction::kUp : Direction::kDown,
          static_cast<int>(rng.below(5)));
    }
    expect_matches_scratch(engine, tasks);
    if (HasFailure()) {
      ADD_FAILURE() << "diverged after step " << i << " (action " << action
                    << ")";
      return;
    }
  }
  EXPECT_EQ(engine.validate(), "");
}

TEST(IncrementalRebuild, RecompactStillRebuildsEverything) {
  const auto topo = net::testbed_tree();
  const auto tasks = net::uniform_echo_tasks(topo, 199);
  HarpEngine engine(topo, tasks, net::SlotframeConfig{});
  engine.request_demand(9, Direction::kUp, 4);
  engine.request_demand(9, Direction::kUp, 1);  // leaves a reservation
  engine.recompact();
  expect_matches_scratch(engine, tasks);
  EXPECT_EQ(engine.validate(), "");
}

}  // namespace
}  // namespace harp::core
