// Tests for topology dynamics at the protocol level: agents negotiating
// join/leave/roam via real messages (rt::ProtoRuntime over a loopback),
// the engine oracle cross-check, and the full simulation with
// management-plane timing.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "harp/engine.hpp"
#include "net/topology_gen.hpp"
#include "net/traffic.hpp"
#include "loopback_agents.hpp"
#include "rt/channel.hpp"
#include "rt/dispatcher.hpp"
#include "rt/runtime.hpp"
#include "sim/harp_sim.hpp"

namespace harp {
namespace {

net::SlotframeConfig frame() {
  net::SlotframeConfig f;
  f.data_slots = 190;
  return f;
}

struct Net {
  net::Topology topo;
  net::TrafficMatrix traffic;
  std::vector<net::Task> tasks;
};

Net echo_net(net::Topology topo) {
  auto tasks = net::uniform_echo_tasks(topo, frame().length);
  auto traffic = net::derive_traffic(topo, tasks, frame());
  return {std::move(topo), std::move(traffic), std::move(tasks)};
}

/// Validates the agents' distributed state via the core oracles.
std::string validate_agents(const rt::ProtoRuntime& network,
                            const net::TrafficMatrix& traffic) {
  const auto schedule = network.current_schedule();
  return core::validate_schedule(network.topology(), traffic, schedule,
                                 frame());
}

// -------------------------------------------------------- agent network

TEST(AgentDynamics, JoinNegotiatesReservation) {
  const Net n = echo_net(net::fig1_tree());
  LoopbackAgents network(n.topo, n.traffic, frame(), n.tasks, 1);
  network.bootstrap();

  const auto r = network.join_node(7, 2, 1);
  EXPECT_EQ(r.node, n.topo.size());
  EXPECT_EQ(network.agent(7).child_demand(r.node, Direction::kUp), 2);
  const auto sched = network.current_schedule();
  EXPECT_GE(sched.cells(r.node, Direction::kUp).size(), 2u);
  EXPECT_GE(sched.cells(r.node, Direction::kDown).size(), 1u);

  net::TrafficMatrix traffic = n.traffic;
  traffic.resize(network.topology().size());
  traffic.set_uplink(r.node, 2);
  traffic.set_downlink(r.node, 1);
  EXPECT_EQ(validate_agents(network, traffic), "");
}

TEST(AgentDynamics, JoinUnderFormerLeafCreatesNewLayer) {
  const Net n = echo_net(net::fig1_tree());
  LoopbackAgents network(n.topo, n.traffic, frame(), n.tasks, 1);
  network.bootstrap();

  // Node 9 is a layer-3 leaf; attaching under it creates layer 4.
  const auto r = network.join_node(9, 1, 1);
  EXPECT_EQ(network.topology().depth(), 4);
  const auto parts = network.current_partitions();
  EXPECT_FALSE(parts.get(Direction::kUp, 0, 4).empty());
  EXPECT_FALSE(
      parts.get(Direction::kUp, 9, network.topology().link_layer(9)).empty());
  EXPECT_GT(r.stats.harp_overhead(), 0u);
}

TEST(AgentDynamics, LeaveReleasesCellsLocally) {
  const Net n = echo_net(net::fig1_tree());
  LoopbackAgents network(n.topo, n.traffic, frame(), n.tasks, 1);
  network.bootstrap();

  const auto stats = network.leave_node(9);
  EXPECT_EQ(stats.harp_overhead(), 0u);  // release is local
  EXPECT_TRUE(network.current_schedule().cells(9, Direction::kUp).empty());
}

TEST(AgentDynamics, RoamMovesReservation) {
  const Net n = echo_net(net::fig1_tree());
  LoopbackAgents network(n.topo, n.traffic, frame(), n.tasks, 1);
  network.bootstrap();

  network.roam_node(9, 1);
  EXPECT_EQ(network.topology().parent(9), 1u);
  const auto sched = network.current_schedule();
  EXPECT_GE(sched.cells(9, Direction::kUp).size(), 1u);

  net::TrafficMatrix traffic = n.traffic;
  EXPECT_EQ(validate_agents(network, traffic), "");
}

TEST(AgentDynamics, RoamRejectsCycles) {
  const Net n = echo_net(net::fig1_tree());
  LoopbackAgents network(n.topo, n.traffic, frame(), n.tasks, 1);
  network.bootstrap();
  EXPECT_THROW(network.roam_node(9, 9), Error);
}

TEST(AgentDynamics, MatchesEngineThroughMixedDynamics) {
  // The distributed implementation and the centralized oracle must agree
  // on partitions and schedules through a join + roam + leave sequence
  // interleaved with demand changes.
  const Net n = echo_net(net::testbed_tree());
  LoopbackAgents network(n.topo, n.traffic, frame(), n.tasks, 1);
  network.bootstrap();
  core::HarpEngine engine(n.topo, n.traffic, frame(), n.tasks,
                          {.own_slack = 1});

  const auto compare = [&](const char* when) {
    const auto agent_parts = network.current_partitions();
    for (Direction dir : {Direction::kUp, Direction::kDown}) {
      for (const auto& row : engine.partitions().rows(dir)) {
        ASSERT_EQ(agent_parts.get(dir, row.node, row.layer), row.part)
            << when << " node " << row.node << " layer " << row.layer;
      }
    }
    const auto agent_sched = network.current_schedule();
    for (NodeId v = 1; v < engine.topology().size(); ++v) {
      for (Direction dir : {Direction::kUp, Direction::kDown}) {
        ASSERT_EQ(agent_sched.cells(v, dir), engine.schedule().cells(v, dir))
            << when << " link " << v;
      }
    }
  };

  const auto jr = network.join_node(15, 2, 2);
  const auto er = engine.attach_leaf(15, 2, 2);
  ASSERT_TRUE(er.satisfied());
  ASSERT_EQ(jr.node, er.node);
  compare("after join");

  network.change_demand(jr.node, Direction::kUp, 4);
  engine.request_demand(jr.node, Direction::kUp, 4);
  compare("after growth");

  network.roam_node(jr.node, 16);
  engine.reparent_leaf(jr.node, 16);
  compare("after roam");

  network.leave_node(jr.node);
  engine.detach_leaf(jr.node);
  compare("after leave");
}

TEST(AgentDynamics, FuzzedMixedDynamicsMatchEngine) {
  Rng rng(555);
  net::SlotframeConfig f;
  f.length = 399;
  f.data_slots = 360;
  Rng topo_rng(77);
  const auto topo =
      net::random_tree({.num_nodes = 20, .num_layers = 3}, topo_rng);
  const auto tasks = net::uniform_echo_tasks(topo, f.length);
  const auto traffic = net::derive_traffic(topo, tasks, f);

  LoopbackAgents network(topo, traffic, f, tasks, 1);
  network.bootstrap();
  core::HarpEngine engine(topo, traffic, f, tasks, {.own_slack = 1});

  for (int step = 0; step < 30; ++step) {
    const auto& t = engine.topology();
    const auto op = rng.below(4);
    if (op == 0) {
      const NodeId child =
          static_cast<NodeId>(rng.between(1, static_cast<int>(t.size()) - 1));
      const Direction dir =
          rng.chance(0.5) ? Direction::kUp : Direction::kDown;
      const int cells = static_cast<int>(rng.between(0, 4));
      network.change_demand(child, dir, cells);
      engine.request_demand(child, dir, cells);
    } else if (op == 1 && t.size() < 30) {
      const NodeId parent = static_cast<NodeId>(rng.below(t.size()));
      const int up = static_cast<int>(rng.between(0, 2));
      const int down = static_cast<int>(rng.between(0, 2));
      const auto er = engine.attach_leaf(parent, up, down);
      const auto jr = network.join_node(parent, up, down);
      ASSERT_EQ(jr.node, er.node);
      if (!er.satisfied()) {
        // Engine zeroes the zombie; mirror on the agent side.
        network.change_demand(jr.node, Direction::kUp, 0);
        network.change_demand(jr.node, Direction::kDown, 0);
      }
    } else if (op == 2) {
      // Device departure = demand release on both sides. (The engine's
      // detach keeps a zombie child for id stability, while the agent's
      // leave_node truly removes the link; zero-demand release is the
      // semantics both share — true removal is tested deterministically.)
      std::vector<NodeId> leaves;
      for (NodeId v = 1; v < t.size(); ++v) {
        if (t.is_leaf(v)) leaves.push_back(v);
      }
      if (leaves.empty()) continue;
      const NodeId leaf = leaves[rng.index(leaves.size())];
      engine.detach_leaf(leaf);
      network.change_demand(leaf, Direction::kUp, 0);
      network.change_demand(leaf, Direction::kDown, 0);
    } else {
      std::vector<NodeId> leaves;
      for (NodeId v = 1; v < t.size(); ++v) {
        if (t.is_leaf(v)) leaves.push_back(v);
      }
      if (leaves.empty()) continue;
      const NodeId leaf = leaves[rng.index(leaves.size())];
      const NodeId target = static_cast<NodeId>(rng.below(t.size()));
      if (target == leaf || t.parent(leaf) == target) continue;
      const auto er = engine.reparent_leaf(leaf, target);
      if (er.satisfied()) {
        network.roam_node(leaf, target);
      }
      // If the engine rolled back we skip the agent move entirely: the
      // distributed roll-back (move back to the old relay) is exercised
      // by the deterministic test above.
    }

    ASSERT_EQ(engine.validate(), "") << "step " << step;
    const auto agent_parts = network.current_partitions();
    for (Direction dir : {Direction::kUp, Direction::kDown}) {
      for (const auto& row : engine.partitions().rows(dir)) {
        ASSERT_EQ(agent_parts.get(dir, row.node, row.layer), row.part)
            << "step " << step << " node " << row.node << " layer "
            << row.layer;
      }
    }
  }
}

/// The agents share the runtime's tables, each writing only its own
/// partition rows and its current children's cell rows. Checks that every
/// non-empty cell row is a link of a current child and lies inside its
/// topology parent's own-layer partition, and that departed nodes keep no
/// row of either table.
void expect_rows_owned(const rt::ProtoRuntime& network,
                       const std::vector<NodeId>& departed,
                       const std::string& when) {
  const net::Topology& topo = network.topology();
  const core::Schedule& sched = network.current_schedule();
  const core::PartitionTable& parts = network.current_partitions();
  ASSERT_EQ(sched.num_nodes(), topo.size()) << when;
  ASSERT_EQ(parts.num_nodes(), topo.size()) << when;
  for (Direction dir : {Direction::kUp, Direction::kDown}) {
    EXPECT_TRUE(sched.cells(net::Topology::gateway(), dir).empty()) << when;
    for (NodeId v = 1; v < topo.size(); ++v) {
      const std::vector<Cell>& cells = sched.cells(v, dir);
      if (std::find(departed.begin(), departed.end(), v) != departed.end()) {
        EXPECT_TRUE(cells.empty()) << when << ": departed " << v;
        EXPECT_TRUE(parts.of(dir, v).empty()) << when << ": departed " << v;
        continue;
      }
      if (cells.empty()) continue;
      const NodeId parent = topo.parent(v);
      EXPECT_NO_THROW(network.agent(parent).child_demand(v, dir))
          << when << ": " << v << " holds cells but is no child of "
          << parent;
      const core::Partition own =
          parts.get(dir, parent, topo.link_layer(parent));
      for (const Cell& c : cells) {
        EXPECT_TRUE(own.contains(c))
            << when << ": cell of link " << v << " outside " << parent
            << "'s partition";
      }
    }
  }
}

TEST(AgentDynamics, SharedTableRowsStayWithTheirOwnersThroughChurn) {
  const Net n = echo_net(net::testbed_tree());
  LoopbackAgents network(n.topo, n.traffic, frame(), n.tasks, 1);
  network.bootstrap();
  std::vector<NodeId> departed;
  expect_rows_owned(network, departed, "bootstrap");

  Rng rng(2024);
  const auto churn = [&](const std::string& phase) {
    for (int i = 0; i < 8; ++i) {
      NodeId child = kNoNode;
      while (child == kNoNode ||
             std::find(departed.begin(), departed.end(), child) !=
                 departed.end()) {
        child = 1 + static_cast<NodeId>(
                        rng.below(network.topology().size() - 1));
      }
      const Direction dir =
          rng.chance(0.5) ? Direction::kUp : Direction::kDown;
      network.change_demand(child, dir, static_cast<int>(rng.between(0, 3)));
      expect_rows_owned(network, departed,
                        phase + " churn " + std::to_string(i));
    }
  };

  // A joined device that itself becomes a parent holds partitions of its
  // own; after its child leaves it keeps that reservation (Sec. V) until
  // it roams, when rehome must drop every one of its rows.
  const NodeId relay = network.join_node(15, 1, 1).node;
  expect_rows_owned(network, departed, "join relay");
  const NodeId leaf = network.join_node(relay, 1, 1).node;
  expect_rows_owned(network, departed, "join leaf");
  EXPECT_FALSE(network.current_partitions().of(Direction::kUp, relay).empty());
  churn("joined");

  network.leave_node(leaf);
  departed.push_back(leaf);
  expect_rows_owned(network, departed, "leave leaf");
  EXPECT_FALSE(network.current_partitions().of(Direction::kUp, relay).empty());

  network.change_demand(relay, Direction::kUp, 2);
  network.roam_node(relay, 16);
  expect_rows_owned(network, departed, "roam relay");
  for (Direction dir : {Direction::kUp, Direction::kDown}) {
    EXPECT_TRUE(network.current_partitions().of(dir, relay).empty());
  }
  EXPECT_FALSE(
      network.current_schedule().cells(relay, Direction::kUp).empty());
  churn("roamed");

  network.leave_node(relay);
  departed.push_back(relay);
  expect_rows_owned(network, departed, "leave relay");
  churn("left");
}

// ------------------------------------------------------------ simulation

TEST(SimDynamics, UnknownNodeIdsLeaveTheSimulationUntouched) {
  const auto topo = net::testbed_tree();
  sim::HarpSimulation sim(topo, net::uniform_echo_tasks(topo, 398),
                          {frame()});
  sim.bootstrap();
  sim.run_frames(2);
  const core::Schedule before = sim.current_schedule();
  const std::size_t log = sim.mgmt().log().size();
  const AbsoluteSlot now = sim.now();
  EXPECT_THROW(sim.change_link_demand(9999, Direction::kUp, 3),
               InvalidArgument);
  EXPECT_THROW(sim.join_node(9999, 1, 1), InvalidArgument);
  EXPECT_THROW(sim.leave_node(9999), InvalidArgument);
  EXPECT_THROW(sim.roam_node(49, 9999), InvalidArgument);
  EXPECT_EQ(sim.current_schedule(), before);
  EXPECT_EQ(sim.mgmt().log().size(), log);
  EXPECT_EQ(sim.now(), now);
  EXPECT_EQ(sim.topology().size(), topo.size());
}

TEST(SimDynamics, JoinStartsTraffic) {
  const auto topo = net::testbed_tree();
  const auto tasks = net::uniform_echo_tasks(topo, 398);  // light load
  sim::HarpSimulation::Options opts{frame()};
  opts.own_slack = 1;
  sim::HarpSimulation sim(topo, tasks, opts);
  sim.bootstrap();
  sim.run_frames(5);

  const auto r = sim.join_node(15, 1, 1, /*echo_period_slots=*/199);
  EXPECT_GE(r.summary.all_messages, 1u);
  sim.run_frames(20);
  EXPECT_GT(sim.metrics().node_latency(r.node).count(), 10u);
  EXPECT_LE(sim.metrics().node_latency(r.node).mean(),
            3 * frame().frame_seconds());
}

TEST(SimDynamics, LeaveStopsTrafficAndDiscardsBacklog) {
  const auto topo = net::testbed_tree();
  const auto tasks = net::uniform_echo_tasks(topo, 398);
  sim::HarpSimulation::Options opts{frame()};
  opts.own_slack = 1;
  sim::HarpSimulation sim(topo, tasks, opts);
  sim.bootstrap();
  sim.run_frames(5);
  sim.leave_node(49);
  const auto delivered = sim.metrics().node_latency(49).count();
  sim.run_frames(10);
  EXPECT_EQ(sim.metrics().node_latency(49).count(), delivered);
  EXPECT_EQ(sim.data().backlog_of_task(49), 0u);
}

TEST(SimDynamics, RoamKeepsServiceRunning) {
  const auto topo = net::testbed_tree();
  const auto tasks = net::uniform_echo_tasks(topo, 398);
  sim::HarpSimulation::Options opts{frame()};
  opts.own_slack = 1;
  sim::HarpSimulation sim(topo, tasks, opts);
  sim.bootstrap();
  sim.run_frames(5);

  const auto s = sim.roam_node(49, 16);
  EXPECT_EQ(sim.topology().parent(49), 16u);
  sim.data().metrics().clear();
  sim.run_frames(30);
  // The roamed node's echo task keeps flowing from the new location.
  EXPECT_GT(sim.metrics().node_latency(49).count(), 10u);
  EXPECT_LE(sim.metrics().node_latency(49).mean(),
            3 * frame().frame_seconds());
  (void)s;
}

// --------------------------------------------- event-driven rt runtime

TEST(RtDynamics, LossyTopologyDynamicsConvergeToTheLockstepState) {
  const Net n = echo_net(net::fig1_tree());

  // Loss-free reference: the in-order agents running the same mixed
  // join / demand-change / roam / leave sequence.
  LoopbackAgents reference(n.topo, n.traffic, frame(), n.tasks, 1);
  reference.bootstrap();
  const auto joined = reference.join_node(7, 2, 1);
  reference.change_demand(joined.node, Direction::kUp, 3);
  reference.roam_node(joined.node, 2);
  const auto joined2 = reference.join_node(4, 1, 1);
  reference.leave_node(joined.node);
  const std::uint64_t want = reference.fingerprint();
  EXPECT_EQ(want, 0x8355e42c7ece8e77ULL);

  for (const std::uint64_t seed : {11u, 12u, 13u}) {
    rt::Dispatcher d(seed);
    rt::LossyChannel::Options lossy;
    lossy.drop_rate = 0.15;
    lossy.duplicate_rate = 0.05;
    lossy.delay_min = 1;
    lossy.delay_max = 6;
    lossy.seed = derive_seed(seed, 7);
    rt::LossyChannel ch(d, lossy);
    rt::ProtoRuntime runtime(n.topo, n.traffic, frame(), d, ch, n.tasks, 1);
    runtime.bootstrap();
    const NodeId node = runtime.join_node(7, 2, 1).node;
    ASSERT_EQ(node, joined.node);
    runtime.change_demand(node, Direction::kUp, 3);
    runtime.roam_node(node, 2);
    ASSERT_EQ(runtime.join_node(4, 1, 1).node, joined2.node);
    runtime.leave_node(node);

    EXPECT_EQ(runtime.fingerprint(), want) << "seed " << seed;
    EXPECT_TRUE(runtime.quiescent());
    EXPECT_EQ(runtime.total_give_ups(), 0u);

    // The converged distributed state stays valid against the oracle.
    net::TrafficMatrix traffic = n.traffic;
    traffic.resize(runtime.topology().size());
    traffic.set_uplink(joined2.node, 1);
    traffic.set_downlink(joined2.node, 1);
    EXPECT_EQ(core::validate_schedule(runtime.topology(), traffic,
                                      runtime.current_schedule(), frame()),
              "");
  }
}

}  // namespace
}  // namespace harp
