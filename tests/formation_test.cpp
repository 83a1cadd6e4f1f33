// Integration test: incremental network formation. Instead of the
// all-at-once bootstrap, the network grows one device at a time through
// the distributed join path (the way a real 6TiSCH network forms as nodes
// hear beacons) — and the end state must be a valid, fully provisioned
// network equivalent in capacity to the batch bootstrap.
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "harp/engine.hpp"
#include "net/topology_gen.hpp"
#include "net/traffic.hpp"
#include "loopback_agents.hpp"

namespace harp {
namespace {

net::SlotframeConfig frame() {
  net::SlotframeConfig f;
  f.length = 399;  // roomy: incremental joins don't benefit from global
  f.data_slots = 360;  // optimization, so they need more headroom
  return f;
}

TEST(Formation, EngineGrowsFromGatewayToFullTree) {
  // Target shape: the 50-node testbed tree, joined in BFS order with each
  // node requesting 1 cell each way (the uniform echo workload's leaf
  // demand; relays' loads grow as their subtrees fill in).
  const auto target = net::testbed_tree();

  // Start with just the gateway.
  net::TopologyBuilder b;
  const auto seed_topo = b.build();
  core::HarpEngine engine(seed_topo, net::TrafficMatrix(1), frame(), {},
                          {.own_slack = 0});

  // Joining in BFS order guarantees each node's parent exists; the
  // engine assigns dense ids, which we map back to the target's ids.
  std::vector<NodeId> id_map(target.size(), kNoNode);
  id_map[0] = 0;
  for (NodeId v : target.nodes_top_down()) {
    if (v == net::Topology::gateway()) continue;
    const auto r = engine.attach_leaf(id_map[target.parent(v)], 0, 0);
    ASSERT_TRUE(r.satisfied());
    id_map[v] = r.node;
  }
  EXPECT_EQ(engine.topology().size(), target.size());
  EXPECT_EQ(engine.topology().depth(), target.depth());

  // Now every device brings up its end-to-end task: per-link demands
  // accumulate exactly as derive_traffic would compute them.
  const auto tasks = net::uniform_echo_tasks(target, frame().length);
  const auto want = net::derive_traffic(target, tasks, frame());
  for (NodeId v = 1; v < target.size(); ++v) {
    for (NodeId hop : target.path_to_gateway(v)) {
      if (hop == net::Topology::gateway()) continue;
      for (Direction dir : {Direction::kUp, Direction::kDown}) {
        const int cur = engine.traffic().demand(id_map[hop], dir);
        const auto r = engine.request_demand(id_map[hop], dir, cur + 1);
        ASSERT_TRUE(r.satisfied) << "node " << v << " hop " << hop;
      }
    }
    ASSERT_EQ(engine.validate(), "") << "after task of node " << v;
  }
  for (NodeId v = 1; v < target.size(); ++v) {
    EXPECT_EQ(engine.traffic().uplink(id_map[v]), want.uplink(v)) << v;
    EXPECT_EQ(engine.traffic().downlink(id_map[v]), want.downlink(v)) << v;
  }
}

TEST(Formation, AgentsGrowIncrementallyAndStayValid) {
  // Distributed variant on a smaller tree: every join is a real message
  // exchange; the final schedule must satisfy the accumulated demands.
  const auto target = net::fig1_tree();

  net::TopologyBuilder b;
  const auto seed_topo = b.build();
  LoopbackAgents network(seed_topo, net::TrafficMatrix(1), frame(), {},
                         /*own_slack=*/0);
  network.bootstrap();  // trivial: gateway alone

  for (NodeId v : target.nodes_top_down()) {
    if (v == net::Topology::gateway()) continue;
    const auto r = network.join_node(target.parent(v), 1, 1);
    ASSERT_EQ(r.node, v);
  }
  EXPECT_EQ(network.topology().size(), target.size());

  net::TrafficMatrix traffic(target.size());
  for (NodeId v = 1; v < target.size(); ++v) {
    traffic.set_uplink(v, 1);
    traffic.set_downlink(v, 1);
  }
  const auto schedule = network.current_schedule();
  EXPECT_EQ(core::validate_schedule(network.topology(), traffic, schedule,
                                    frame()),
            "");
}

TEST(Formation, RandomJoinOrderAlsoConverges) {
  // Joins happen in random arrival order (parents always before their
  // children, as radio reachability dictates, but siblings shuffled).
  Rng rng(99);
  const auto target = net::fig1_tree();
  auto order = target.nodes_top_down();
  // Shuffle while preserving the parent-before-child constraint: shuffle,
  // then stable-fix by repeatedly moving nodes after their parents.
  for (int pass = 0; pass < 3; ++pass) {
    rng.shuffle(order);
    std::vector<NodeId> fixed;
    std::vector<bool> placed(target.size(), false);
    placed[0] = true;
    bool progress = true;
    while (progress) {
      progress = false;
      for (NodeId v : order) {
        if (v == 0 || placed[v] || !placed[target.parent(v)]) continue;
        fixed.push_back(v);
        placed[v] = true;
        progress = true;
      }
    }
    ASSERT_EQ(fixed.size(), target.size() - 1);

    net::TopologyBuilder b;
    core::HarpEngine engine(b.build(), net::TrafficMatrix(1), frame(), {},
                            {.own_slack = 0});
    std::vector<NodeId> id_map(target.size(), kNoNode);
    id_map[0] = 0;
    for (NodeId v : fixed) {
      const auto r =
          engine.attach_leaf(id_map[target.parent(v)], 1, 1);
      ASSERT_TRUE(r.satisfied()) << "pass " << pass;
      id_map[v] = r.node;
      ASSERT_EQ(engine.validate(), "");
    }
    EXPECT_EQ(engine.topology().size(), target.size());
  }
}

}  // namespace
}  // namespace harp
