// Unit tests for the routing-tree model and topology generators.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "net/topology.hpp"
#include "net/topology_gen.hpp"

namespace harp::net {
namespace {

// gateway -> {1, 2}; 1 -> {3, 4}; 3 -> {5}
Topology small_tree() {
  TopologyBuilder b;
  const NodeId n1 = b.add_node(0);
  b.add_node(0);  // n2
  const NodeId n3 = b.add_node(n1);
  b.add_node(n1);  // n4
  b.add_node(n3);  // n5
  return b.build();
}

TEST(Topology, GatewayProperties) {
  const auto t = small_tree();
  EXPECT_EQ(Topology::gateway(), 0u);
  EXPECT_EQ(t.parent(0), kNoNode);
  EXPECT_EQ(t.node_layer(0), 0);
  EXPECT_EQ(t.size(), 6u);
}

TEST(Topology, ParentChildRelations) {
  const auto t = small_tree();
  EXPECT_EQ(t.parent(1), 0u);
  EXPECT_EQ(t.parent(3), 1u);
  EXPECT_EQ(t.parent(5), 3u);
  EXPECT_EQ(t.children(0), (std::vector<NodeId>{1, 2}));
  EXPECT_EQ(t.children(1), (std::vector<NodeId>{3, 4}));
  EXPECT_TRUE(t.is_leaf(5));
  EXPECT_FALSE(t.is_leaf(1));
}

TEST(Topology, Layers) {
  const auto t = small_tree();
  EXPECT_EQ(t.node_layer(1), 1);
  EXPECT_EQ(t.node_layer(2), 1);
  EXPECT_EQ(t.node_layer(3), 2);
  EXPECT_EQ(t.node_layer(5), 3);
  // Links between node 1 and its children sit at layer 2 = l(V_1).
  EXPECT_EQ(t.link_layer(1), 2);
  EXPECT_EQ(t.link_layer(0), 1);
}

TEST(Topology, SubtreeDepth) {
  const auto t = small_tree();
  EXPECT_EQ(t.depth(), 3);
  EXPECT_EQ(t.subtree_depth(0), 3);  // whole tree
  EXPECT_EQ(t.subtree_depth(1), 3);  // contains link (5,3) at layer 3
  EXPECT_EQ(t.subtree_depth(3), 3);
  // Leaves: by convention subtree depth = own layer (no links inside).
  EXPECT_EQ(t.subtree_depth(2), 1);
  EXPECT_EQ(t.subtree_depth(5), 3);
}

TEST(Topology, SubtreeSizeAndNodes) {
  const auto t = small_tree();
  EXPECT_EQ(t.subtree_size(0), 6u);
  EXPECT_EQ(t.subtree_size(1), 4u);
  EXPECT_EQ(t.subtree_size(3), 2u);
  EXPECT_EQ(t.subtree_size(5), 1u);
  EXPECT_EQ(t.subtree_nodes(1), (std::vector<NodeId>{1, 3, 5, 4}));
}

TEST(Topology, InSubtree) {
  const auto t = small_tree();
  EXPECT_TRUE(t.in_subtree(1, 5));
  EXPECT_TRUE(t.in_subtree(5, 5));
  EXPECT_FALSE(t.in_subtree(2, 5));
  EXPECT_TRUE(t.in_subtree(0, 4));
}

TEST(Topology, Orders) {
  const auto t = small_tree();
  const auto down = t.nodes_top_down();
  ASSERT_EQ(down.size(), t.size());
  EXPECT_EQ(down.front(), 0u);
  // Every parent appears before its children.
  std::vector<std::size_t> pos(t.size());
  for (std::size_t i = 0; i < down.size(); ++i) pos[down[i]] = i;
  for (NodeId v = 1; v < t.size(); ++v) EXPECT_LT(pos[t.parent(v)], pos[v]);

  const auto up = t.nodes_bottom_up();
  EXPECT_EQ(up.back(), 0u);
}

TEST(Topology, PathToGateway) {
  const auto t = small_tree();
  EXPECT_EQ(t.path_to_gateway(5), (std::vector<NodeId>{5, 3, 1, 0}));
  EXPECT_EQ(t.path_to_gateway(0), (std::vector<NodeId>{0}));
}

TEST(Topology, LinkHelpers) {
  const auto t = small_tree();
  EXPECT_EQ(t.uplink(3), (Link{3, 1}));
  EXPECT_EQ(t.downlink(3), (Link{1, 3}));
}

TEST(Topology, NodesAtLayer) {
  const auto t = small_tree();
  EXPECT_EQ(t.nodes_at_layer(0), (std::vector<NodeId>{0}));
  EXPECT_EQ(t.nodes_at_layer(1), (std::vector<NodeId>{1, 2}));
  EXPECT_EQ(t.nodes_at_layer(2), (std::vector<NodeId>{3, 4}));
}

TEST(TopologyBuilder, RejectsUnknownParent) {
  TopologyBuilder b;
  EXPECT_THROW(b.add_node(5), InvalidArgument);
}

TEST(TopologyBuilder, FromParents) {
  // node1->0, node2->0, node3->1
  const auto t = TopologyBuilder::from_parents({0, 0, 1});
  EXPECT_EQ(t.size(), 4u);
  EXPECT_EQ(t.parent(3), 1u);
  EXPECT_EQ(t.depth(), 2);
}

TEST(TopologyGen, Fig1TreeShape) {
  const auto t = fig1_tree();
  EXPECT_EQ(t.size(), 12u);
  EXPECT_EQ(t.depth(), 3);
  EXPECT_EQ(t.children(0).size(), 3u);
}

TEST(TopologyGen, TestbedTreeShape) {
  const auto t = testbed_tree();
  EXPECT_EQ(t.size(), 50u);
  EXPECT_EQ(t.depth(), 5);
  // Deterministic across calls.
  const auto t2 = testbed_tree();
  for (NodeId v = 1; v < t.size(); ++v) EXPECT_EQ(t.parent(v), t2.parent(v));
}

struct GenCase {
  std::size_t nodes;
  int layers;
  std::size_t max_children;
  std::uint64_t seed;
};

// Names the ctest case (gtest would print the raw bytes, padding included).
void PrintTo(const GenCase& c, std::ostream* os) {
  *os << "n" << c.nodes << "_l" << c.layers << "_fan" << c.max_children
      << "_seed" << c.seed;
}

class RandomTreeProperty : public ::testing::TestWithParam<GenCase> {};

TEST_P(RandomTreeProperty, MeetsSpec) {
  const auto& p = GetParam();
  Rng rng(p.seed);
  const auto t = random_tree(
      {.num_nodes = p.nodes, .num_layers = p.layers, .max_children = p.max_children},
      rng);
  EXPECT_EQ(t.size(), p.nodes);
  EXPECT_EQ(t.depth(), p.layers);
  for (NodeId v = 1; v < t.size(); ++v) {
    EXPECT_LE(t.node_layer(v), p.layers);
    EXPECT_GE(t.node_layer(v), 1);
    if (p.max_children != 0) {
      EXPECT_LE(t.children(v).size(), p.max_children);
    }
  }
  // Sum of subtree sizes of gateway children + 1 == total nodes.
  std::size_t total = 1;
  for (NodeId c : t.children(0)) total += t.subtree_size(c);
  EXPECT_EQ(total, p.nodes);
}

INSTANTIATE_TEST_SUITE_P(
    Specs, RandomTreeProperty,
    ::testing::Values(GenCase{50, 5, 0, 1}, GenCase{50, 5, 4, 2},
                      GenCase{81, 10, 0, 3}, GenCase{81, 10, 3, 4},
                      GenCase{6, 5, 0, 5}, GenCase{12, 3, 0, 6},
                      GenCase{200, 8, 5, 7}, GenCase{2, 1, 0, 8}));

TEST(TopologyGen, RandomTreeDeterministicPerSeed) {
  Rng a(99), b(99);
  const auto t1 = random_tree({.num_nodes = 40, .num_layers = 4}, a);
  const auto t2 = random_tree({.num_nodes = 40, .num_layers = 4}, b);
  for (NodeId v = 1; v < t1.size(); ++v) EXPECT_EQ(t1.parent(v), t2.parent(v));
}

TEST(TopologyGen, RejectsImpossibleSpecs) {
  Rng rng(1);
  EXPECT_THROW(random_tree({.num_nodes = 3, .num_layers = 5}, rng),
               InvalidArgument);
  EXPECT_THROW(random_tree({.num_nodes = 5, .num_layers = 0}, rng),
               InvalidArgument);
  // Chain of 3 layers with fanout cap 1 cannot absorb extra nodes.
  EXPECT_THROW(
      random_tree({.num_nodes = 50, .num_layers = 3, .max_children = 1}, rng),
      InvalidArgument);
}

}  // namespace
}  // namespace harp::net
