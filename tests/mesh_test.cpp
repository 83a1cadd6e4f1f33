// Tests for the non-tree extension: mesh model, tree decomposition, and
// multi-tree HARP with runtime failover.
#include <gtest/gtest.h>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "mesh/decompose.hpp"
#include "mesh/mesh.hpp"
#include "mesh/multi_tree.hpp"
#include "net/traffic.hpp"

namespace harp::mesh {
namespace {

net::SlotframeConfig frame() {
  net::SlotframeConfig f;
  f.length = 199;
  f.data_slots = 180;
  return f;
}

/// Diamond mesh: gateway 0 hears 1 and 2; 1-2 linked; node 3 hears both
/// 1 and 2 — the canonical two-disjoint-paths shape.
MeshGraph diamond() {
  MeshGraph m(4);
  m.add_link(0, 1, 1.0);
  m.add_link(0, 2, 0.9);
  m.add_link(1, 2, 0.8);
  m.add_link(3, 1, 1.0);
  m.add_link(3, 2, 0.9);
  return m;
}

// ------------------------------------------------------------------ mesh

TEST(Mesh, LinksAreSymmetric) {
  MeshGraph m(3);
  m.add_link(0, 1, 0.7);
  EXPECT_DOUBLE_EQ(m.quality(0, 1), 0.7);
  EXPECT_DOUBLE_EQ(m.quality(1, 0), 0.7);
  EXPECT_DOUBLE_EQ(m.quality(0, 2), 0.0);
  EXPECT_EQ(m.num_links(), 1u);
  m.add_link(0, 1, 0.5);  // update, not duplicate
  EXPECT_EQ(m.num_links(), 1u);
  EXPECT_DOUBLE_EQ(m.quality(1, 0), 0.5);
}

TEST(Mesh, RejectsInvalidLinks) {
  MeshGraph m(3);
  EXPECT_THROW(m.add_link(0, 0, 0.5), InvalidArgument);
  EXPECT_THROW(m.add_link(0, 9, 0.5), InvalidArgument);
  EXPECT_THROW(m.add_link(0, 1, 0.0), InvalidArgument);
  EXPECT_THROW(m.add_link(0, 1, 1.5), InvalidArgument);
}

TEST(Mesh, ConnectivityDetection) {
  MeshGraph m(4);
  m.add_link(0, 1, 1.0);
  m.add_link(2, 3, 1.0);
  EXPECT_FALSE(m.connected());
  m.add_link(1, 2, 1.0);
  EXPECT_TRUE(m.connected());
}

TEST(Mesh, RandomMeshIsConnectedAndDense) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    Rng rng(seed);
    const auto m = random_mesh(40, rng);
    EXPECT_TRUE(m.connected());
    EXPECT_GE(m.num_links(), 39u);  // at least a spanning tree
    // Most nodes should have 2+ neighbors (parent diversity substrate).
    std::size_t multi = 0;
    for (NodeId v = 1; v < m.size(); ++v) {
      if (m.neighbors(v).size() >= 2) ++multi;
    }
    EXPECT_GE(multi, 30u) << "seed " << seed;
  }
}

// ------------------------------------------------------------- decompose

TEST(Decompose, DiamondYieldsDisjointUplinks) {
  const auto d = decompose(diamond());
  EXPECT_EQ(d.primary.size(), 4u);
  EXPECT_EQ(d.secondary.size(), 4u);
  // Node 3's two trees must use different parents (1 vs 2).
  EXPECT_NE(d.primary.parent(3), d.secondary.parent(3));
  // Node 2 falls back via node 1; node 1 (whose only admissible parent is
  // the gateway itself) cannot diversify: 2 of 3 nodes diverse.
  EXPECT_NEAR(d.uplink_diversity, 2.0 / 3.0, 1e-9);
}

TEST(Decompose, PrimaryPicksBestQuality) {
  const auto d = decompose(diamond());
  // Both of node 3's candidates are 2 hops; quality favors parent 1.
  EXPECT_EQ(d.primary.parent(3), 1u);
}

TEST(Decompose, RejectsDisconnectedMesh) {
  MeshGraph m(3);
  m.add_link(0, 1, 1.0);
  EXPECT_THROW(decompose(m), InvalidArgument);
}

TEST(Decompose, RandomMeshesProduceValidSpanningTrees) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    Rng rng(seed);
    const auto m = random_mesh(35, rng);
    const auto d = decompose(m);
    EXPECT_EQ(d.primary.size(), m.size());
    EXPECT_EQ(d.secondary.size(), m.size());
    // Every tree edge must be a real mesh link.
    for (NodeId v = 1; v < m.size(); ++v) {
      EXPECT_GT(m.quality(v, d.primary.parent(v)), 0.0);
      EXPECT_GT(m.quality(v, d.secondary.parent(v)), 0.0);
    }
    // Dense meshes should give most nodes diverse uplinks.
    EXPECT_GE(d.uplink_diversity, 0.4) << "seed " << seed;
  }
}

// ------------------------------------------------------------ multi-tree

std::vector<net::Task> light_tasks(std::size_t nodes) {
  std::vector<net::Task> tasks;
  for (NodeId v = 1; v < nodes; ++v) {
    tasks.push_back(
        {.id = v, .source = v, .period_slots = 199, .echo = true});
  }
  return tasks;
}

TEST(MultiTree, BootstrapsAndValidates) {
  Rng rng(3);
  const auto mesh = random_mesh(25, rng);
  MultiTreeHarp harp(mesh, light_tasks(mesh.size()), {frame()});
  EXPECT_EQ(harp.validate(), "");
  // Primary carries everyone; secondary idle.
  for (NodeId v = 1; v < mesh.size(); ++v) {
    EXPECT_EQ(harp.assignment(v), Tree::kPrimary);
  }
  EXPECT_EQ(harp.engine(Tree::kSecondary).traffic().total_cells(), 0);
  // Regions partition the data sub-frame.
  const auto [p0, p1] = harp.region(Tree::kPrimary);
  const auto [s0, s1] = harp.region(Tree::kSecondary);
  EXPECT_EQ(p0, 0u);
  EXPECT_EQ(p1, s0);
  EXPECT_EQ(s1, frame().data_slots);
}

TEST(MultiTree, FailoverMovesTraffic) {
  Rng rng(3);
  const auto mesh = random_mesh(25, rng);
  MultiTreeHarp harp(mesh, light_tasks(mesh.size()), {frame()});
  const NodeId node = 7;
  const auto r = harp.failover(node);
  ASSERT_TRUE(r.satisfied);
  EXPECT_EQ(harp.assignment(node), Tree::kSecondary);
  EXPECT_GT(harp.engine(Tree::kSecondary).traffic().total_cells(), 0);
  EXPECT_EQ(harp.validate(), "");
  // The secondary schedule serves the node within its region.
  const auto sched = harp.global_schedule(Tree::kSecondary);
  const auto [s0, s1] = harp.region(Tree::kSecondary);
  bool has_cells = false;
  for (NodeId child = 0; child < sched.num_nodes(); ++child) {
    for (const Direction dir : {Direction::kUp, Direction::kDown}) {
      for (const Cell c : sched.cells(child, dir)) {
        EXPECT_GE(c.slot, s0);
        EXPECT_LT(c.slot, s1);
        has_cells = true;
      }
    }
  }
  EXPECT_TRUE(has_cells);
}

TEST(MultiTree, FailoverRoundTripRestores) {
  Rng rng(3);
  const auto mesh = random_mesh(25, rng);
  MultiTreeHarp harp(mesh, light_tasks(mesh.size()), {frame()});
  const auto before_cells =
      harp.engine(Tree::kPrimary).traffic().total_cells();
  ASSERT_TRUE(harp.failover(9).satisfied);
  ASSERT_TRUE(harp.failover(9).satisfied);  // back to primary
  EXPECT_EQ(harp.assignment(9), Tree::kPrimary);
  EXPECT_EQ(harp.engine(Tree::kPrimary).traffic().total_cells(),
            before_cells);
  EXPECT_EQ(harp.engine(Tree::kSecondary).traffic().total_cells(), 0);
  EXPECT_EQ(harp.validate(), "");
}

TEST(MultiTree, ManyFailoversStayValid) {
  Rng rng(5);
  const auto mesh = random_mesh(30, rng);
  MultiTreeHarp harp(mesh, light_tasks(mesh.size()), {frame()});
  Rng churn(42);
  int moved = 0;
  for (int step = 0; step < 40; ++step) {
    const NodeId node = static_cast<NodeId>(
        churn.between(1, static_cast<int>(mesh.size()) - 1));
    if (harp.failover(node).satisfied) ++moved;
    ASSERT_EQ(harp.validate(), "") << "step " << step;
  }
  EXPECT_GT(moved, 20);
}

TEST(MultiTree, RejectsBadOptions) {
  Rng rng(3);
  const auto mesh = random_mesh(10, rng);
  MultiTreeHarp::Options bad{frame()};
  bad.secondary_share = 0.0;
  EXPECT_THROW(MultiTreeHarp(mesh, light_tasks(mesh.size()), bad),
               InvalidArgument);
  bad.secondary_share = 1.0;
  EXPECT_THROW(MultiTreeHarp(mesh, light_tasks(mesh.size()), bad),
               InvalidArgument);
}

TEST(MultiTree, GatewayCannotFailOver) {
  Rng rng(3);
  const auto mesh = random_mesh(10, rng);
  MultiTreeHarp harp(mesh, light_tasks(mesh.size()), {frame()});
  EXPECT_THROW(harp.failover(0), InvalidArgument);
}

}  // namespace
}  // namespace harp::mesh
