// Tests for bottom-up interface generation and top-down partition
// allocation, including the paper's central isolation property.
#include <gtest/gtest.h>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "harp/interface_gen.hpp"
#include "harp/partition_alloc.hpp"
#include "net/topology_gen.hpp"

namespace harp::core {
namespace {

net::SlotframeConfig frame() { return net::SlotframeConfig{}; }

/// Topology + uniform echo tasks at 1 packet/slotframe.
struct Network {
  net::Topology topo;
  net::TrafficMatrix traffic;
};

Network echo_network(net::Topology topo) {
  const auto tasks = net::uniform_echo_tasks(topo, frame().length);
  auto traffic = net::derive_traffic(topo, tasks, frame());
  return {std::move(topo), std::move(traffic)};
}

TEST(InterfaceGen, OwnLayerComponentSumsChildDemands) {
  const auto [topo, traffic] = echo_network(net::fig1_tree());
  // Gateway's own layer (1): sum of all layer-1 uplink demands.
  int expect = 0;
  for (NodeId c : topo.children(0)) expect += traffic.uplink(c);
  const auto c = own_layer_component(topo, traffic, Direction::kUp, 0);
  EXPECT_EQ(c.slots, expect);
  EXPECT_EQ(c.channels, 1);
}

TEST(InterfaceGen, LeafHasNoInterface) {
  const auto [topo, traffic] = echo_network(net::fig1_tree());
  const auto ifs = generate_interfaces(topo, traffic, Direction::kUp, 16);
  for (NodeId v = 0; v < topo.size(); ++v) {
    if (topo.is_leaf(v)) {
      EXPECT_TRUE(ifs.layers(v).empty()) << v;
    }
  }
}

TEST(InterfaceGen, LayerRangeMatchesSubtree) {
  const auto [topo, traffic] = echo_network(net::testbed_tree());
  const auto ifs = generate_interfaces(topo, traffic, Direction::kUp, 16);
  for (NodeId v = 0; v < topo.size(); ++v) {
    if (topo.is_leaf(v)) continue;
    const auto layers = ifs.layers(v);
    ASSERT_FALSE(layers.empty());
    EXPECT_EQ(layers.front(), topo.link_layer(v));
    EXPECT_EQ(layers.back(), topo.subtree_depth(v));
  }
}

TEST(InterfaceGen, ComponentCellsCoverSubtreeDemand) {
  const auto [topo, traffic] = echo_network(net::testbed_tree());
  const auto ifs = generate_interfaces(topo, traffic, Direction::kUp, 16);
  // For every non-leaf node, the interface must provide at least as many
  // cells as the total uplink demand of all links inside the subtree.
  for (NodeId v = 0; v < topo.size(); ++v) {
    if (topo.is_leaf(v)) continue;
    std::int64_t demand = 0;
    for (NodeId u : topo.subtree_nodes(v)) {
      if (u != v) demand += traffic.uplink(u);
    }
    EXPECT_GE(ifs.interface_cells(v), demand) << "node " << v;
  }
}

TEST(InterfaceGen, ZeroTrafficYieldsEmptyInterfaces) {
  const auto topo = net::fig1_tree();
  const net::TrafficMatrix traffic(topo.size());
  const auto ifs = generate_interfaces(topo, traffic, Direction::kUp, 16);
  for (NodeId v = 0; v < topo.size(); ++v) {
    EXPECT_TRUE(ifs.layers(v).empty());
  }
}

TEST(PartitionTable, SetGetEraseLayers) {
  PartitionTable t(3);
  EXPECT_TRUE(t.get(Direction::kUp, 1, 2).empty());
  t.set(Direction::kUp, 1, 2, {{3, 1}, 5, 0});
  EXPECT_EQ(t.get(Direction::kUp, 1, 2).slot, 5u);
  EXPECT_TRUE(t.get(Direction::kDown, 1, 2).empty());  // directions separate
  t.set(Direction::kUp, 1, 4, {{1, 1}, 9, 2});
  EXPECT_EQ(t.layers(Direction::kUp, 1), (std::vector<int>{2, 4}));
  t.erase(Direction::kUp, 1, 2);
  EXPECT_EQ(t.layers(Direction::kUp, 1), (std::vector<int>{4}));
  EXPECT_EQ(t.rows(Direction::kUp).size(), 1u);
  // Setting an empty partition erases.
  t.set(Direction::kUp, 1, 4, Partition{});
  EXPECT_TRUE(t.layers(Direction::kUp, 1).empty());
}

TEST(PartitionAlloc, Fig1NetworkValidates) {
  const auto [topo, traffic] = echo_network(net::fig1_tree());
  const auto f = frame();
  const auto up = generate_interfaces(topo, traffic, Direction::kUp, 16);
  const auto down = generate_interfaces(topo, traffic, Direction::kDown, 16);
  const auto result = allocate_partitions(topo, up, down, f);
  EXPECT_EQ(validate_partitions(topo, up, down, result.partitions, f), "");
  EXPECT_GT(result.uplink_slots, 0u);
  EXPECT_GT(result.downlink_slots, 0u);
  EXPECT_LE(result.uplink_slots + result.downlink_slots, f.data_slots);
}

TEST(PartitionAlloc, UplinkDeepLayersComeFirst) {
  const auto [topo, traffic] = echo_network(net::testbed_tree());
  const auto f = frame();
  const auto up = generate_interfaces(topo, traffic, Direction::kUp, 16);
  const auto down = generate_interfaces(topo, traffic, Direction::kDown, 16);
  const auto result = allocate_partitions(topo, up, down, f);
  // Routing-compliant order: the gateway's uplink partition at layer l+1
  // ends no later than the one at layer l starts.
  for (int l = topo.depth(); l > 1; --l) {
    const auto deep = result.partitions.get(Direction::kUp, 0, l);
    const auto shallow = result.partitions.get(Direction::kUp, 0, l - 1);
    ASSERT_FALSE(deep.empty());
    ASSERT_FALSE(shallow.empty());
    EXPECT_LE(deep.end_slot(), shallow.slot);
  }
  // And downlink in the opposite order.
  for (int l = 1; l < topo.depth(); ++l) {
    const auto shallow = result.partitions.get(Direction::kDown, 0, l);
    const auto deep = result.partitions.get(Direction::kDown, 0, l + 1);
    EXPECT_LE(shallow.end_slot(), deep.slot);
  }
}

TEST(PartitionAlloc, DownlinkIsRightAligned) {
  const auto [topo, traffic] = echo_network(net::testbed_tree());
  const auto f = frame();
  const auto up = generate_interfaces(topo, traffic, Direction::kUp, 16);
  const auto down = generate_interfaces(topo, traffic, Direction::kDown, 16);
  const auto result = allocate_partitions(topo, up, down, f);
  SlotId max_end = 0;
  for (const auto& row : result.partitions.rows(Direction::kDown)) {
    max_end = std::max(max_end, row.part.end_slot());
  }
  EXPECT_EQ(max_end, f.data_slots);
}

TEST(PartitionAlloc, ThrowsWhenOverloaded) {
  const auto topo = net::fig1_tree();
  net::TrafficMatrix traffic(topo.size());
  for (NodeId v = 1; v < topo.size(); ++v) {
    traffic.set_uplink(v, 40);  // grossly beyond 167 data slots
    traffic.set_downlink(v, 40);
  }
  const auto f = frame();
  const auto up = generate_interfaces(topo, traffic, Direction::kUp, 16);
  const auto down = generate_interfaces(topo, traffic, Direction::kDown, 16);
  EXPECT_THROW(allocate_partitions(topo, up, down, f), InfeasibleError);
}

struct IsolationCase {
  std::size_t nodes;
  int layers;
  std::uint64_t seed;
  ChannelId channels;
};

// Names the ctest case (gtest would print the raw bytes, padding included).
void PrintTo(const IsolationCase& c, std::ostream* os) {
  *os << "n" << c.nodes << "_l" << c.layers << "_seed" << c.seed << "_ch"
      << c.channels;
}

class IsolationProperty : public ::testing::TestWithParam<IsolationCase> {};

// The paper's core claim (Sec. IV-C): partition allocation isolates every
// scheduling partition. Checked over random topologies and channel counts.
TEST_P(IsolationProperty, RandomTopologiesAreIsolated) {
  const auto& p = GetParam();
  Rng rng(p.seed);
  const auto topo =
      net::random_tree({.num_nodes = p.nodes, .num_layers = p.layers}, rng);
  net::SlotframeConfig f;
  f.num_channels = p.channels;
  const auto tasks = net::uniform_echo_tasks(topo, f.length);
  const auto traffic = net::derive_traffic(topo, tasks, f);
  const auto up = generate_interfaces(topo, traffic, Direction::kUp,
                                      static_cast<int>(f.num_channels));
  const auto down = generate_interfaces(topo, traffic, Direction::kDown,
                                        static_cast<int>(f.num_channels));
  try {
    const auto result = allocate_partitions(topo, up, down, f);
    EXPECT_EQ(validate_partitions(topo, up, down, result.partitions, f), "");
  } catch (const InfeasibleError&) {
    // Admission control may reject tight instances; that is correct
    // behaviour, not a property violation.
  }
}

INSTANTIATE_TEST_SUITE_P(
    Random, IsolationProperty,
    ::testing::Values(IsolationCase{50, 5, 1, 16}, IsolationCase{50, 5, 2, 16},
                      IsolationCase{50, 5, 3, 8}, IsolationCase{30, 4, 4, 4},
                      IsolationCase{81, 10, 5, 16}, IsolationCase{81, 10, 6, 16},
                      IsolationCase{20, 3, 7, 2}, IsolationCase{12, 3, 8, 16},
                      IsolationCase{100, 6, 9, 16},
                      IsolationCase{60, 5, 10, 16}));

}  // namespace
}  // namespace harp::core
