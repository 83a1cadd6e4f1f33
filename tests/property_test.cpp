// Parameterized property sweeps across the core algorithms, plus edge
// cases for the baseline schedulers and protocol agents that the focused
// suites do not reach.
#include <gtest/gtest.h>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "harp/adjustment.hpp"
#include "harp/compose.hpp"
#include "net/topology_gen.hpp"
#include "net/traffic.hpp"
#include "packing/maxrects.hpp"
#include "packing/validate.hpp"
#include "proto/agent.hpp"
#include "proto/codec.hpp"
#include "schedulers/scheduler.hpp"

namespace harp {
namespace {

// ------------------------------------------------- composition properties

struct ComposeCase {
  int children;
  int max_slots;
  int max_channels;
  int band;  // M
  std::uint64_t seed;
};

class ComposeProperty : public ::testing::TestWithParam<ComposeCase> {};

TEST_P(ComposeProperty, CompositeIsTightValidAndDeterministic) {
  const auto& p = GetParam();
  Rng rng(p.seed);
  std::vector<core::ChildComponent> children;
  std::vector<packing::Rect> expected;
  std::int64_t total_cells = 0;
  int widest = 0, tallest = 0;
  for (int i = 1; i <= p.children; ++i) {
    const core::ResourceComponent c{
        static_cast<int>(rng.between(1, p.max_slots)),
        static_cast<int>(rng.between(1, std::min(p.max_channels, p.band)))};
    children.push_back({static_cast<NodeId>(i), c});
    expected.push_back(c.as_rect(static_cast<NodeId>(i)));
    total_cells += c.cells();
    widest = std::max(widest, c.slots);
    tallest = std::max(tallest, c.channels);
  }

  const auto composed = core::compose_components(children, p.band);
  // Bounds: never smaller than the largest child, never more channels
  // than the band, never less area than the demand.
  EXPECT_GE(composed.composite.slots, widest);
  EXPECT_GE(composed.composite.channels, tallest);
  EXPECT_LE(composed.composite.channels, p.band);
  EXPECT_GE(composed.composite.cells(), total_cells);
  // Layout is an exact, in-bounds, overlap-free packing of the children.
  EXPECT_EQ(packing::validate_packing(composed.layout,
                                      composed.composite.slots,
                                      composed.composite.channels, &expected),
            "");
  // Determinism: same inputs, same result.
  const auto again = core::compose_components(children, p.band);
  EXPECT_EQ(again.composite, composed.composite);
  EXPECT_EQ(again.layout, composed.layout);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ComposeProperty,
    ::testing::Values(ComposeCase{2, 6, 2, 16, 1}, ComposeCase{4, 10, 3, 16, 2},
                      ComposeCase{8, 20, 4, 16, 3}, ComposeCase{3, 5, 2, 2, 4},
                      ComposeCase{6, 15, 1, 16, 5}, ComposeCase{5, 8, 8, 8, 6},
                      ComposeCase{10, 4, 2, 4, 7}, ComposeCase{7, 30, 2, 16, 8},
                      ComposeCase{12, 6, 3, 16, 9},
                      ComposeCase{2, 50, 1, 2, 10}));

// -------------------------------------------------- adjustment properties

class AdjustmentProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(AdjustmentProperty, GrownLayoutsAreValidAndMinimal) {
  Rng rng(GetParam());
  // Random packed layout.
  const int W = static_cast<int>(rng.between(12, 40));
  const int H = static_cast<int>(rng.between(2, 8));
  packing::FixedBinPacker bin(W, H);
  std::vector<packing::Placement> layout;
  for (std::uint64_t id = 1; id <= 7; ++id) {
    const packing::Rect r{rng.between(1, W / 3),
                          rng.between(1, std::max(1, H / 2)), id};
    if (auto placed = bin.insert(r)) layout.push_back(*placed);
  }
  if (layout.size() < 3) GTEST_SKIP();

  const auto victim = layout[rng.index(layout.size())];
  const core::ResourceComponent grown{
      static_cast<int>(victim.w + rng.between(1, 4)),
      static_cast<int>(victim.h)};

  const auto out = core::adjust_partition_layout(
      {W, H}, layout, static_cast<NodeId>(victim.id), grown);
  if (out.success) {
    EXPECT_EQ(out.layout.size(), layout.size());
    EXPECT_TRUE(packing::placements_disjoint(out.layout));
    for (const auto& pl : out.layout) EXPECT_TRUE(pl.inside(W, H));
    // Moved set excludes the requester and every unmoved sibling.
    for (const auto& pl : out.layout) {
      if (pl.id == victim.id) continue;
      const bool reported =
          std::find(out.moved.begin(), out.moved.end(),
                    static_cast<NodeId>(pl.id)) != out.moved.end();
      const auto orig = std::find_if(
          layout.begin(), layout.end(),
          [&](const packing::Placement& o) { return o.id == pl.id; });
      const bool actually_moved = orig->x != pl.x || orig->y != pl.y;
      EXPECT_EQ(reported, actually_moved) << "id " << pl.id;
    }
  }

  // Anchored growth, when it succeeds, must not move ANY sibling
  // (that is its contract).
  if (auto g = core::grow_composite_anchored({W, H}, layout,
                                             static_cast<NodeId>(victim.id),
                                             grown, 16)) {
    for (const auto& pl : g->layout) {
      if (pl.id == victim.id) continue;
      const auto orig = std::find_if(
          layout.begin(), layout.end(),
          [&](const packing::Placement& o) { return o.id == pl.id; });
      EXPECT_EQ(orig->x, pl.x);
      EXPECT_EQ(orig->y, pl.y);
    }
    EXPECT_TRUE(packing::placements_disjoint(g->layout));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AdjustmentProperty,
                         ::testing::Range<std::uint64_t>(0, 25));

// ---------------------------------------------------- scheduler edges

TEST(SchedulerEdges, LdsfSaturatedBlockStillAssigns) {
  // Depth-1 star with demand far beyond one block's capacity: LDSF must
  // still hand out the demanded cells (spilling randomly), not hang.
  const auto topo = net::TopologyBuilder::from_parents({0, 0, 0});
  net::SlotframeConfig frame;
  frame.length = 20;
  frame.data_slots = 16;
  frame.num_channels = 2;
  net::TrafficMatrix traffic(topo.size());
  traffic.set_uplink(1, 30);  // block capacity is 8*2 = 16
  Rng rng(3);
  const auto s =
      sched::make_ldsf_scheduler()->build(topo, traffic, frame, rng);
  EXPECT_EQ(s.cells(1, Direction::kUp).size(), 30u);
  for (const Cell c : s.cells(1, Direction::kUp)) {
    EXPECT_LT(c.slot, frame.data_slots);
  }
}

TEST(SchedulerEdges, ZeroDemandYieldsEmptySchedules) {
  const auto topo = net::fig1_tree();
  const net::TrafficMatrix traffic(topo.size());
  const net::SlotframeConfig frame;
  for (auto maker : {&sched::make_random_scheduler, &sched::make_msf_scheduler,
                     &sched::make_ldsf_scheduler, &sched::make_harp_scheduler}) {
    Rng rng(1);
    const auto s = (*maker)()->build(topo, traffic, frame, rng);
    EXPECT_EQ(s.total_cells(), 0u);
  }
}

TEST(SchedulerEdges, RandomRejectsImpossibleDemand) {
  const auto topo = net::TopologyBuilder::from_parents({0});
  net::SlotframeConfig frame;
  frame.length = 10;
  frame.data_slots = 4;
  frame.num_channels = 1;
  net::TrafficMatrix traffic(topo.size());
  traffic.set_uplink(1, 5);  // > 4 cells exist
  Rng rng(1);
  EXPECT_THROW(sched::make_random_scheduler()->build(topo, traffic, frame, rng),
               InfeasibleError);
}

// -------------------------------------------------------- agent edges

proto::AgentConfig leaf_config(NodeId id, NodeId parent) {
  proto::AgentConfig cfg;
  cfg.id = id;
  cfg.parent = parent;
  cfg.link_layer = 2;
  cfg.frame = net::SlotframeConfig{};
  return cfg;
}

struct NullTransport : proto::Transport {
  void send(proto::Message) override {}
};

/// The network tables a lone agent borrows (rows for nodes 0..9).
struct Tables {
  core::PartitionTable parts{10};
  core::Schedule schedule{10};
};

TEST(AgentEdges, DuplicateAddChildThrows) {
  auto cfg = leaf_config(5, 1);
  Tables tables;
  proto::HarpAgent agent(cfg, tables.parts, tables.schedule);
  NullTransport t;
  agent.start(t);
  agent.add_child({9, true, 0, 0, ~0u, ~0u}, t);
  EXPECT_THROW(agent.add_child({9, true, 0, 0, ~0u, ~0u}, t),
               InvalidArgument);
}

TEST(AgentEdges, RemoveUnknownChildThrows) {
  Tables tables;
  proto::HarpAgent agent(leaf_config(5, 1), tables.parts, tables.schedule);
  NullTransport t;
  agent.start(t);
  EXPECT_THROW(agent.remove_child(77, t), InvalidArgument);
}

TEST(AgentEdges, NonLeafJoinAndRelayRoamRejected) {
  Tables tables;
  proto::HarpAgent agent(leaf_config(5, 1), tables.parts, tables.schedule);
  NullTransport t;
  agent.start(t);
  EXPECT_THROW(agent.add_child({9, /*is_leaf=*/false, 0, 0, ~0u, ~0u}, t),
               InvalidArgument);
  agent.add_child({9, true, 0, 0, ~0u, ~0u}, t);
  EXPECT_THROW(agent.rehome(3, 4), InvalidArgument);  // has a child now
}

TEST(AgentEdges, AgentNeedsValidId) {
  proto::AgentConfig cfg;
  Tables tables;
  EXPECT_THROW((proto::HarpAgent{cfg, tables.parts, tables.schedule}),
               InvalidArgument);
}

// ---------------------------------------------------------- codec edges

TEST(CodecEdges, EmptyPayloadsRoundTrip) {
  proto::Message msg;
  msg.type = proto::MsgType::kPostPart;
  msg.src = 1;
  msg.dst = 2;
  msg.payload = proto::PartPayload{};
  const auto back = proto::decode(proto::encode(msg));
  EXPECT_TRUE(std::get<proto::PartPayload>(back.payload).items.empty());

  msg.type = proto::MsgType::kCellAssign;
  msg.payload = proto::CellAssignPayload{};
  const auto back2 = proto::decode(proto::encode(msg));
  EXPECT_TRUE(
      std::get<proto::CellAssignPayload>(back2.payload).items.empty());
}

TEST(CodecEdges, OversizedMessagesFlagged) {
  proto::Message msg;
  msg.type = proto::MsgType::kCellAssign;
  proto::CellAssignPayload p;
  for (int i = 0; i < 40; ++i) {
    p.items.push_back({Direction::kUp, static_cast<std::uint16_t>(i), 0});
  }
  msg.payload = p;
  EXPECT_FALSE(proto::fits_single_frame(msg));  // 12 + 40*4 = 172 B
}

}  // namespace
}  // namespace harp
