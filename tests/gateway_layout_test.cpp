// Unit tests for the gateway layout machinery (inter-layer gaps, anchored
// minimal-movement re-placement) and anchored composite growth — the two
// mechanisms that keep dynamic adjustments local.
#include <gtest/gtest.h>

#include "common/error.hpp"
#include "harp/adjustment.hpp"
#include "harp/partition_alloc.hpp"

namespace harp::core {
namespace {

using packing::Placement;

// -------------------------------------------------------- place_gateway_side

TEST(GatewaySide, UplinkDeepestFirstFromLeft) {
  const std::map<int, ResourceComponent> comps{
      {1, {10, 1}}, {2, {6, 2}}, {3, {4, 3}}};
  const auto placed =
      place_gateway_side(comps, Direction::kUp, 0, 100, {}, 0);
  ASSERT_TRUE(placed);
  EXPECT_EQ(placed->at(3).slot, 0u);
  EXPECT_EQ(placed->at(2).slot, 4u);
  EXPECT_EQ(placed->at(1).slot, 10u);
}

TEST(GatewaySide, DownlinkShallowestFirstFlushRight) {
  const std::map<int, ResourceComponent> comps{
      {1, {10, 1}}, {2, {6, 2}}, {3, {4, 3}}};
  const auto placed =
      place_gateway_side(comps, Direction::kDown, 0, 100, {}, 0);
  ASSERT_TRUE(placed);
  EXPECT_EQ(placed->at(3).end_slot(), 100u);
  EXPECT_EQ(placed->at(2).end_slot(), 96u);
  EXPECT_EQ(placed->at(1).end_slot(), 90u);
  // Compliant order: layer 1 earliest.
  EXPECT_LT(placed->at(1).slot, placed->at(2).slot);
}

TEST(GatewaySide, GapsSeparateLayers) {
  const std::map<int, ResourceComponent> comps{{1, {5, 1}}, {2, {5, 1}}};
  const auto placed =
      place_gateway_side(comps, Direction::kUp, 0, 100, {}, 3);
  ASSERT_TRUE(placed);
  EXPECT_EQ(placed->at(2).slot, 0u);
  EXPECT_EQ(placed->at(1).slot, 8u);  // 5 slots + 3 gap
}

TEST(GatewaySide, AnchoredKeepsPositions) {
  const std::map<int, ResourceComponent> comps{{1, {5, 1}}, {2, {5, 1}}};
  const std::map<int, Partition> current{{1, {{5, 1}, 20, 0}},
                                         {2, {{5, 1}, 3, 0}}};
  const auto placed =
      place_gateway_side(comps, Direction::kUp, 0, 100, current, 0);
  ASSERT_TRUE(placed);
  EXPECT_EQ(placed->at(2).slot, 3u);   // kept
  EXPECT_EQ(placed->at(1).slot, 20u);  // kept
}

TEST(GatewaySide, AnchoredGrowthPushesOnlyWhenForced) {
  // Layer 2 at [0,5), layer 1 at [8,13); grow layer 2 to 7 slots: fits
  // the 3-slot gap, layer 1 stays.
  const std::map<int, Partition> current{{1, {{5, 1}, 8, 0}},
                                         {2, {{5, 1}, 0, 0}}};
  auto placed = place_gateway_side({{1, {5, 1}}, {2, {7, 1}}},
                                   Direction::kUp, 0, 100, current, 0);
  ASSERT_TRUE(placed);
  EXPECT_EQ(placed->at(2).slot, 0u);
  EXPECT_EQ(placed->at(1).slot, 8u);  // untouched

  // Growing to 10 slots exceeds the gap: layer 1 is pushed to 10.
  placed = place_gateway_side({{1, {5, 1}}, {2, {10, 1}}}, Direction::kUp, 0,
                              100, current, 0);
  ASSERT_TRUE(placed);
  EXPECT_EQ(placed->at(1).slot, 10u);
}

TEST(GatewaySide, RespectsWindow) {
  EXPECT_FALSE(place_gateway_side({{1, {30, 1}}}, Direction::kUp, 0, 20, {},
                                  0)
                   .has_value());
  EXPECT_FALSE(place_gateway_side({{1, {30, 1}}}, Direction::kDown, 10, 20,
                                  {}, 0)
                   .has_value());
  EXPECT_TRUE(place_gateway_side({{1, {10, 1}}}, Direction::kDown, 10, 20,
                                 {}, 0)
                  .has_value());
}

TEST(GatewaySide, EmptyComponentsIgnored) {
  const auto placed = place_gateway_side({{1, {}}, {2, {4, 1}}},
                                         Direction::kUp, 0, 20, {}, 0);
  ASSERT_TRUE(placed);
  EXPECT_EQ(placed->size(), 1u);
  EXPECT_TRUE(placed->contains(2));
}

// --------------------------------------------------- initial_gateway_layout

TEST(GatewayLayout, SpareSpreadBetweenDirections) {
  net::SlotframeConfig f;
  f.length = 100;
  f.data_slots = 100;
  const std::map<int, ResourceComponent> up{{1, {10, 1}}, {2, {10, 1}}};
  const std::map<int, ResourceComponent> down{{1, {10, 1}}, {2, {10, 1}}};
  const auto [u, d] = initial_gateway_layout(up, down, f);
  // 60 spare slots; each side gets ~30 as its single inter-layer gap.
  EXPECT_EQ(u.at(2).slot, 0u);
  EXPECT_EQ(u.at(1).slot, 10u + 30u);
  EXPECT_EQ(d.at(2).end_slot(), 100u);
  // No overlap between the regions.
  SlotId up_end = 0, down_begin = f.data_slots;
  for (const auto& [l, p] : u) up_end = std::max(up_end, p.end_slot());
  for (const auto& [l, p] : d) down_begin = std::min(down_begin, p.slot);
  EXPECT_LE(up_end, down_begin);
}

TEST(GatewayLayout, ThrowsWhenOverCommitted) {
  net::SlotframeConfig f;
  f.length = 100;
  f.data_slots = 30;
  EXPECT_THROW(
      initial_gateway_layout({{1, {20, 1}}}, {{1, {20, 1}}}, f),
      InfeasibleError);
  f.data_slots = 80;
  EXPECT_THROW(initial_gateway_layout({{1, {5, 20}}}, {}, f),
               InfeasibleError);  // channel overflow
}

// --------------------------------------------------- replace_gateway_side

TEST(GatewayReplace, AnchoredThenCompactThenReject) {
  net::SlotframeConfig f;
  f.length = 100;
  f.data_slots = 50;
  const NodeId gw = net::Topology::gateway();
  PartitionTable parts(1);
  parts.set(Direction::kDown, gw, 1, {{10, 1}, 40, 0});  // the other side
  parts.set(Direction::kUp, gw, 1, {{10, 1}, 25, 0});
  parts.set(Direction::kUp, gw, 2, {{10, 1}, 0, 0});
  const auto up_components = [gw](ResourceComponent layer2) {
    InterfaceSet ifs(1);
    ifs.set_component(gw, 1, {10, 1});
    ifs.set_component(gw, 2, layer2);
    return ifs;
  };
  // Anchored works: grow layer 2 to 12 (gap 15 available).
  auto placed =
      replace_gateway_side(up_components({12, 1}), parts, Direction::kUp, f);
  ASSERT_TRUE(placed);
  EXPECT_EQ(placed->at(1).slot, 25u);

  // Growth to 28: anchored fails (25+... layer1 pushed to 28, ends at 38
  // < 40 though) -> still anchored-feasible; grow to 35: total 45 > 40
  // window -> compact also fails -> reject.
  placed =
      replace_gateway_side(up_components({35, 1}), parts, Direction::kUp, f);
  EXPECT_FALSE(placed.has_value());

  // Growth to 28 slots: compact packs 28 + 10 = 38 <= 40.
  placed =
      replace_gateway_side(up_components({28, 1}), parts, Direction::kUp, f);
  ASSERT_TRUE(placed);
  EXPECT_LE(placed->at(1).end_slot(), 40u);
}

// ------------------------------------------------- grow_composite_anchored

TEST(GrowAnchored, ChannelGrowthPreferred) {
  // Box 4x1 holds child 1 [4,1]; child 2 appears with [4,1]: stacking on
  // a second channel keeps slots at 4.
  const std::vector<Placement> layout{{0, 0, 4, 1, 1}};
  const auto grown = grow_composite_anchored({4, 1}, layout, 2, {4, 1}, 16);
  ASSERT_TRUE(grown);
  EXPECT_EQ(grown->box, (ResourceComponent{4, 2}));
  // Sibling 1 untouched.
  for (const auto& p : grown->layout) {
    if (p.id == 1) {
      EXPECT_EQ(p.x, 0);
    }
  }
}

TEST(GrowAnchored, SlotGrowthWhenChannelsExhausted) {
  const std::vector<Placement> layout{{0, 0, 4, 1, 1}};
  const auto grown = grow_composite_anchored({4, 1}, layout, 2, {4, 1}, 1);
  ASSERT_TRUE(grown);
  EXPECT_EQ(grown->box, (ResourceComponent{8, 1}));
}

TEST(GrowAnchored, InPlaceExtensionKeepsChildOrigin) {
  // Child 1 at [0,4)x[0,1), child 2 at [4,6): child 2 grows to 5 slots;
  // slot growth puts the box at 9 and child 2 stays at x=4.
  const std::vector<Placement> layout{{0, 0, 4, 1, 1}, {4, 0, 2, 1, 2}};
  const auto grown = grow_composite_anchored({6, 1}, layout, 2, {5, 1}, 1);
  ASSERT_TRUE(grown);
  EXPECT_EQ(grown->box.slots, 9);
  for (const auto& p : grown->layout) {
    if (p.id == 2) {
      EXPECT_EQ(p.x, 4);
      EXPECT_EQ(p.w, 5);
    }
    if (p.id == 1) {
      EXPECT_EQ(p.x, 0);
    }
  }
}

TEST(GrowAnchored, LeftGrowthShiftsOffsetsNotSiblings) {
  // Downlink orientation: box start will move left; the layout offsets of
  // anchored siblings must shift right by the growth so their ABSOLUTE
  // position is preserved.
  const std::vector<Placement> layout{{0, 0, 4, 1, 1}, {4, 0, 2, 1, 2}};
  const auto grown = grow_composite_anchored({6, 1}, layout, 2, {5, 1}, 1,
                                             GrowSide::kLeft);
  ASSERT_TRUE(grown);
  const int delta = grown->box.slots - 6;
  EXPECT_GT(delta, 0);
  for (const auto& p : grown->layout) {
    if (p.id == 1) {
      EXPECT_EQ(p.x, 0 + delta);
    }
  }
}

TEST(GrowAnchored, NullOnEmptyBoxOrImpossible) {
  EXPECT_FALSE(grow_composite_anchored({}, {}, 1, {2, 1}, 16).has_value());
  EXPECT_FALSE(
      grow_composite_anchored({4, 1}, {}, 1, {2, 20}, 16).has_value());
  EXPECT_THROW(grow_composite_anchored({4, 1}, {}, 1, {}, 16),
               InvalidArgument);
}

TEST(GrowAnchored, ResultIsAlwaysValidPacking) {
  const std::vector<Placement> layout{
      {0, 0, 3, 2, 1}, {3, 0, 2, 1, 2}, {3, 1, 2, 1, 3}};
  for (int slots = 1; slots <= 6; ++slots) {
    for (int chans = 1; chans <= 3; ++chans) {
      const auto grown = grow_composite_anchored({5, 2}, layout, 2,
                                                 {slots, chans}, 16);
      ASSERT_TRUE(grown) << slots << "x" << chans;
      for (std::size_t i = 0; i < grown->layout.size(); ++i) {
        EXPECT_TRUE(grown->layout[i].inside(grown->box.slots,
                                            grown->box.channels));
        for (std::size_t j = i + 1; j < grown->layout.size(); ++j) {
          EXPECT_FALSE(grown->layout[i].overlaps(grown->layout[j]));
        }
      }
    }
  }
}

// ----------------------------------------------------- in-place adjust

TEST(AdjustInPlace, ZeroMoveWhenAdjacentSpaceExists) {
  // j at [0,3), sibling at [5,8) in a 10x1 box: growing j to 5 slots uses
  // the hole at [3,5) without touching the sibling.
  const std::vector<Placement> layout{{0, 0, 3, 1, 7}, {5, 0, 3, 1, 8}};
  const auto out = adjust_partition_layout({10, 1}, layout, 7, {5, 1});
  ASSERT_TRUE(out.success);
  EXPECT_TRUE(out.moved.empty());
  for (const auto& p : out.layout) {
    if (p.id == 7) {
      EXPECT_EQ(p.x, 0);
    }
    if (p.id == 8) {
      EXPECT_EQ(p.x, 5);
    }
  }
}

TEST(AdjustInPlace, LeftSideKeepsRightEdge) {
  // Downlink orientation: j at [5,8) grows left to 5 slots -> occupies
  // [3,8); sibling at [0,3) untouched.
  const std::vector<Placement> layout{{0, 0, 3, 1, 7}, {5, 0, 3, 1, 8}};
  const auto out =
      adjust_partition_layout({8, 1}, layout, 8, {5, 1}, GrowSide::kLeft);
  ASSERT_TRUE(out.success);
  EXPECT_TRUE(out.moved.empty());
  for (const auto& p : out.layout) {
    if (p.id == 8) {
      EXPECT_EQ(p.x, 3);
      EXPECT_EQ(p.right(), 8);
    }
  }
}

}  // namespace
}  // namespace harp::core
