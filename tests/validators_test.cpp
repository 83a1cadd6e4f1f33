// Focused tests for the validation oracles themselves — the functions the
// rest of the suite leans on must reject every class of violation.
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "harp/engine.hpp"
#include "harp/partition_alloc.hpp"
#include "harp/schedule.hpp"
#include "net/topology_gen.hpp"
#include "net/traffic.hpp"

namespace harp::core {
namespace {

net::SlotframeConfig frame() { return net::SlotframeConfig{}; }

struct Fixture {
  net::Topology topo = net::fig1_tree();
  std::vector<net::Task> tasks = net::uniform_echo_tasks(topo, 199);
  net::TrafficMatrix traffic = net::derive_traffic(topo, tasks, frame());
};

TEST(ScheduleValidator, AcceptsEngineOutput) {
  Fixture f;
  HarpEngine engine(f.topo, f.traffic, frame(), f.tasks);
  EXPECT_EQ(
      validate_schedule(f.topo, f.traffic, engine.schedule(), frame()), "");
}

TEST(ScheduleValidator, RejectsSizeMismatch) {
  Fixture f;
  Schedule tiny(3);
  EXPECT_NE(validate_schedule(f.topo, f.traffic, tiny, frame()), "");
}

TEST(ScheduleValidator, RejectsDoubleBookedCell) {
  Fixture f;
  HarpEngine engine(f.topo, f.traffic, frame(), f.tasks);
  Schedule s = engine.schedule();
  // Duplicate node 1's first uplink cell onto node 2's uplink.
  s.add_cell(2, Direction::kUp, s.cells(1, Direction::kUp).front());
  const auto err = validate_schedule(f.topo, f.traffic, s, frame());
  EXPECT_NE(err.find("assigned to both"), std::string::npos) << err;
}

TEST(ScheduleValidator, RejectsHalfDuplexViolation) {
  Fixture f;
  HarpEngine engine(f.topo, f.traffic, frame(), f.tasks);
  Schedule s = engine.schedule();
  // Same slot as node 1's uplink, different channel, on a link sharing
  // node 1 (its child node 4's uplink -> receiver is node 1).
  Cell clash = s.cells(1, Direction::kUp).front();
  clash.channel = (clash.channel + 5) % frame().num_channels;
  s.add_cell(4, Direction::kUp, clash);
  const auto err = validate_schedule(f.topo, f.traffic, s, frame());
  EXPECT_NE(err.find("half-duplex"), std::string::npos) << err;
}

TEST(ScheduleValidator, RejectsInsufficientCells) {
  Fixture f;
  HarpEngine engine(f.topo, f.traffic, frame(), f.tasks);
  Schedule s = engine.schedule();
  s.clear_link(3, Direction::kUp);
  const auto err = validate_schedule(f.topo, f.traffic, s, frame());
  EXPECT_NE(err.find("needs"), std::string::npos) << err;
  // ...unless sufficiency checking is off (baseline mode).
  Schedule empty(f.topo.size());
  EXPECT_EQ(validate_schedule(f.topo, f.traffic, empty, frame(), false), "");
}

TEST(ScheduleValidator, RejectsCellOutsideDataSubframe) {
  Fixture f;
  HarpEngine engine(f.topo, f.traffic, frame(), f.tasks);
  Schedule s = engine.schedule();
  s.add_cell(1, Direction::kUp, {frame().data_slots, 0});
  const auto err = validate_schedule(f.topo, f.traffic, s, frame());
  EXPECT_NE(err.find("outside the data sub-frame"), std::string::npos) << err;
}

TEST(PartitionValidator, AcceptsEngineOutput) {
  Fixture f;
  HarpEngine engine(f.topo, f.traffic, frame(), f.tasks);
  EXPECT_EQ(validate_partitions(f.topo, engine.interfaces(Direction::kUp),
                                engine.interfaces(Direction::kDown),
                                engine.partitions(), frame()),
            "");
}

TEST(PartitionValidator, DetectsMissingPartition) {
  Fixture f;
  HarpEngine engine(f.topo, f.traffic, frame(), f.tasks);
  PartitionTable broken = engine.partitions();
  broken.erase(Direction::kUp, 1, f.topo.link_layer(1));
  const auto err =
      validate_partitions(f.topo, engine.interfaces(Direction::kUp),
                          engine.interfaces(Direction::kDown), broken,
                          frame());
  EXPECT_NE(err.find("missing partition"), std::string::npos) << err;
}

TEST(PartitionValidator, DetectsOverlappingSchedulingPartitions) {
  Fixture f;
  HarpEngine engine(f.topo, f.traffic, frame(), f.tasks);
  PartitionTable broken = engine.partitions();
  // Move node 3's scheduling partition on top of node 1's.
  const int l1 = f.topo.link_layer(1);
  const int l3 = f.topo.link_layer(3);
  Partition p1 = broken.get(Direction::kUp, 1, l1);
  Partition p3 = broken.get(Direction::kUp, 3, l3);
  p3.slot = p1.slot;
  p3.channel = p1.channel;
  broken.set(Direction::kUp, 3, l3, p3);
  const auto err =
      validate_partitions(f.topo, engine.interfaces(Direction::kUp),
                          engine.interfaces(Direction::kDown), broken,
                          frame());
  EXPECT_NE(err.find("overlap"), std::string::npos) << err;
}

TEST(PartitionValidator, DetectsEscapedChildPartition) {
  Fixture f;
  HarpEngine engine(f.topo, f.traffic, frame(), f.tasks);
  PartitionTable broken = engine.partitions();
  // Node 7 is a child of 3 with a composed layer-3 partition; shove it
  // out of the parent's box.
  const int l = f.topo.link_layer(7);
  Partition p = broken.get(Direction::kUp, 7, l);
  ASSERT_FALSE(p.empty());
  p.slot = frame().data_slots - static_cast<SlotId>(p.comp.slots);
  p.channel = frame().num_channels - static_cast<ChannelId>(p.comp.channels);
  broken.set(Direction::kUp, 7, l, p);
  const auto err =
      validate_partitions(f.topo, engine.interfaces(Direction::kUp),
                          engine.interfaces(Direction::kDown), broken,
                          frame());
  EXPECT_FALSE(err.empty());
}

TEST(CollisionCounter, CountsAllConflictingEntries) {
  const auto topo = net::TopologyBuilder::from_parents({0, 0, 0});
  Schedule s(topo.size());
  s.add_cell(1, Direction::kUp, {0, 0});
  s.add_cell(2, Direction::kUp, {0, 0});  // exact-cell conflict with 1
  s.add_cell(3, Direction::kUp, {5, 0});  // clean
  EXPECT_EQ(count_colliding_entries(topo, s), 2u);
  // Receiver-side half-duplex: all three uplinks target the gateway; two
  // in the same slot conflict at it even on distinct channels.
  Schedule hd(topo.size());
  hd.add_cell(1, Direction::kUp, {0, 0});
  hd.add_cell(2, Direction::kUp, {0, 7});
  EXPECT_EQ(count_colliding_entries(topo, hd), 2u);
}

TEST(ScheduleContainer, EntriesAndTotals) {
  Schedule s(3);
  s.add_cell(1, Direction::kUp, {1, 2});
  s.add_cell(1, Direction::kDown, {3, 4});
  s.add_cell(2, Direction::kUp, {5, 6});
  EXPECT_EQ(s.total_cells(), 3u);
  s.set_cells(1, Direction::kUp, {{9, 9}, {10, 9}});
  EXPECT_EQ(s.cells(1, Direction::kUp).size(), 2u);
  s.clear_link(1, Direction::kUp);
  EXPECT_TRUE(s.cells(1, Direction::kUp).empty());
}

}  // namespace
}  // namespace harp::core
