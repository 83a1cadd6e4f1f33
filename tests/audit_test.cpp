// Mutation-style tests for the invariant audit layer (src/audit): seed
// each violation class the audits exist to catch — overlapping
// partitions, out-of-partition cells, corrupted composition layouts,
// lossy rollbacks, leaking queues — and assert the corresponding oracle
// rejects it, mirroring validators_test.cpp for the src/harp oracles.
#include <gtest/gtest.h>

#include "audit/audit.hpp"
#include "common/error.hpp"
#include "harp/engine.hpp"
#include "net/topology_gen.hpp"
#include "net/traffic.hpp"
#include "obs/obs.hpp"

namespace harp::audit {
namespace {

net::SlotframeConfig frame() { return net::SlotframeConfig{}; }

struct Fixture {
  net::Topology topo = net::fig1_tree();
  std::vector<net::Task> tasks = net::uniform_echo_tasks(topo, 199);
  net::TrafficMatrix traffic = net::derive_traffic(topo, tasks, frame());
  core::HarpEngine engine{topo, traffic, frame(), tasks};
};

TEST(AuditEngineState, AcceptsEngineOutput) {
  Fixture f;
  EXPECT_EQ(check_engine_state(f.topo, f.traffic, frame(),
                               f.engine.interfaces(Direction::kUp),
                               f.engine.interfaces(Direction::kDown),
                               f.engine.partitions(), f.engine.schedule()),
            "");
}

// ------------------------------------------------- partition violations

TEST(AuditPartitions, CatchesOverlappingPartitions) {
  Fixture f;
  core::PartitionTable broken = f.engine.partitions();
  const int l1 = f.topo.link_layer(1);
  const int l3 = f.topo.link_layer(3);
  core::Partition p3 = broken.get(Direction::kUp, 3, l3);
  const core::Partition p1 = broken.get(Direction::kUp, 1, l1);
  p3.slot = p1.slot;
  p3.channel = p1.channel;
  broken.set(Direction::kUp, 3, l3, p3);
  const auto err =
      check_partitions(f.topo, f.engine.interfaces(Direction::kUp),
                       f.engine.interfaces(Direction::kDown), broken,
                       frame());
  EXPECT_NE(err.find("overlap"), std::string::npos) << err;
}

// --------------------------------------------- schedule-vs-partitions

TEST(AuditScheduleInPartitions, AcceptsEngineOutput) {
  Fixture f;
  EXPECT_EQ(check_schedule_in_partitions(f.topo, f.engine.partitions(),
                                         f.engine.schedule()),
            "");
}

TEST(AuditScheduleInPartitions, CatchesOutOfPartitionCell) {
  Fixture f;
  core::Schedule s = f.engine.schedule();
  // Node 4's uplink is scheduled by its parent (node 1) inside node 1's
  // own-layer partition; plant a cell just outside that rectangle.
  const core::Partition part =
      f.engine.partitions().get(Direction::kUp, 1, f.topo.link_layer(1));
  ASSERT_FALSE(part.empty());
  const Cell outside = part.slot > 0
                           ? Cell{static_cast<SlotId>(part.slot - 1),
                                  part.channel}
                           : Cell{part.end_slot(), part.channel};
  ASSERT_FALSE(part.contains(outside));
  s.add_cell(4, Direction::kUp, outside);
  const auto err =
      check_schedule_in_partitions(f.topo, f.engine.partitions(), s);
  EXPECT_NE(err.find("outside the scheduling partition"), std::string::npos)
      << err;
}

TEST(AuditScheduleInPartitions, CatchesCellsWithoutPartition) {
  Fixture f;
  core::PartitionTable broken = f.engine.partitions();
  broken.erase(Direction::kUp, 1, f.topo.link_layer(1));
  const auto err =
      check_schedule_in_partitions(f.topo, broken, f.engine.schedule());
  EXPECT_NE(err.find("no scheduling partition"), std::string::npos) << err;
}

// -------------------------------------------------- layout corruption

TEST(AuditInterfaces, AcceptsEngineOutput) {
  Fixture f;
  EXPECT_EQ(
      check_interfaces(f.topo, f.engine.interfaces(Direction::kUp),
                       Direction::kUp),
      "");
  EXPECT_EQ(
      check_interfaces(f.topo, f.engine.interfaces(Direction::kDown),
                       Direction::kDown),
      "");
}

TEST(AuditInterfaces, CatchesComponentAboveOwnLayer) {
  Fixture f;
  core::InterfaceSet broken = f.engine.interfaces(Direction::kUp);
  // link_layer(4) is 3 in the fig. 1 tree; a layer-1 component claims
  // resources for links its subtree cannot contain.
  broken.set_component(4, 1, {1, 1});
  const auto err = check_interfaces(f.topo, broken, Direction::kUp);
  EXPECT_NE(err.find("above the node's own link layer"), std::string::npos)
      << err;
}

TEST(AuditInterfaces, CatchesLayoutOnOwnLayerComponent) {
  Fixture f;
  core::InterfaceSet broken = f.engine.interfaces(Direction::kUp);
  const int own = f.topo.link_layer(1);
  ASSERT_FALSE(broken.component(1, own).empty());
  broken.set_layout(1, own, {{0, 0, 1, 1, 4}});
  const auto err = check_interfaces(f.topo, broken, Direction::kUp);
  EXPECT_NE(err.find("carries a composition layout"), std::string::npos)
      << err;
}

TEST(AuditInterfaces, CatchesPlacementDimensionMismatch) {
  Fixture f;
  core::InterfaceSet broken = f.engine.interfaces(Direction::kUp);
  // Node 3 composes its children's layer-3 components (child 7 reports
  // one); shrink the placement so it no longer matches the child.
  const int layer = f.topo.link_layer(7);
  auto layout = broken.layout(3, layer);
  ASSERT_FALSE(layout.empty());
  layout.front().w += 1;
  broken.set_layout(3, layer, layout);
  const auto err = check_interfaces(f.topo, broken, Direction::kUp);
  EXPECT_NE(err.find("but the child reports"), std::string::npos) << err;
}

TEST(AuditInterfaces, CatchesChildMissingFromLayout) {
  Fixture f;
  core::InterfaceSet broken = f.engine.interfaces(Direction::kUp);
  const int layer = f.topo.link_layer(7);
  ASSERT_FALSE(broken.layout(3, layer).empty());
  broken.set_layout(3, layer, {});
  const auto err = check_interfaces(f.topo, broken, Direction::kUp);
  EXPECT_NE(err.find("missing from the layout"), std::string::npos) << err;
}

TEST(AuditInterfaces, CatchesPlacementEscapingComposite) {
  Fixture f;
  core::InterfaceSet broken = f.engine.interfaces(Direction::kUp);
  const int layer = f.topo.link_layer(7);
  const core::ResourceComponent comp = broken.component(3, layer);
  auto layout = broken.layout(3, layer);
  ASSERT_FALSE(layout.empty());
  layout.front().x = comp.slots;  // one column past the composite box
  broken.set_layout(3, layer, layout);
  const auto err = check_interfaces(f.topo, broken, Direction::kUp);
  EXPECT_NE(err.find("escapes the composite box"), std::string::npos) << err;
}

// ------------------------------------------------------------ rollback

TEST(AuditRollback, AcceptsIdenticalState) {
  Fixture f;
  EXPECT_EQ(check_restored(f.engine.interfaces(Direction::kUp),
                           f.engine.interfaces(Direction::kUp),
                           f.engine.partitions(), f.engine.partitions(),
                           f.engine.schedule(), f.engine.schedule()),
            "");
}

TEST(AuditRollback, CatchesEachLostTable) {
  Fixture f;
  const core::InterfaceSet ifs = f.engine.interfaces(Direction::kUp);
  const core::PartitionTable parts = f.engine.partitions();
  const core::Schedule sched = f.engine.schedule();

  core::InterfaceSet bad_ifs = ifs;
  bad_ifs.set_component(1, f.topo.link_layer(1), {99, 1});
  EXPECT_NE(check_restored(ifs, bad_ifs, parts, parts, sched, sched)
                .find("interface set"),
            std::string::npos);

  core::PartitionTable bad_parts = parts;
  bad_parts.erase(Direction::kUp, 1, f.topo.link_layer(1));
  EXPECT_NE(check_restored(ifs, ifs, parts, bad_parts, sched, sched)
                .find("partition table"),
            std::string::npos);

  core::Schedule bad_sched = sched;
  bad_sched.add_cell(1, Direction::kUp, {0, 0});
  EXPECT_NE(check_restored(ifs, ifs, parts, parts, sched, bad_sched)
                .find("schedule"),
            std::string::npos);
}

// -------------------------------------------------- queue conservation

TEST(AuditQueues, ConservationHoldsAndLeaksAreCaught) {
  EXPECT_EQ(check_queue_conservation(0, 0, 0, 0), "");
  EXPECT_EQ(check_queue_conservation(10, 4, 3, 3), "");
  // A packet vanished without being delivered, dropped or queued.
  const auto leak = check_queue_conservation(10, 4, 3, 2);
  EXPECT_NE(leak.find("queue conservation violated"), std::string::npos)
      << leak;
  // A packet materialised out of thin air.
  EXPECT_NE(check_queue_conservation(10, 4, 3, 4), "");
}

// ------------------------------------------------------- fail() plumbing

#ifndef HARP_ASSERT_ABORT
TEST(AuditFail, ThrowsAndEmitsTraceEvent) {
  if (!HARP_OBS_ENABLED) GTEST_SKIP() << "trace events compile out";
  auto& sink = obs::TraceSink::global();
  sink.enable(16);
  EXPECT_THROW(fail("audit.test_check", "seeded violation", 7), Error);
  const auto events = sink.snapshot();
  ASSERT_FALSE(events.empty());
  const obs::TraceEvent& e = events.back();
  EXPECT_EQ(e.type, obs::EventType::kAuditFail);
  EXPECT_STREQ(sink.phase_name(static_cast<std::uint16_t>(e.a)),
               "audit.test_check");
  EXPECT_EQ(e.b, 7u);
  sink.disable();
}

TEST(AuditFail, RequirePassesCleanResultAndRejectsViolation) {
  require("audit.test_check", "");  // no-op
  EXPECT_THROW(require("audit.test_check", "bad"), Error);
}
#endif  // HARP_ASSERT_ABORT

}  // namespace
}  // namespace harp::audit
