// Tests for the baseline schedulers (Random, MSF, LDSF), the HARP
// scheduler wrapper, the collision metric, and the APaS overhead model.
#include <gtest/gtest.h>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "net/topology_gen.hpp"
#include "schedulers/apas.hpp"
#include "schedulers/scheduler.hpp"

namespace harp::sched {
namespace {

net::SlotframeConfig frame() { return net::SlotframeConfig{}; }

net::TrafficMatrix uniform_demand(const net::Topology& topo, int cells) {
  net::TrafficMatrix m(topo.size());
  for (NodeId v = 1; v < topo.size(); ++v) {
    m.set_uplink(v, cells);
    m.set_downlink(v, cells);
  }
  return m;
}

void expect_demands_met(const net::Topology& topo,
                        const net::TrafficMatrix& traffic,
                        const core::Schedule& s) {
  for (NodeId v = 1; v < topo.size(); ++v) {
    EXPECT_GE(s.cells(v, Direction::kUp).size(),
              static_cast<std::size_t>(traffic.uplink(v)));
    EXPECT_GE(s.cells(v, Direction::kDown).size(),
              static_cast<std::size_t>(traffic.downlink(v)));
  }
}

void expect_in_data_subframe(const core::Schedule& s,
                             const net::SlotframeConfig& f) {
  for (NodeId child = 0; child < s.num_nodes(); ++child) {
    for (const Direction dir : {Direction::kUp, Direction::kDown}) {
      for (const Cell c : s.cells(child, dir)) {
        EXPECT_LT(c.slot, f.data_slots);
        EXPECT_LT(c.channel, f.num_channels);
      }
    }
  }
}

TEST(Baselines, NamesAreStable) {
  EXPECT_EQ(make_random_scheduler()->name(), "Random");
  EXPECT_EQ(make_msf_scheduler()->name(), "MSF");
  EXPECT_EQ(make_ldsf_scheduler()->name(), "LDSF");
  EXPECT_EQ(make_harp_scheduler()->name(), "HARP");
}

TEST(Baselines, AllAssignDemandedCellsInsideSubframe) {
  const auto topo = net::testbed_tree();
  const auto traffic = uniform_demand(topo, 2);
  using Maker = std::unique_ptr<Scheduler> (*)();
  for (Maker maker : {Maker{&make_random_scheduler}, Maker{&make_msf_scheduler},
                      Maker{&make_ldsf_scheduler}, Maker{&make_harp_scheduler}}) {
    Rng rng(7);
    const auto sched = maker();
    const auto s = sched->build(topo, traffic, frame(), rng);
    expect_demands_met(topo, traffic, s);
    expect_in_data_subframe(s, frame());
  }
}

TEST(Baselines, MsfIsDeterministic) {
  const auto topo = net::testbed_tree();
  const auto traffic = uniform_demand(topo, 3);
  Rng rng1(1), rng2(999);
  const auto sched = make_msf_scheduler();
  const auto a = sched->build(topo, traffic, frame(), rng1);
  const auto b = sched->build(topo, traffic, frame(), rng2);
  for (NodeId v = 1; v < topo.size(); ++v) {
    EXPECT_EQ(a.cells(v, Direction::kUp), b.cells(v, Direction::kUp));
  }
}

TEST(Baselines, RandomSchedulerVariesWithSeed) {
  const auto topo = net::testbed_tree();
  const auto traffic = uniform_demand(topo, 3);
  Rng rng1(1), rng2(2);
  const auto sched = make_random_scheduler();
  const auto a = sched->build(topo, traffic, frame(), rng1);
  const auto b = sched->build(topo, traffic, frame(), rng2);
  bool any_diff = false;
  for (NodeId v = 1; v < topo.size() && !any_diff; ++v) {
    any_diff = a.cells(v, Direction::kUp) != b.cells(v, Direction::kUp);
  }
  EXPECT_TRUE(any_diff);
}

TEST(Baselines, LdsfRespectsLayerBlocks) {
  const auto topo = net::testbed_tree();
  const auto traffic = uniform_demand(topo, 1);
  Rng rng(3);
  const auto s = make_ldsf_scheduler()->build(topo, traffic, frame(), rng);
  // A deeper-layer uplink cell must come no later than a shallower one's
  // block: verify layer-5 uplinks all precede layer-1 uplinks in time.
  SlotId latest_l5 = 0, earliest_l1 = frame().data_slots;
  for (NodeId v = 1; v < topo.size(); ++v) {
    for (Cell c : s.cells(v, Direction::kUp)) {
      if (topo.node_layer(v) == 5) latest_l5 = std::max(latest_l5, c.slot);
      if (topo.node_layer(v) == 1) earliest_l1 = std::min(earliest_l1, c.slot);
    }
  }
  EXPECT_LT(latest_l5, earliest_l1);
}

TEST(CollisionMetric, ZeroForDisjointSchedule) {
  const auto topo = net::TopologyBuilder::from_parents({0, 0});
  core::Schedule s(topo.size());
  s.add_cell(1, Direction::kUp, {0, 0});
  s.add_cell(2, Direction::kUp, {1, 0});
  EXPECT_DOUBLE_EQ(collision_probability(topo, s), 0.0);
}

TEST(CollisionMetric, DetectsExactCellConflict) {
  const auto topo = net::TopologyBuilder::from_parents({0, 0});
  core::Schedule s(topo.size());
  s.add_cell(1, Direction::kUp, {0, 0});
  s.add_cell(2, Direction::kUp, {0, 0});
  EXPECT_DOUBLE_EQ(collision_probability(topo, s), 1.0);
}

TEST(CollisionMetric, DetectsHalfDuplexConflict) {
  // Chain 0-1-2: link (2->1) and (1->0) share node 1; same slot on
  // different channels still collides at node 1.
  const auto topo = net::TopologyBuilder::from_parents({0, 1});
  core::Schedule s(topo.size());
  s.add_cell(1, Direction::kUp, {0, 0});
  s.add_cell(2, Direction::kUp, {0, 5});
  EXPECT_DOUBLE_EQ(collision_probability(topo, s), 1.0);
}

TEST(CollisionMetric, EmptyScheduleIsZero) {
  const auto topo = net::fig1_tree();
  EXPECT_DOUBLE_EQ(collision_probability(topo, core::Schedule(topo.size())),
                   0.0);
}

TEST(HarpScheduler, CollisionFreeWhenAdmissible) {
  const auto topo = net::testbed_tree();
  const auto traffic = uniform_demand(topo, 2);
  Rng rng(5);
  const auto s = make_harp_scheduler()->build(topo, traffic, frame(), rng);
  EXPECT_DOUBLE_EQ(collision_probability(topo, s), 0.0);
}

TEST(HarpScheduler, DegradesGracefullyWhenChannelsAreScarce) {
  const auto topo = net::testbed_tree();
  const auto traffic = uniform_demand(topo, 3);
  net::SlotframeConfig f = frame();
  f.num_channels = 2;
  Rng rng(5), rng2(5);
  const auto harp = make_harp_scheduler()->build(topo, traffic, f, rng);
  const auto rnd = make_random_scheduler()->build(topo, traffic, f, rng2);
  expect_demands_met(topo, traffic, harp);
  // Degraded HARP may collide, but far less than the random baseline.
  EXPECT_LT(collision_probability(topo, harp),
            collision_probability(topo, rnd));
}

TEST(HarpScheduler, BaselinesCollideAtHighRateHarpDoesNot) {
  Rng topo_rng(11);
  const auto topo =
      net::random_tree({.num_nodes = 50, .num_layers = 5}, topo_rng);
  const auto traffic = uniform_demand(topo, 4);
  Rng r1(1), r2(2), r3(3), r4(4);
  const auto f = frame();
  EXPECT_GT(collision_probability(
                topo, make_random_scheduler()->build(topo, traffic, f, r1)),
            0.0);
  EXPECT_GT(collision_probability(
                topo, make_msf_scheduler()->build(topo, traffic, f, r2)),
            0.0);
  EXPECT_GT(collision_probability(
                topo, make_ldsf_scheduler()->build(topo, traffic, f, r3)),
            0.0);
  EXPECT_DOUBLE_EQ(collision_probability(
                       topo, make_harp_scheduler()->build(topo, traffic, f, r4)),
                   0.0);
}

// ------------------------------------------------------------------ APaS

TEST(Apas, StaticScheduleIsCollisionFree) {
  const auto topo = net::testbed_tree();
  ApasScheduler apas(topo, uniform_demand(topo, 1), frame());
  EXPECT_DOUBLE_EQ(collision_probability(topo, apas.schedule()), 0.0);
}

TEST(Apas, AdjustmentCostIsThreeLMinusOne) {
  const auto topo = net::testbed_tree();
  ApasScheduler apas(topo, uniform_demand(topo, 1), frame());
  // Pick nodes at known layers and verify the 3l-1 hop pattern.
  for (NodeId child : {1u, 5u, 15u, 30u, 43u}) {
    const int l = topo.node_layer(child);
    const int cur = apas.traffic().uplink(child);
    const auto r = apas.request_demand(child, Direction::kUp, cur + 1);
    ASSERT_TRUE(r.satisfied) << child;
    EXPECT_EQ(r.packets(), 3 * l - 1) << "layer " << l;
  }
}

TEST(Apas, NoChangeCostsNothing) {
  const auto topo = net::fig1_tree();
  ApasScheduler apas(topo, uniform_demand(topo, 1), frame());
  const auto r =
      apas.request_demand(3, Direction::kUp, apas.traffic().uplink(3));
  EXPECT_TRUE(r.satisfied);
  EXPECT_EQ(r.packets(), 0);
}

TEST(Apas, RejectionStillRoundTrips) {
  const auto topo = net::fig1_tree();
  ApasScheduler apas(topo, uniform_demand(topo, 1), frame());
  const auto r = apas.request_demand(5, Direction::kUp, 10000);
  EXPECT_FALSE(r.satisfied);
  EXPECT_EQ(r.packets(), 2 * topo.node_layer(5));
}

TEST(Apas, HopsFollowTreeEdges) {
  const auto topo = net::testbed_tree();
  ApasScheduler apas(topo, uniform_demand(topo, 1), frame());
  const auto r = apas.request_demand(43, Direction::kUp, 2);
  ASSERT_TRUE(r.satisfied);
  for (const Hop& h : r.hops) {
    EXPECT_TRUE(topo.parent(h.from) == h.to || topo.parent(h.to) == h.from);
  }
}

}  // namespace
}  // namespace harp::sched
