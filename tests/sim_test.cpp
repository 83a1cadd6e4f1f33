// Tests for the TSCH data plane, the management plane and its rt
// transport (MgmtChannel), and the combined HarpSimulation facade (the
// software testbed).
#include <gtest/gtest.h>

#include "common/error.hpp"
#include "common/hash.hpp"
#include "harp/engine.hpp"
#include "net/topology_gen.hpp"
#include "net/traffic.hpp"
#include "rt/dispatcher.hpp"
#include "rt/runtime.hpp"
#include "sim/harp_sim.hpp"

namespace harp::sim {
namespace {

net::SlotframeConfig frame() { return net::SlotframeConfig{}; }

// ------------------------------------------------------------- data plane

// A 2-hop chain 0 <- 1 <- 2 with a hand-built schedule.
struct Chain {
  net::Topology topo = net::TopologyBuilder::from_parents({0, 1});
  std::vector<net::Task> tasks;
  Chain() {
    tasks.push_back({.id = 2, .source = 2, .period_slots = 199, .echo = false});
  }
};

TEST(DataPlane, DeliversCollectTaskAlongChain) {
  Chain c;
  DataPlane sim(c.topo, c.tasks, {frame(), 1.0, 128}, 1);
  core::Schedule s(c.topo.size());
  s.add_cell(2, Direction::kUp, {5, 0});   // 2 -> 1 at slot 5
  s.add_cell(1, Direction::kUp, {10, 0});  // 1 -> 0 at slot 10
  sim.set_schedule(s);
  sim.run_frames(3);
  // One packet per frame, delivered within the same frame (gen at slot 0,
  // hop at 5, delivered at 10 -> latency 11 slots = 0.11 s).
  EXPECT_EQ(sim.metrics().total_delivered(), 3u);
  EXPECT_NEAR(sim.metrics().node_latency(2).mean(), 0.11, 1e-9);
}

TEST(DataPlane, EchoTaskRoundTrips) {
  Chain c;
  c.tasks[0].echo = true;
  DataPlane sim(c.topo, c.tasks, {frame(), 1.0, 128}, 1);
  core::Schedule s(c.topo.size());
  s.add_cell(2, Direction::kUp, {5, 0});
  s.add_cell(1, Direction::kUp, {10, 0});
  s.add_cell(1, Direction::kDown, {20, 1});
  s.add_cell(2, Direction::kDown, {30, 1});
  sim.set_schedule(s);
  sim.run_frames(2);
  EXPECT_EQ(sim.metrics().total_delivered(), 2u);
  EXPECT_NEAR(sim.metrics().node_latency(2).mean(), 0.31, 1e-9);
}

TEST(DataPlane, OutOfOrderCellsAddOneFrame) {
  // Uplink cell of hop 2 comes BEFORE hop 1's cell in the frame: the
  // packet needs a second frame (non-compliant schedule penalty).
  Chain c;
  DataPlane sim(c.topo, c.tasks, {frame(), 1.0, 128}, 1);
  core::Schedule s(c.topo.size());
  s.add_cell(2, Direction::kUp, {50, 0});
  s.add_cell(1, Direction::kUp, {10, 0});  // earlier than hop 1!
  sim.set_schedule(s);
  sim.run_frames(3);
  ASSERT_GE(sim.metrics().total_delivered(), 2u);
  // Latency = 199 + 11 - 50... exactly: gen at 0, hop at 50, next frame
  // hop at 199+10=209 -> 210 slots -> 2.10 s.
  EXPECT_NEAR(sim.metrics().node_latency(2).mean(), 2.10, 1e-9);
}

TEST(DataPlane, CollidingCellsBlockDelivery) {
  // Two children of the gateway scheduled in the SAME cell: both always
  // fail, nothing is ever delivered, queues build up.
  auto topo = net::TopologyBuilder::from_parents({0, 0});
  std::vector<net::Task> tasks{
      {.id = 1, .source = 1, .period_slots = 199, .echo = false},
      {.id = 2, .source = 2, .period_slots = 199, .echo = false}};
  DataPlane sim(topo, tasks, {frame(), 1.0, 128}, 1);
  core::Schedule s(topo.size());
  s.add_cell(1, Direction::kUp, {5, 0});
  s.add_cell(2, Direction::kUp, {5, 0});
  sim.set_schedule(s);
  sim.run_frames(5);
  EXPECT_EQ(sim.metrics().total_delivered(), 0u);
  EXPECT_EQ(sim.backlog(), 10u);
}

TEST(DataPlane, HalfDuplexConflictBlocksBothLinks) {
  // Chain: cells for (2->1) and (1->0) in the same slot on different
  // channels share node 1 -> neither may proceed.
  Chain c;
  DataPlane sim(c.topo, c.tasks, {frame(), 1.0, 128}, 1);
  core::Schedule s(c.topo.size());
  s.add_cell(2, Direction::kUp, {5, 0});
  s.add_cell(1, Direction::kUp, {5, 3});
  sim.set_schedule(s);
  sim.run_frames(4);
  EXPECT_EQ(sim.metrics().total_delivered(), 0u);
}

TEST(DataPlane, IdleCellDoesNotConflict) {
  // Node 1's uplink cell shares the slot with node 2's, but node 1 has no
  // traffic of its own until node 2's packet arrives — since node 2's
  // packet arrives in a LATER frame slot, slot sharing is harmless only
  // when one of them is idle. Here node 1 queue is empty in slot 5 of the
  // first frame... but receives the packet in the same slot, so in frame 2
  // both are active -> both blocked. Verify the subtle semantics: with
  // demand only from node 2 and node 1 forwarding, a shared slot
  // deadlocks from frame 2 onward.
  Chain c;
  DataPlane sim(c.topo, c.tasks, {frame(), 1.0, 128}, 1);
  core::Schedule s(c.topo.size());
  s.add_cell(2, Direction::kUp, {5, 0});
  s.add_cell(1, Direction::kUp, {5, 1});
  sim.set_schedule(s);
  sim.run_frames(1);
  EXPECT_EQ(sim.metrics().total_delivered(), 0u);  // pkt sits at node 1
  sim.run_frames(3);
  EXPECT_EQ(sim.metrics().total_delivered(), 0u);  // deadlocked
  EXPECT_GE(sim.backlog(), 4u);
}

TEST(DataPlane, LossyLinkRetries) {
  Chain c;
  DataPlane sim(c.topo, c.tasks, {frame(), 0.5, 128}, 42);
  core::Schedule s(c.topo.size());
  // Several cells per hop so retries can happen within a frame.
  for (SlotId k = 0; k < 8; ++k) s.add_cell(2, Direction::kUp, {5 + k, 0});
  for (SlotId k = 0; k < 8; ++k) s.add_cell(1, Direction::kUp, {50 + k, 0});
  sim.set_schedule(s);
  sim.run_frames(20);
  // With PDR 0.5 and 8 tries per hop per frame, virtually everything gets
  // through, just later.
  EXPECT_GE(sim.metrics().total_delivered(), 18u);
  EXPECT_GT(sim.metrics().node_latency(2).mean(), 0.0);
}

TEST(DataPlane, QueueOverflowDrops) {
  Chain c;
  c.tasks[0].period_slots = 10;  // ~20 pkts per frame, no schedule at all
  DataPlane sim(c.topo, c.tasks, {frame(), 1.0, 4}, 1);
  sim.set_schedule(core::Schedule(c.topo.size()));
  sim.run_frames(2);
  EXPECT_GT(sim.metrics().dropped(2), 0u);
  EXPECT_LE(sim.backlog(), 4u);
}

TEST(DataPlane, BacklogOfTaskFiltersCorrectly) {
  auto topo = net::TopologyBuilder::from_parents({0, 0});
  std::vector<net::Task> tasks{
      {.id = 1, .source = 1, .period_slots = 199, .echo = false},
      {.id = 2, .source = 2, .period_slots = 199, .echo = false}};
  DataPlane sim(topo, tasks, {frame(), 1.0, 128}, 1);
  sim.set_schedule(core::Schedule(topo.size()));  // nothing moves
  sim.run_frames(3);
  EXPECT_EQ(sim.backlog_of_task(1), 3u);
  EXPECT_EQ(sim.backlog_of_task(2), 3u);
  EXPECT_EQ(sim.backlog(), 6u);
}

TEST(DataPlane, RejectsBadConfig) {
  Chain c;
  EXPECT_THROW(DataPlane(c.topo, c.tasks, {frame(), 1.5, 128}, 1),
               InvalidArgument);
  auto bad_tasks = c.tasks;
  bad_tasks[0].period_slots = 0;
  EXPECT_THROW(DataPlane(c.topo, bad_tasks, {frame(), 1.0, 128}, 1),
               InvalidArgument);
  bad_tasks = c.tasks;
  bad_tasks[0].source = 0;
  EXPECT_THROW(DataPlane(c.topo, bad_tasks, {frame(), 1.0, 128}, 1),
               InvalidArgument);
}

// ------------------------------------------------------------- mgmt plane

/// Folds every delivery record of the plane's log into an FNV digest.
std::uint64_t fold_log(std::uint64_t h, const MgmtPlane& mgmt) {
  for (const MgmtPlane::Record& r : mgmt.log()) {
    h = fnv1a_u64(h, static_cast<std::uint64_t>(r.type));
    h = fnv1a_u64(h, r.from);
    h = fnv1a_u64(h, r.to);
    h = fnv1a_u64(h, r.sent);
    h = fnv1a_u64(h, r.delivered);
    h = fnv1a_u64(h, r.bytes);
  }
  return h;
}

TEST(MgmtPlane, DeliversOverOwnTxCell) {
  const auto topo = net::fig1_tree();
  const auto tasks = net::uniform_echo_tasks(topo, 199);
  HarpSimulation sim(topo, tasks, {frame(), 1.0, 1});
  const AbsoluteSlot took = sim.bootstrap();
  // Bootstrap requires several management exchanges; it cannot be
  // instantaneous but must finish within a couple dozen slotframes.
  EXPECT_GT(took, 0u);
  EXPECT_LE(took, 20u * frame().length);
  EXPECT_FALSE(sim.mgmt().busy());
  EXPECT_GT(sim.mgmt().log().size(), 0u);
  for (const auto& r : sim.mgmt().log()) {
    EXPECT_GE(r.delivered, r.sent);
    // Deliveries happen in the management sub-frame only.
    EXPECT_GE(r.delivered % frame().length, frame().data_slots);
  }
}

TEST(MgmtPlane, TxSlotsAreInMgmtSubframe) {
  const auto topo = net::testbed_tree();
  MgmtPlane mgmt(frame());
  for (NodeId v = 0; v < topo.size(); ++v) {
    EXPECT_GE(mgmt.tx_slot(v), frame().data_slots);
    EXPECT_LT(mgmt.tx_slot(v), frame().length);
  }
}

TEST(MgmtPlane, RejectsEmptyMgmtSubframe) {
  net::SlotframeConfig f = frame();
  f.data_slots = f.length;
  EXPECT_THROW(MgmtPlane{f}, InvalidArgument);
}

TEST(MgmtPlane, NextDepartureMatchesTxCellArithmetic) {
  MgmtPlane plane(frame());
  EXPECT_EQ(plane.next_departure_after(0), MgmtPlane::kNoDeparture);

  proto::Message msg;
  msg.type = proto::MsgType::kPostIntf;
  msg.src = 3;
  msg.dst = 1;
  plane.send(msg, 0);
  const AbsoluteSlot dep = plane.next_departure_after(0);
  ASSERT_NE(dep, MgmtPlane::kNoDeparture);
  EXPECT_EQ(static_cast<SlotId>(dep % frame().length), plane.tx_slot(3));
  // Strictly after `t`: asking from the departure slot itself must yield
  // the next slotframe's cell.
  EXPECT_EQ(plane.next_departure_after(dep), dep + frame().length);
}

TEST(MgmtChannel, FollowUpDepartingInTheSameSlotLeavesNoTimer) {
  // Nodes 1 and 33 share a TX cell (32 management slots). Node 33 answers
  // node 1's message at once; the answer departs in the same slot, which
  // drains the plane. The slot hook must see that slot and the drain,
  // and no timer may stay armed for node 33's next cell.
  rt::Dispatcher d;
  MgmtPlane plane(frame());
  ASSERT_EQ(plane.tx_slot(1), plane.tx_slot(33));
  std::vector<AbsoluteSlot> hooked;
  MgmtChannel ch(d, plane, [&hooked](AbsoluteSlot t) { hooked.push_back(t); });
  const auto packet = [](NodeId src, NodeId dst) {
    rt::Packet p;
    p.src = src;
    p.dst = dst;
    p.msg.src = src;
    p.msg.dst = dst;
    return p;
  };
  ch.attach(0, [](const rt::Packet&) {});
  ch.attach(33, [&](const rt::Packet&) { ch.send(packet(33, 0)); });
  ch.send(packet(1, 33));
  d.run_until_idle();

  const AbsoluteSlot slot = plane.tx_slot(1);
  ASSERT_EQ(plane.log().size(), 2u);
  EXPECT_EQ(plane.log()[1].delivered, slot);
  EXPECT_EQ(hooked, (std::vector<AbsoluteSlot>{slot, slot + 1}));
  EXPECT_EQ(d.now(), slot);
  EXPECT_TRUE(d.idle());
}

TEST(RtRuntime, MgmtChannelReproducesTheLockstepSimulatorExactly) {
  // ProtoRuntime over a bare MgmtChannel (no slot hook) on a dispatcher
  // whose tick is one absolute slot. The literals were recorded from the
  // former lockstep simulator, which stepped the plane slot by slot: its
  // delivery log, the slot of its last departure, and its final state.
  const auto topo = net::testbed_tree();
  const auto tasks = net::uniform_echo_tasks(topo, frame().length);
  const auto traffic = net::derive_traffic(topo, tasks, frame());
  rt::Dispatcher d;
  MgmtPlane plane(frame());
  MgmtChannel ch(d, plane);
  rt::ProtoRuntime runtime(topo, traffic, frame(), d, ch, tasks, 0,
                           rt::RuntimeOptions{.arq = {.enabled = false}});
  runtime.bootstrap();

  EXPECT_FALSE(plane.busy());
  EXPECT_EQ(plane.log().size(), 164u);
  EXPECT_EQ(fold_log(kFnvOffset, plane), 0xd5def65986f1a45cULL);
  EXPECT_EQ(d.now(), 3156u);  // the virtual clock ends on the last TX slot
  core::HarpEngine engine(topo, traffic, frame(), tasks);
  EXPECT_EQ(runtime.fingerprint(),
            rt::state_fingerprint(engine.partitions(), engine.schedule()));
  EXPECT_EQ(runtime.fingerprint(), 0xb9009b3542c27290ULL);
}

// ----------------------------------------------------------- harp_sim e2e

TEST(HarpSimulation, StaticLatencyStaysNearOneSlotframe) {
  const auto topo = net::testbed_tree();
  const auto tasks = net::uniform_echo_tasks(topo, 199);
  HarpSimulation sim(topo, tasks, {frame(), 1.0, 7});
  sim.bootstrap();
  sim.run_frames(60);
  // Every node's echo task must be flowing with latency around one
  // slotframe (1.99 s); allow up to two frames for deep nodes.
  for (NodeId v = 1; v < topo.size(); ++v) {
    const auto& lat = sim.metrics().node_latency(v);
    ASSERT_GT(lat.count(), 40u) << "node " << v;
    EXPECT_LE(lat.mean(), 2 * frame().frame_seconds()) << "node " << v;
  }
  // No systematic queue growth in a feasible static network.
  EXPECT_LE(sim.data().backlog(), topo.size());
}

TEST(HarpSimulation, ScheduleMatchesEngineAfterBootstrap) {
  const auto topo = net::testbed_tree();
  const auto tasks = net::uniform_echo_tasks(topo, 199);
  HarpSimulation sim(topo, tasks, {frame(), 1.0, 7});
  sim.bootstrap();
  core::HarpEngine engine(topo, tasks, frame());
  const auto sim_sched = sim.current_schedule();
  for (NodeId v = 1; v < topo.size(); ++v) {
    for (Direction dir : {Direction::kUp, Direction::kDown}) {
      EXPECT_EQ(sim_sched.cells(v, dir), engine.schedule().cells(v, dir));
    }
  }
}

TEST(HarpSimulation, LocalAdjustmentIsFastAndQuiet) {
  const auto topo = net::testbed_tree();
  const auto tasks = net::uniform_echo_tasks(topo, 199);
  HarpSimulation sim(topo, tasks, {frame(), 1.0, 7});
  sim.bootstrap();
  sim.run_frames(5);
  // Decrease = local release: zero HARP messages.
  const auto s = sim.change_link_demand(49, Direction::kUp, 0);
  EXPECT_EQ(s.harp_messages, 0u);
}

TEST(HarpSimulation, EscalatedAdjustmentTakesSlotframes) {
  const auto topo = net::testbed_tree();
  const auto tasks = net::uniform_echo_tasks(topo, 199);
  HarpSimulation sim(topo, tasks, {frame(), 1.0, 7});
  sim.bootstrap();
  sim.run_frames(5);
  const auto s = sim.change_link_demand(49, Direction::kUp, 3);
  EXPECT_GE(s.harp_messages, 2u);        // at least PUT-intf + PUT-part
  EXPECT_GE(s.elapsed_slotframes, 1u);   // real management latency
  EXPECT_GE(s.nodes.size(), 2u);
  EXPECT_GT(s.bytes, 0u);
  // The new reservation is live in the data plane.
  const auto sched = sim.current_schedule();
  EXPECT_GE(sched.cells(49, Direction::kUp).size(), 3u);
}

TEST(HarpSimulation, RateIncreaseCausesSpikeThenRecovery) {
  // A roomy slotframe so tripling one deep task's rate stays admissible
  // (in the default 167-slot data sub-frame this exact scenario is
  // correctly REJECTED — covered by the next test).
  net::SlotframeConfig f;
  f.length = 399;
  f.data_slots = 350;
  const auto topo = net::testbed_tree();
  const auto tasks = net::uniform_echo_tasks(topo, 399);
  HarpSimulation::Options opts{f, 1.0, 64};
  opts.own_slack = 2;  // idle cells per partition: growth resolves locally
                       // and the backlog built during adjustment drains
  HarpSimulation sim(topo, tasks, opts);
  sim.bootstrap();
  sim.run_frames(30);

  // Raise node 49's task to ~2.5 packets/slotframe (period 399 -> 160).
  // The fractional rate means ceil'd reservations leave spare service,
  // like the paper's 1.5 pkt/sf step, so the transient backlog drains.
  // (An exactly-integral rate would plateau: arrival == service.)
  sim.change_task_rate(49, 160);
  // Let the backlog built during the adjustment window drain, then
  // measure steady state.
  sim.run_frames(120);
  sim.data().metrics().clear();
  sim.run_frames(40);
  const double after = sim.metrics().node_latency(49).median();
  // After the adjustment settles, the higher-rate task still meets
  // roughly slotframe-scale latency (no unbounded queueing).
  EXPECT_LE(after, 3 * f.frame_seconds());
  EXPECT_GT(sim.metrics().node_latency(49).count(), 60u);  // ~3x packets
  // Reservations along the whole path grew to carry the extra load.
  const auto sched = sim.current_schedule();
  for (NodeId v : topo.path_to_gateway(49)) {
    if (v == 0) continue;
    EXPECT_GE(sched.cells(v, Direction::kUp).size(), 2u) << v;
  }
}

TEST(HarpSimulation, InadmissibleRateIncreaseIsRejectedConsistently) {
  // With the default tight data sub-frame, tripling a layer-5 task's rate
  // cannot be fully admitted: HARP must deny the overflowing link
  // reservations, roll its control state back, and keep operating.
  const auto topo = net::testbed_tree();
  const auto tasks = net::uniform_echo_tasks(topo, 199);
  HarpSimulation sim(topo, tasks, {frame(), 1.0, 64});
  sim.bootstrap();
  sim.run_frames(5);
  const auto summary = sim.change_task_rate(49, 66);
  EXPECT_GT(summary.harp_messages, 0u);
  // The leaf link itself was granted; some upstream link was denied, so
  // at least one reservation is below the ceil'd demand. Control plane
  // must be quiescent and consistent regardless.
  EXPECT_FALSE(sim.mgmt().busy());
  for (NodeId v = 1; v < topo.size(); ++v) {
    EXPECT_FALSE(sim.agent(v).adjustment_pending()) << v;
  }
  sim.run_frames(5);  // still ticking
}

// ------------------------------------------------ pinned protocol timing
//
// Literal pins of the management plane's exact behaviour: which messages
// travel, when they are queued and when their TX cell fires, and what the
// data plane delivers around them. Any change to how agents are driven
// must leave every literal here untouched.

net::SlotframeConfig testbed_frame() {
  net::SlotframeConfig f;
  f.data_slots = 190;  // the Table II setup
  return f;
}

std::uint64_t fold_data(std::uint64_t h, DataPlane& data) {
  const LatencyRecorder& m = data.metrics();
  for (const Delivery& d : m.deliveries()) {
    h = fnv1a_u64(h, d.task);
    h = fnv1a_u64(h, d.source);
    h = fnv1a_u64(h, d.created);
    h = fnv1a_u64(h, d.delivered);
    h = fnv1a_u64(h, d.met_deadline ? 1 : 0);
  }
  h = fnv1a_u64(h, m.total_generated());
  h = fnv1a_u64(h, m.total_dropped());
  h = fnv1a_u64(h, data.backlog());
  return fnv1a_u64(h, data.now());
}

TEST(HarpSimulation, TableTwoEventTimingIsPinned) {
  const auto topo = net::testbed_tree();
  const net::SlotframeConfig f = testbed_frame();
  HarpSimulation::Options opts{f};
  opts.own_slack = 1;
  opts.seed = 2;
  HarpSimulation sim(topo, net::uniform_echo_tasks(topo, f.length), opts);
  EXPECT_EQ(sim.bootstrap(), 2981u);
  sim.run_frames(5);

  const struct {
    NodeId node;
    Direction dir;
    int delta;
    std::size_t harp_messages;
    std::size_t nodes;
    int layers;
    AbsoluteSlot slotframes;
    AbsoluteSlot slots;
  } events[] = {
      {5, Direction::kUp, 3, 4, 5, 3, 4, 599},
      {22, Direction::kUp, 2, 9, 10, 4, 5, 995},
      {3, Direction::kUp, 6, 2, 4, 2, 3, 597},
      {10, Direction::kDown, 2, 2, 3, 2, 2, 397},
      {40, Direction::kUp, 2, 8, 6, 5, 5, 800},
      {30, Direction::kUp, 2, 8, 6, 5, 5, 995},
  };
  for (const auto& e : events) {
    const NodeId child = topo.children(e.node).front();
    const int cur = sim.agent(e.node).child_demand(child, e.dir);
    const auto s = sim.change_link_demand(child, e.dir, cur + e.delta);
    EXPECT_EQ(s.harp_messages, e.harp_messages) << "node " << e.node;
    EXPECT_EQ(s.nodes.size(), e.nodes) << "node " << e.node;
    EXPECT_EQ(s.layers, e.layers) << "node " << e.node;
    EXPECT_EQ(s.elapsed_slotframes, e.slotframes) << "node " << e.node;
    EXPECT_EQ(s.last_delivered - s.first_sent + 1, e.slots)
        << "node " << e.node;
    sim.run_frames(3);
  }
  EXPECT_EQ(sim.now(), 11935u);
}

TEST(HarpSimulation, ScriptedLossySessionDigestIsPinned) {
  // A testbed50-style session at PDR 0.95: bootstrap, Table II growth and
  // its release, a task-rate change and its revert, join -> roam ->
  // leave, and one request the gateway refuses. Every management record
  // and every data-plane delivery is folded into one digest.
  const auto topo = net::testbed_tree();
  const net::SlotframeConfig f = testbed_frame();
  HarpSimulation::Options opts{f};
  opts.own_slack = 1;
  opts.pdr = 0.95;
  opts.seed = 5;
  HarpSimulation sim(topo, net::uniform_echo_tasks(topo, f.length), opts);
  std::uint64_t h = kFnvOffset;
  h = fnv1a_u64(h, sim.bootstrap());
  h = fold_log(h, sim.mgmt());
  sim.run_frames(5);

  const auto op = [&](const MgmtPlane::Summary& s) {
    h = fold_log(h, sim.mgmt());
    h = fnv1a_u64(h, s.harp_messages);
    h = fnv1a_u64(h, sim.now());
    sim.run_frames(1);
  };
  const struct {
    NodeId node;
    Direction dir;
    int delta;
  } events[] = {{5, Direction::kUp, 3},   {22, Direction::kUp, 2},
                {3, Direction::kUp, 6},   {10, Direction::kDown, 2},
                {40, Direction::kUp, 2},  {30, Direction::kUp, 2}};
  std::vector<int> before;
  for (const auto& e : events) {
    const NodeId child = topo.children(e.node).front();
    before.push_back(sim.agent(e.node).child_demand(child, e.dir));
    op(sim.change_link_demand(child, e.dir, before.back() + e.delta));
  }
  for (std::size_t i = 0; i < std::size(events); ++i) {
    const NodeId child = topo.children(events[i].node).front();
    op(sim.change_link_demand(child, events[i].dir, before[i]));
  }
  op(sim.change_task_rate(17, f.length / 2));
  op(sim.change_task_rate(17, f.length));
  const auto joined = sim.join_node(15, 1, 1, f.length);
  op(joined.summary);
  op(sim.roam_node(joined.node, 16));
  op(sim.leave_node(joined.node));
  const NodeId parent = topo.parent(49);
  const int cur = sim.agent(parent).child_demand(49, Direction::kUp);
  op(sim.change_link_demand(49, Direction::kUp, 4000));
  EXPECT_EQ(sim.agent(parent).child_demand(49, Direction::kUp), cur);
  sim.run_frames(4);
  h = fold_data(h, sim.data());

  EXPECT_EQ(sim.now(), 24475u);
  EXPECT_EQ(h, 0xe6a60ee2c671b6a3ULL);
}

#ifndef HARP_ASSERT_ABORT
TEST(HarpSimulation, TimedOutOperationThrowsAndALaterOneFinishesIt) {
  // A multi-layer climb cannot finish within one slotframe: the call
  // throws, leaving messages queued. The next operation (here a no-op
  // demand change) delivers them, and the network converges to the
  // centralized oracle.
  const auto topo = net::testbed_tree();
  const auto tasks = net::uniform_echo_tasks(topo, 199);
  HarpSimulation sim(topo, tasks, {frame(), 1.0, 7});
  sim.bootstrap();
  sim.run_frames(2);
  EXPECT_THROW(sim.change_link_demand(49, Direction::kUp, 3,
                                      /*timeout_frames=*/1),
               Error);
  EXPECT_TRUE(sim.mgmt().busy());

  sim.change_link_demand(49, Direction::kUp, 3);  // no-op: same demand
  EXPECT_FALSE(sim.mgmt().busy());
  EXPECT_GT(sim.mgmt().log().size(), 0u);
  for (NodeId v = 1; v < topo.size(); ++v) {
    EXPECT_FALSE(sim.agent(v).adjustment_pending()) << v;
  }

  core::HarpEngine engine(topo, tasks, frame());
  ASSERT_TRUE(engine.request_demand(49, Direction::kUp, 3).satisfied);
  const auto sched = sim.current_schedule();
  for (NodeId v = 1; v < topo.size(); ++v) {
    for (Direction dir : {Direction::kUp, Direction::kDown}) {
      EXPECT_EQ(sched.cells(v, dir), engine.schedule().cells(v, dir)) << v;
    }
  }
  for (Direction dir : {Direction::kUp, Direction::kDown}) {
    for (const auto& row : engine.partitions().rows(dir)) {
      EXPECT_EQ(sim.agent(row.node).partition(dir, row.layer), row.part)
          << "node " << row.node << " layer " << row.layer;
    }
  }
  sim.run_frames(2);  // still ticking
}
#endif

TEST(HarpSimulation, LossyNetworkStillDelivers) {
  const auto topo = net::testbed_tree();
  const auto tasks = net::uniform_echo_tasks(topo, 398);  // light load
  HarpSimulation sim(topo, tasks, {frame(), 0.9, 64, 9});
  sim.bootstrap();
  sim.run_frames(40);
  const auto& m = sim.metrics();
  EXPECT_GT(m.total_delivered(), 0u);
  // With PDR 0.9 and retries, deep nodes still deliver the vast majority.
  EXPECT_GE(static_cast<double>(m.total_delivered()),
            0.7 * static_cast<double>(m.total_generated()) - 50);
}

}  // namespace
}  // namespace harp::sim
