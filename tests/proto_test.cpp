// Tests for the HARP wire codec and the distributed agents, including the
// key cross-validation: agents exchanging real messages (rt::ProtoRuntime
// over a loopback) converge to the same partitions and schedule as the
// centralized engine oracle.
#include <gtest/gtest.h>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "harp/engine.hpp"
#include "net/topology_gen.hpp"
#include "loopback_agents.hpp"
#include "proto/codec.hpp"
#include "rt/channel.hpp"
#include "rt/dispatcher.hpp"
#include "rt/runtime.hpp"

namespace harp::proto {
namespace {

net::SlotframeConfig frame() { return net::SlotframeConfig{}; }

// ------------------------------------------------------------------ codec

TEST(Codec, IntfRoundTrip) {
  Message msg;
  msg.type = MsgType::kPostIntf;
  msg.src = 7;
  msg.dst = 3;
  IntfPayload p;
  p.items.push_back({2, Direction::kUp, 12, 3});
  p.items.push_back({3, Direction::kDown, 5, 1});
  msg.payload = p;

  const auto bytes = encode(msg);
  EXPECT_EQ(bytes.size(), encoded_size(msg));
  const Message back = decode(bytes);
  EXPECT_EQ(back.type, MsgType::kPostIntf);
  EXPECT_EQ(back.src, 7u);
  EXPECT_EQ(back.dst, 3u);
  const auto& bp = std::get<IntfPayload>(back.payload);
  ASSERT_EQ(bp.items.size(), 2u);
  EXPECT_EQ(bp.items[0].layer, 2);
  EXPECT_EQ(bp.items[0].slots, 12);
  EXPECT_EQ(bp.items[1].dir, Direction::kDown);
}

TEST(Codec, PartRoundTrip) {
  Message msg;
  msg.type = MsgType::kPutPart;
  msg.src = 1;
  msg.dst = 4;
  PartPayload p;
  p.items.push_back({3, Direction::kUp, 9, 2, 150, 7});
  msg.payload = p;
  const Message back = decode(encode(msg));
  const auto& bp = std::get<PartPayload>(back.payload);
  ASSERT_EQ(bp.items.size(), 1u);
  EXPECT_EQ(from_part_item(bp.items[0]),
            (core::Partition{{9, 2}, 150, 7}));
}

TEST(Codec, CellAssignRoundTrip) {
  Message msg;
  msg.type = MsgType::kCellAssign;
  msg.src = 0;
  msg.dst = 2;
  CellAssignPayload p;
  p.dirs_replaced = 3;
  p.items.push_back({Direction::kUp, 42, 11});
  p.items.push_back({Direction::kDown, 180, 0});
  msg.payload = p;
  const Message back = decode(encode(msg));
  const auto& bp = std::get<CellAssignPayload>(back.payload);
  EXPECT_EQ(bp.dirs_replaced, 3);
  ASSERT_EQ(bp.items.size(), 2u);
  EXPECT_EQ(bp.items[1].slot, 180);
}

TEST(Codec, RejectRoundTrip) {
  Message msg;
  msg.type = MsgType::kReject;
  msg.src = 0;
  msg.dst = 9;
  msg.payload = RejectPayload{4, Direction::kDown};
  const Message back = decode(encode(msg));
  const auto& bp = std::get<RejectPayload>(back.payload);
  EXPECT_EQ(bp.layer, 4);
  EXPECT_EQ(bp.dir, Direction::kDown);
}

TEST(Codec, RejectsMalformedInput) {
  EXPECT_THROW(decode({}), Error);
  EXPECT_THROW(decode({99, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}), Error);  // type
  Message msg;
  msg.type = MsgType::kPostIntf;
  msg.payload = IntfPayload{{{1, Direction::kUp, 3, 1}}};
  auto bytes = encode(msg);
  bytes.pop_back();
  EXPECT_THROW(decode(bytes), Error);  // truncated
  bytes = encode(msg);
  bytes.push_back(0);
  EXPECT_THROW(decode(bytes), Error);  // trailing
}

TEST(Codec, InterfaceMessagesFitOneFrame) {
  // A 10-layer interface (deepest realistic tree in the paper) must ride a
  // single 802.15.4 frame — the compactness property of Sec. IV-A.
  Message msg;
  msg.type = MsgType::kPostIntf;
  IntfPayload p;
  for (int l = 1; l <= 10; ++l) {
    p.items.push_back(
        {static_cast<std::uint8_t>(l), Direction::kUp, 100, 16});
  }
  msg.payload = p;
  EXPECT_TRUE(fits_single_frame(msg));
}

TEST(Codec, FuzzRoundTrip) {
  Rng rng(123);
  for (int iter = 0; iter < 200; ++iter) {
    Message msg;
    msg.src = static_cast<NodeId>(rng.below(100));
    msg.dst = static_cast<NodeId>(rng.below(100));
    switch (rng.below(4)) {
      case 0: {
        msg.type = rng.chance(0.5) ? MsgType::kPostIntf : MsgType::kPutIntf;
        IntfPayload p;
        for (std::uint64_t i = rng.below(6); i-- > 0;) {
          p.items.push_back({static_cast<std::uint8_t>(rng.below(12)),
                             rng.chance(0.5) ? Direction::kUp
                                             : Direction::kDown,
                             static_cast<std::uint16_t>(rng.below(500)),
                             static_cast<std::uint8_t>(rng.below(17))});
        }
        msg.payload = std::move(p);
        break;
      }
      case 1: {
        msg.type = rng.chance(0.5) ? MsgType::kPostPart : MsgType::kPutPart;
        PartPayload p;
        for (std::uint64_t i = rng.below(6); i-- > 0;) {
          p.items.push_back({static_cast<std::uint8_t>(rng.below(12)),
                             rng.chance(0.5) ? Direction::kUp
                                             : Direction::kDown,
                             static_cast<std::uint16_t>(rng.below(500)),
                             static_cast<std::uint8_t>(rng.below(17)),
                             static_cast<std::uint16_t>(rng.below(200)),
                             static_cast<std::uint8_t>(rng.below(16))});
        }
        msg.payload = std::move(p);
        break;
      }
      case 2: {
        msg.type = MsgType::kCellAssign;
        CellAssignPayload p;
        p.dirs_replaced = static_cast<std::uint8_t>(rng.below(4));
        for (std::uint64_t i = rng.below(10); i-- > 0;) {
          p.items.push_back({rng.chance(0.5) ? Direction::kUp
                                             : Direction::kDown,
                             static_cast<std::uint16_t>(rng.below(200)),
                             static_cast<std::uint8_t>(rng.below(16))});
        }
        msg.payload = std::move(p);
        break;
      }
      default:
        msg.type = MsgType::kReject;
        msg.payload = RejectPayload{static_cast<std::uint8_t>(rng.below(12)),
                                    rng.chance(0.5) ? Direction::kUp
                                                    : Direction::kDown};
    }
    const auto bytes = encode(msg);
    EXPECT_EQ(bytes.size(), encoded_size(msg));
    const Message back = decode(bytes);
    EXPECT_EQ(encode(back), bytes);  // canonical re-encode
  }
}

// ----------------------------------------------------------------- agents

struct Net {
  net::Topology topo;
  net::TrafficMatrix traffic;
  std::vector<net::Task> tasks;
};

Net echo_net(net::Topology topo, std::uint32_t period = 199) {
  auto tasks = net::uniform_echo_tasks(topo, period);
  auto traffic = net::derive_traffic(topo, tasks, frame());
  return {std::move(topo), std::move(traffic), std::move(tasks)};
}

TEST(Agents, BootstrapMatchesEngine) {
  const Net n = echo_net(net::testbed_tree());
  LoopbackAgents network(n.topo, n.traffic, frame(), n.tasks);
  network.bootstrap();
  core::HarpEngine engine(n.topo, n.traffic, frame(), n.tasks);

  // Identical partitions...
  const auto agent_parts = network.current_partitions();
  for (Direction dir : {Direction::kUp, Direction::kDown}) {
    for (const auto& row : engine.partitions().rows(dir)) {
      EXPECT_EQ(agent_parts.get(dir, row.node, row.layer), row.part)
          << "node " << row.node << " layer " << row.layer;
    }
  }
  // ...and identical schedules.
  const auto agent_sched = network.current_schedule();
  for (NodeId v = 1; v < n.topo.size(); ++v) {
    for (Direction dir : {Direction::kUp, Direction::kDown}) {
      EXPECT_EQ(agent_sched.cells(v, dir), engine.schedule().cells(v, dir));
    }
  }
}

TEST(Agents, BootstrapMessageCountsAreLean) {
  const Net n = echo_net(net::testbed_tree());
  LoopbackAgents network(n.topo, n.traffic, frame(), n.tasks);
  const auto stats = network.bootstrap();
  std::size_t non_leaf_non_gw = 0;
  for (NodeId v = 1; v < n.topo.size(); ++v) {
    if (!n.topo.is_leaf(v)) ++non_leaf_non_gw;
  }
  // Exactly one POST-intf up and one POST-part down per non-leaf
  // non-gateway node.
  EXPECT_EQ(stats.count.at(MsgType::kPostIntf), non_leaf_non_gw);
  EXPECT_EQ(stats.count.at(MsgType::kPostPart), non_leaf_non_gw);
  EXPECT_GT(stats.total_bytes(), 0u);
}

TEST(Agents, BootstrapThrowsWhenInadmissible) {
  const Net n = echo_net(net::testbed_tree(), 10);  // absurd rate
  LoopbackAgents network(n.topo, n.traffic, frame(), n.tasks);
  EXPECT_THROW(network.bootstrap(), InfeasibleError);
}

TEST(Agents, LocalDecreaseCostsNoHarpMessages) {
  const Net n = echo_net(net::testbed_tree());
  LoopbackAgents network(n.topo, n.traffic, frame(), n.tasks);
  network.bootstrap();
  const auto stats = network.change_demand(1, Direction::kUp, 1);
  EXPECT_EQ(stats.harp_overhead(), 0u);
}

TEST(Agents, DynamicAdjustmentMatchesEngine) {
  const Net n = echo_net(net::testbed_tree());
  LoopbackAgents network(n.topo, n.traffic, frame(), n.tasks);
  network.bootstrap();
  core::HarpEngine engine(n.topo, n.traffic, frame(), n.tasks);

  // A sequence of demand changes touching several layers and both
  // directions; after each, agents and engine must agree exactly.
  const struct {
    NodeId child;
    Direction dir;
    int cells;
  } steps[] = {
      {49, Direction::kUp, 3},  {15, Direction::kUp, 4},
      {43, Direction::kDown, 2}, {5, Direction::kUp, 9},
      {30, Direction::kUp, 3},  {49, Direction::kUp, 1},
      {22, Direction::kDown, 5},
  };
  for (const auto& s : steps) {
    const auto stats = network.change_demand(s.child, s.dir, s.cells);
    const auto report = engine.request_demand(s.child, s.dir, s.cells);
    ASSERT_TRUE(report.satisfied);
    // Message parity: the agents exchange exactly the messages the engine
    // predicted (PUT-intf/PUT-part; POST never reoccurs dynamically).
    EXPECT_EQ(stats.harp_overhead(), report.messages.size())
        << "child " << s.child;

    const auto agent_parts = network.current_partitions();
    for (Direction dir : {Direction::kUp, Direction::kDown}) {
      for (const auto& row : engine.partitions().rows(dir)) {
        ASSERT_EQ(agent_parts.get(dir, row.node, row.layer), row.part)
            << "child " << s.child << " node " << row.node << " layer "
            << row.layer;
      }
    }
    const auto agent_sched = network.current_schedule();
    for (NodeId v = 1; v < n.topo.size(); ++v) {
      for (Direction dir : {Direction::kUp, Direction::kDown}) {
        ASSERT_EQ(agent_sched.cells(v, dir), engine.schedule().cells(v, dir))
            << "child " << s.child << " link " << v;
      }
    }
  }
}

TEST(Agents, RejectionRollsBackDistributedState) {
  const Net n = echo_net(net::testbed_tree());
  LoopbackAgents network(n.topo, n.traffic, frame(), n.tasks);
  network.bootstrap();
  const auto before_parts = network.current_partitions();
  const NodeId parent = n.topo.parent(49);

  const auto stats = network.change_demand(49, Direction::kUp, 500);
  EXPECT_GT(stats.count.count(MsgType::kReject) ? stats.count.at(MsgType::kReject)
                                                : 0u,
            0u);
  // Demand restored at the parent...
  EXPECT_EQ(network.agent(parent).child_demand(49, Direction::kUp), 1);
  EXPECT_FALSE(network.agent(parent).adjustment_pending());
  // ...and no partition drifted.
  const auto after_parts = network.current_partitions();
  for (Direction dir : {Direction::kUp, Direction::kDown}) {
    for (NodeId v = 0; v < n.topo.size(); ++v) {
      for (int layer = 1; layer <= n.topo.depth(); ++layer) {
        EXPECT_EQ(after_parts.get(dir, v, layer),
                  before_parts.get(dir, v, layer))
            << v << " " << layer;
      }
    }
  }
}

TEST(Agents, FuzzAgainstEngine) {
  Rng rng(2024);
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    Rng topo_rng(seed + 100);
    const auto topo =
        net::random_tree({.num_nodes = 30, .num_layers = 4}, topo_rng);
    net::SlotframeConfig f;
    f.length = 399;
    f.data_slots = 350;
    const auto tasks = net::uniform_echo_tasks(topo, f.length);
    const auto traffic = net::derive_traffic(topo, tasks, f);

    LoopbackAgents network(topo, traffic, f, tasks);
    network.bootstrap();
    core::HarpEngine engine(topo, traffic, f, tasks);

    for (int step = 0; step < 25; ++step) {
      const NodeId child =
          static_cast<NodeId>(rng.between(1, static_cast<int>(topo.size()) - 1));
      const Direction dir =
          rng.chance(0.5) ? Direction::kUp : Direction::kDown;
      const int cells = static_cast<int>(rng.between(0, 6));
      network.change_demand(child, dir, cells);
      engine.request_demand(child, dir, cells);

      const auto agent_parts = network.current_partitions();
      for (Direction d : {Direction::kUp, Direction::kDown}) {
        for (const auto& row : engine.partitions().rows(d)) {
          ASSERT_EQ(agent_parts.get(d, row.node, row.layer), row.part)
              << "seed " << seed << " step " << step;
        }
      }
    }
  }
}

// ------------------------------------------- event-driven lossy runtime

TEST(Agents, LossySweepConvergesToEngineFingerprint) {
  const Net n = echo_net(net::testbed_tree());
  const struct {
    NodeId child;
    Direction dir;
    int cells;
  } steps[] = {
      {49, Direction::kUp, 3},  {15, Direction::kUp, 4},
      {43, Direction::kDown, 2}, {5, Direction::kUp, 9},
      {30, Direction::kUp, 3},  {49, Direction::kUp, 1},
      {22, Direction::kDown, 5},
  };

  // Loss-free references: the in-order agents and the engine oracle.
  LoopbackAgents reference(n.topo, n.traffic, frame(), n.tasks);
  reference.bootstrap();
  core::HarpEngine engine(n.topo, n.traffic, frame(), n.tasks);
  for (const auto& s : steps) {
    reference.change_demand(s.child, s.dir, s.cells);
    ASSERT_TRUE(engine.request_demand(s.child, s.dir, s.cells).satisfied);
  }
  const std::uint64_t want = reference.fingerprint();
  ASSERT_EQ(want,
            rt::state_fingerprint(engine.partitions(), engine.schedule()));
  EXPECT_EQ(want, 0xc1be9a40a00923acULL);

  // Sweep drop rates x seeds: the rt runtime over the lossy loopback must
  // converge to the identical state every time, with the ARQ machinery
  // fully drained (quiescent, no give-ups) and bounded retransmissions.
  for (const double drop : {0.05, 0.10, 0.20}) {
    for (const std::uint64_t seed : {1u, 2u, 3u}) {
      rt::Dispatcher d(seed);
      rt::LossyChannel::Options lossy;
      lossy.drop_rate = drop;
      lossy.duplicate_rate = 0.02;
      lossy.delay_min = 0;
      lossy.delay_max = 7;  // wide enough to reorder across exchanges
      lossy.seed = derive_seed(seed, static_cast<std::uint64_t>(drop * 100));
      rt::LossyChannel ch(d, lossy);
      rt::ProtoRuntime runtime(n.topo, n.traffic, frame(), d, ch, n.tasks);
      runtime.bootstrap();
      for (const auto& s : steps) {
        runtime.change_demand(s.child, s.dir, s.cells);
      }
      EXPECT_EQ(runtime.fingerprint(), want)
          << "drop " << drop << " seed " << seed;
      EXPECT_TRUE(runtime.quiescent());
      EXPECT_EQ(runtime.total_give_ups(), 0u);
      // Bounded recovery: the retry budget stays proportional to what the
      // channel actually lost (each drop costs at most a few timeouts).
      EXPECT_LE(runtime.total_retransmits(),
                8 * (ch.dropped() + 1))
          << "drop " << drop << " seed " << seed;
    }
  }
}

}  // namespace
}  // namespace harp::proto
