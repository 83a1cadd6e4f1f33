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
#include "obs/context.hpp"
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

TEST(Codec, RejectWithItemCountOtherThanOneIsRejected) {
  Message msg;
  msg.type = MsgType::kReject;
  msg.payload = RejectPayload{2, Direction::kDown};
  auto bytes = encode(msg);
  ASSERT_NO_THROW(decode(bytes));
  for (const std::uint8_t count : {0, 2}) {
    bytes[9] = count;  // item_count, low byte
    EXPECT_THROW(decode(bytes), Error) << "item_count " << int{count};
  }
}

TEST(Codec, MutatedBytesThrowOrReencodeIdentically) {
  // Flip, truncate and extend encoded messages of every type: decode
  // either rejects the bytes or accepts exactly the canonical encoding.
  Rng rng(321);
  const auto seeds = [] {
    std::vector<Message> out;
    Message m;
    m.src = 3;
    m.dst = 1;
    for (const MsgType t : {MsgType::kPostIntf, MsgType::kPutIntf}) {
      m.type = t;
      m.payload = IntfPayload{{{1, Direction::kUp, 12, 3},
                               {2, Direction::kDown, 5, 1}}};
      out.push_back(m);
    }
    for (const MsgType t : {MsgType::kPostPart, MsgType::kPutPart}) {
      m.type = t;
      m.payload = PartPayload{{{1, Direction::kUp, 12, 3, 40, 2}}};
      out.push_back(m);
    }
    m.type = MsgType::kCellAssign;
    m.payload = CellAssignPayload{
        {{Direction::kUp, 7, 1}, {Direction::kDown, 9, 0}}, 3};
    out.push_back(m);
    m.type = MsgType::kReject;
    m.payload = RejectPayload{4, Direction::kUp};
    out.push_back(m);
    return out;
  }();
  int accepted = 0;
  for (int iter = 0; iter < 3000; ++iter) {
    const Message& seed = seeds[rng.below(seeds.size())];
    auto bytes = encode(seed);
    switch (rng.below(3)) {
      case 0:  // flip 1-3 random bits
        for (std::uint64_t k = 1 + rng.below(3); k-- > 0;) {
          bytes[rng.below(bytes.size())] ^=
              static_cast<std::uint8_t>(1u << rng.below(8));
        }
        break;
      case 1:  // truncate
        bytes.resize(rng.below(bytes.size()));
        break;
      default:  // extend with random bytes
        for (std::uint64_t k = 1 + rng.below(8); k-- > 0;) {
          bytes.push_back(static_cast<std::uint8_t>(rng.below(256)));
        }
    }
    Message back;
    try {
      back = decode(bytes);
    } catch (const Error&) {
      continue;
    }
    ++accepted;
    EXPECT_EQ(encode(back), bytes) << "iteration " << iter;
  }
  EXPECT_GT(accepted, 0);  // some mutations land on free fields
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
    ASSERT_TRUE(same_interfaces(network, engine)) << "child " << s.child;
  }
}

TEST(Agents, RejectionRollsBackDistributedState) {
  const Net n = echo_net(net::testbed_tree());
  LoopbackAgents network(n.topo, n.traffic, frame(), n.tasks);
  network.bootstrap();
  core::HarpEngine engine(n.topo, n.traffic, frame(), n.tasks);
  ASSERT_TRUE(same_interfaces(network, engine));
  const auto before_parts = network.current_partitions();
  const NodeId parent = n.topo.parent(49);

  const auto stats = network.change_demand(49, Direction::kUp, 500);
  ASSERT_EQ(engine.request_demand(49, Direction::kUp, 500).kind,
            core::AdjustmentKind::kRejected);
  // The rejected escalation left every interface row as it was.
  EXPECT_TRUE(same_interfaces(network, engine));
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
      ASSERT_TRUE(same_interfaces(network, engine))
          << "seed " << seed << " step " << step;
    }
  }
}

// ------------------------------------------------------- hostile messages

/// Keeps what an agent sends in reply.
struct Recorder : Transport {
  std::vector<Message> sent;
  void send(Message msg) override { sent.push_back(std::move(msg)); }
};

/// Delivers `msg` straight to its destination agent and checks that the
/// agent dropped it before any state change: no reply, nothing pending,
/// one `harp.agent.msgs_rejected`, and the fingerprint and both interface
/// tables as they were.
void expect_dropped(rt::ProtoRuntime& network, const Message& msg) {
  obs::Context ctx;
  const obs::ScopedContext scoped(ctx);
  const std::uint64_t fingerprint = network.fingerprint();
  const core::InterfaceSet up = network.current_interfaces(Direction::kUp);
  const core::InterfaceSet down =
      network.current_interfaces(Direction::kDown);
  Recorder t;
  network.agent(msg.dst).on_message(msg, t);
  EXPECT_TRUE(t.sent.empty());
  EXPECT_FALSE(network.agent(msg.dst).adjustment_pending());
  EXPECT_EQ(ctx.metrics.counter("harp.agent.msgs_rejected").value(), 1u);
  EXPECT_EQ(network.fingerprint(), fingerprint);
  EXPECT_TRUE(network.current_interfaces(Direction::kUp) == up);
  EXPECT_TRUE(network.current_interfaces(Direction::kDown) == down);
}

/// The bootstrapped testbed network beside its engine oracle, and one
/// relay `v` in it with a non-leaf child: its parent, that child, and a
/// node that is neither.
class HostileMessages : public testing::Test {
 protected:
  HostileMessages() {
    network.bootstrap();
    const net::Topology& topo = n.topo;
    for (v = 1; v < topo.size(); ++v) {
      const auto kids = topo.children(v);
      const auto relay = std::find_if(kids.begin(), kids.end(), [&](NodeId c) {
        return !topo.is_leaf(c);
      });
      if (relay == kids.end()) continue;
      child = *relay;
      break;
    }
    parent = topo.parent(v);
    stranger = 1;
    while (stranger == v || stranger == parent ||
           topo.parent(stranger) == v) {
      ++stranger;
    }
  }

  /// An interface item `child` may report to `v`.
  IntfItem item() const {
    return {static_cast<std::uint8_t>(n.topo.link_layer(v) + 1),
            Direction::kUp, 3, 1};
  }

  /// After a dropped message the agents still track the engine: one
  /// escalating change lands on the same interfaces and fingerprint.
  void expect_still_matches_engine() {
    network.change_demand(5, Direction::kUp, 9);
    ASSERT_TRUE(engine.request_demand(5, Direction::kUp, 9).satisfied);
    EXPECT_TRUE(same_interfaces(network, engine));
    EXPECT_EQ(network.fingerprint(),
              rt::state_fingerprint(engine.partitions(), engine.schedule()));
  }

  const Net n = echo_net(net::testbed_tree());
  LoopbackAgents network{n.topo, n.traffic, frame(), n.tasks};
  core::HarpEngine engine{n.topo, n.traffic, frame(), n.tasks};
  NodeId v{kNoNode};
  NodeId parent{kNoNode};
  NodeId child{kNoNode};
  NodeId stranger{kNoNode};
};

TEST_F(HostileMessages, CleanRunRejectsNothing) {
  obs::Context ctx;
  const obs::ScopedContext scoped(ctx);
  LoopbackAgents fresh(n.topo, n.traffic, frame(), n.tasks);
  fresh.bootstrap();
  fresh.change_demand(5, Direction::kUp, 9);
  fresh.change_demand(49, Direction::kUp, 500);  // rejected escalation
  // Touched only on a rejection, so clean trials keep their fingerprint.
  EXPECT_EQ(ctx.metrics.find_counter("harp.agent.msgs_rejected"), nullptr);
}

TEST_F(HostileMessages, PutIntfFromNonChildIsDropped) {
  expect_dropped(network, {MsgType::kPutIntf, stranger, v,
                           IntfPayload{{item()}}});
  expect_still_matches_engine();
}

TEST_F(HostileMessages, PostIntfFromNonChildIsDropped) {
  // A relay that still awaits its children's reports.
  LoopbackAgents fresh(n.topo, n.traffic, frame(), n.tasks);
  Recorder t;
  fresh.agent(v).start(t);
  ASSERT_TRUE(t.sent.empty());
  expect_dropped(fresh, {MsgType::kPostIntf, stranger, v,
                         IntfPayload{{item()}}});
}

TEST_F(HostileMessages, PostIntfFromLeafChildIsDropped) {
  // A relay with a leaf child that still awaits a relay child's report.
  const net::Topology& topo = n.topo;
  NodeId relay = kNoNode;
  NodeId leaf = kNoNode;
  for (NodeId w = 1; w < topo.size() && relay == kNoNode; ++w) {
    const auto kids = topo.children(w);
    const auto is_leaf = [&](NodeId c) { return topo.is_leaf(c); };
    const auto l = std::find_if(kids.begin(), kids.end(), is_leaf);
    if (l == kids.end() || std::all_of(kids.begin(), kids.end(), is_leaf)) {
      continue;
    }
    relay = w;
    leaf = *l;
  }
  ASSERT_NE(relay, kNoNode);
  LoopbackAgents fresh(n.topo, n.traffic, frame(), n.tasks);
  Recorder t;
  fresh.agent(relay).start(t);
  ASSERT_TRUE(t.sent.empty());
  const IntfItem report{static_cast<std::uint8_t>(topo.link_layer(relay) + 1),
                        Direction::kUp, 3, 1};
  expect_dropped(fresh, {MsgType::kPostIntf, leaf, relay,
                         IntfPayload{{report}}});
}

TEST_F(HostileMessages, PostIntfWhenNoneIsAwaitedIsDropped) {
  expect_dropped(network, {MsgType::kPostIntf, child, v,
                           IntfPayload{{item()}}});
  expect_still_matches_engine();
}

TEST_F(HostileMessages, PutIntfWithItemCountOtherThanOneIsDropped) {
  expect_dropped(network, {MsgType::kPutIntf, child, v, IntfPayload{}});
  expect_dropped(network, {MsgType::kPutIntf, child, v,
                           IntfPayload{{item(), item()}}});
  expect_still_matches_engine();
}

TEST_F(HostileMessages, IntfItemOutsideTheSubtreeOrFrameIsDropped) {
  IntfItem own_layer = item();
  own_layer.layer = static_cast<std::uint8_t>(n.topo.link_layer(v));
  IntfItem empty = item();
  empty.slots = 0;
  IntfItem too_wide = item();
  too_wide.channels = static_cast<std::uint8_t>(frame().num_channels + 1);
  for (const IntfItem& bad : {own_layer, empty, too_wide}) {
    expect_dropped(network, {MsgType::kPutIntf, child, v,
                             IntfPayload{{bad}}});
  }
  expect_still_matches_engine();
}

TEST_F(HostileMessages, PartGrantFromNonParentIsDropped) {
  const core::Partition own = network.agent(v).partition(
      Direction::kUp, n.topo.link_layer(v));
  ASSERT_FALSE(own.empty());
  const PartItem grant = to_part_item(n.topo.link_layer(v), Direction::kUp,
                                      {own.comp, own.slot + 1, own.channel});
  for (MsgType type : {MsgType::kPostPart, MsgType::kPutPart}) {
    expect_dropped(network, {type, stranger, v, PartPayload{{grant}}});
    expect_dropped(network, {type, child, v, PartPayload{{grant}}});
  }
  expect_still_matches_engine();
}

TEST_F(HostileMessages, PartGrantOutsideTheFrameIsDropped) {
  const int layer = n.topo.link_layer(v);
  const core::Partition past_end{{4, 1}, frame().data_slots - 2, 0};
  const core::Partition above_top{
      {4, 2}, 0, static_cast<ChannelId>(frame().num_channels - 1)};
  for (const core::Partition& bad : {past_end, above_top}) {
    expect_dropped(network,
                   {MsgType::kPutPart, parent, v,
                    PartPayload{{to_part_item(layer, Direction::kUp, bad)}}});
  }
  expect_dropped(network,
                 {MsgType::kPutPart, parent, v,
                  PartPayload{{to_part_item(layer - 1, Direction::kUp,
                                            {{4, 1}, 0, 0})}}});
  expect_still_matches_engine();
}

TEST_F(HostileMessages, RejectWithNothingPendingIsDropped) {
  ASSERT_FALSE(network.agent(v).adjustment_pending());
  expect_dropped(network,
                 {MsgType::kReject, parent, v,
                  RejectPayload{static_cast<std::uint8_t>(
                                    n.topo.link_layer(v)),
                                Direction::kUp}});
  expect_still_matches_engine();
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
