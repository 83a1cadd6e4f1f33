// Tests for the event-driven protocol runtime (src/rt): dispatcher and
// timer determinism, the transport matrix, ARQ recovery under loss, and
// the keystone cross-validation — on loss-free transports the runtime's
// state fingerprint equals the engine oracle and the literals pinned from
// the former synchronous (FIFO pump) driver.
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/hash.hpp"
#include "common/rng.hpp"
#include "common/sync.hpp"
#include "harp/engine.hpp"
#include "harp/schedule.hpp"
#include "net/topology_gen.hpp"
#include "net/traffic.hpp"
#include "loopback_agents.hpp"
#include "rt/channel.hpp"
#include "rt/dispatcher.hpp"
#include "rt/endpoint.hpp"
#include "rt/runtime.hpp"
#include "timer_queue.hpp"

namespace harp {
namespace {

net::SlotframeConfig frame() { return net::SlotframeConfig{}; }

struct Net {
  net::Topology topo;
  net::TrafficMatrix traffic;
  std::vector<net::Task> tasks;
};

Net echo_net(net::Topology topo) {
  auto tasks = net::uniform_echo_tasks(topo, frame().length);
  auto traffic = net::derive_traffic(topo, tasks, frame());
  return {std::move(topo), std::move(traffic), std::move(tasks)};
}

// --------------------------------------------------------------- timers

TEST(RtTimerQueue, FiresInDeadlineThenScheduleOrder) {
  rt::TimerQueue q;
  std::vector<int> fired;
  q.schedule(30, [&] { fired.push_back(30); });
  q.schedule(10, [&] { fired.push_back(101); });
  q.schedule(20, [&] { fired.push_back(20); });
  q.schedule(10, [&] { fired.push_back(102); });  // same deadline, later

  EXPECT_EQ(q.next_deadline(), 10u);
  while (auto cb = q.pop_due(100)) (*cb)();
  EXPECT_EQ(fired, (std::vector<int>{101, 102, 20, 30}));
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.next_deadline(), rt::kNeverTick);
}

TEST(RtTimerQueue, CancelledTimersNeverFireAndAreSkipped) {
  rt::TimerQueue q;
  int fired = 0;
  const rt::TimerId early = q.schedule(5, [&] { ++fired; });
  q.schedule(7, [&] { ++fired; });
  EXPECT_TRUE(q.cancel(early));
  EXPECT_FALSE(q.cancel(early));  // already cancelled
  EXPECT_FALSE(q.cancel(999));    // never existed
  EXPECT_EQ(q.size(), 1u);
  EXPECT_EQ(q.next_deadline(), 7u);  // cancelled head pruned
  EXPECT_FALSE(q.pop_due(6).has_value());
  auto cb = q.pop_due(7);
  ASSERT_TRUE(cb.has_value());
  (*cb)();
  EXPECT_EQ(fired, 1);
}

// ----------------------------------------------------------- dispatcher

TEST(RtDispatcher, RunsPostedTasksInFifoOrder) {
  rt::Dispatcher d;
  std::vector<int> order;
  d.post([&] { order.push_back(1); });
  d.post([&] {
    order.push_back(2);
    d.post([&] { order.push_back(4); });  // behind already-ready 3
  });
  d.post([&] { order.push_back(3); });
  EXPECT_EQ(d.run_until_idle(), 4u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
  EXPECT_EQ(d.now(), 0u);  // tasks never advance the virtual clock
}

TEST(RtDispatcher, ClockJumpsToDeadlinesAndTimersObserveNow) {
  rt::Dispatcher d;
  std::vector<rt::Tick> at;
  d.schedule_at(50, [&] { at.push_back(d.now()); });
  d.schedule_at(10, [&] {
    at.push_back(d.now());
    // Re-arming from inside a timer callback is the retransmit idiom.
    d.schedule_after(15, [&] { at.push_back(d.now()); });
  });
  d.run_until_idle();
  EXPECT_EQ(at, (std::vector<rt::Tick>{10, 25, 50}));
  EXPECT_EQ(d.now(), 50u);
  EXPECT_TRUE(d.idle());
}

TEST(RtDispatcher, ReadyTasksRunBeforeDueTimersAndPastDeadlinesClamp) {
  rt::Dispatcher d;
  std::vector<int> order;
  d.schedule_at(0, [&] { order.push_back(2); });  // due immediately
  d.post([&] { order.push_back(1); });            // but tasks go first
  d.run_until_idle();
  d.schedule_at(5, [&] { order.push_back(3); });
  d.run_until_idle();
  EXPECT_EQ(d.now(), 5u);
  // A deadline in the past fires on the current tick, not in the past.
  d.schedule_at(1, [&] { order.push_back(4); });
  d.run_until_idle();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
  EXPECT_EQ(d.now(), 5u);
}

TEST(RtDispatcher, CancelPreventsFiring) {
  rt::Dispatcher d;
  int fired = 0;
  const rt::TimerId id = d.schedule_at(10, [&] { ++fired; });
  EXPECT_TRUE(d.cancel(id));
  EXPECT_FALSE(d.cancel(id));
  d.run_until_idle();
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(d.now(), 0u);  // nothing fired, clock never moved
}

TEST(RtDispatcher, RunUntilStopsAtTheGivenTick) {
  rt::Dispatcher d;
  std::vector<rt::Tick> at;
  for (rt::Tick t : {5u, 10u, 15u, 20u}) {
    d.schedule_at(t, [&, t] { at.push_back(t); });
  }
  d.run_until(12);
  EXPECT_EQ(at, (std::vector<rt::Tick>{5, 10}));
  EXPECT_EQ(d.now(), 12u);
  d.run_until(20);
  EXPECT_EQ(at, (std::vector<rt::Tick>{5, 10, 15, 20}));
}

TEST(RtDispatcher, ExternalPostsCrossThreads) {
  rt::Dispatcher d;
  constexpr int kPerProducer = 100;
  int received = 0;
  auto produce = [&d] {
    for (int i = 0; i < kPerProducer; ++i) {
      d.post_external([] {});
    }
  };
  Thread p1(produce), p2(produce);
  // Drain concurrently with the producers (the TSan-relevant interleaving);
  // `received` is only touched on the dispatch thread.
  while (received < 2 * kPerProducer) {
    received += static_cast<int>(d.run_until_idle());
  }
  p1.join();
  p2.join();
  EXPECT_EQ(received, 2 * kPerProducer);
}

#ifndef HARP_ASSERT_ABORT
TEST(RtDispatcher, LivelockHitsTheEventCap) {
  rt::Dispatcher d;
  std::function<void()> spin = [&] { d.post(spin); };
  d.post(spin);
  EXPECT_THROW(d.run_until_idle(/*max_events=*/1000), Error);
}
#endif

// ------------------------------------------- loss-free transport parity
//
// The literals below were recorded from the synchronous FIFO-pump driver
// these scenarios used to be compared against.

TEST(RtRuntime, LoopbackBootstrapFingerprintMatchesLockstepAndEngine) {
  const std::pair<net::Topology, std::uint64_t> cases[] = {
      {net::testbed_tree(), 0xb9009b3542c27290ULL},
      {net::fig1_tree(), 0xf3b790030c97fd41ULL}};
  for (const auto& [topo, pinned] : cases) {
    const Net n = echo_net(topo);

    rt::Dispatcher d;
    rt::LoopbackChannel ch(d);
    rt::ProtoRuntime runtime(n.topo, n.traffic, frame(), d, ch, n.tasks);
    runtime.bootstrap();

    EXPECT_EQ(runtime.fingerprint(), pinned);
    core::HarpEngine engine(n.topo, n.traffic, frame(), n.tasks);
    EXPECT_EQ(runtime.fingerprint(),
              rt::state_fingerprint(engine.partitions(), engine.schedule()));
  }
}

TEST(RtRuntime, ArqFramingDoesNotChangeLossFreeState) {
  const Net n = echo_net(net::testbed_tree());
  LoopbackAgents raw(n.topo, n.traffic, frame(), n.tasks);
  raw.bootstrap();

  rt::Dispatcher d;
  rt::LoopbackChannel ch(d);
  rt::RuntimeOptions opt;
  opt.arq.enabled = true;
  rt::ProtoRuntime runtime(n.topo, n.traffic, frame(), d, ch, n.tasks, 0,
                           opt);
  runtime.bootstrap();
  runtime.change_demand(49, Direction::kUp, 3);
  raw.change_demand(49, Direction::kUp, 3);

  EXPECT_EQ(runtime.fingerprint(), raw.fingerprint());
  EXPECT_EQ(runtime.fingerprint(), 0x68df0c4bcdbf7c3fULL);
  EXPECT_EQ(runtime.total_retransmits(), 0u);
  EXPECT_TRUE(runtime.quiescent());
}

TEST(RtRuntime, DynamicsMatchLockstepAcrossOperations) {
  const Net n = echo_net(net::fig1_tree());
  rt::Dispatcher d;
  rt::LoopbackChannel ch(d);
  rt::ProtoRuntime runtime(n.topo, n.traffic, frame(), d, ch, n.tasks, 1);
  runtime.bootstrap();

  const NodeId joined = runtime.join_node(7, 2, 1).node;
  ASSERT_EQ(joined, n.topo.size());
  EXPECT_EQ(runtime.fingerprint(), 0x5a23296d001302d9ULL);

  runtime.change_demand(joined, Direction::kUp, 3);
  EXPECT_EQ(runtime.fingerprint(), 0x5a23296d001302d9ULL);

  runtime.roam_node(joined, 2);
  EXPECT_EQ(runtime.fingerprint(), 0x42da3c781d751e12ULL);

  runtime.leave_node(joined);
  EXPECT_EQ(runtime.fingerprint(), 0x49d2c07500daae52ULL);
}

TEST(RtRuntime, UnknownNodeIdsAreRejectedBeforeAnyStateChange) {
  const Net n = echo_net(net::fig1_tree());
  LoopbackAgents network(n.topo, n.traffic, frame(), n.tasks, 1);
  network.bootstrap();
  const std::uint64_t before = network.fingerprint();
  const std::size_t nodes = network.topology().size();
  const std::pair<std::function<void()>, std::string> cases[] = {
      {[&] { network.change_demand(9999, Direction::kUp, 3); },
       "change_demand: unknown node 9999"},
      {[&] { network.change_demand(0, Direction::kUp, 3); },
       "change_demand: gateway node 0"},
      {[&] { network.join_node(9999, 1, 1); }, "join_node: unknown node 9999"},
      {[&] { network.leave_node(9999); }, "leave_node: unknown node 9999"},
      {[&] { network.roam_node(9999, 1); }, "roam_node: unknown node 9999"},
      {[&] { network.roam_node(9, 9999); }, "roam_node: unknown node 9999"},
      {[&] { network.roam_node(9, 9); },
       "reparenting under own subtree would form a cycle"},
  };
  for (const auto& [call, message] : cases) {
    try {
      call();
      ADD_FAILURE() << "accepted: " << message;
    } catch (const InvalidArgument& e) {
      EXPECT_EQ(std::string(e.what()), message);
    }
    EXPECT_EQ(network.fingerprint(), before) << message;
    EXPECT_EQ(network.topology().size(), nodes) << message;
    EXPECT_TRUE(network.quiescent()) << message;
  }
}

// perf_rt_dispatch's runtime round. The bench folds this round's
// fingerprint after its task and timer section checksums (which involve
// no agent) into the "fingerprint" of BENCH_rt_dispatch.json.
TEST(RtRuntime, DispatchBenchChurnRoundFingerprintIsPinned) {
  const Net n = echo_net(net::testbed_tree());
  constexpr std::uint64_t kSeed = 7;
  rt::Dispatcher d(kSeed);
  rt::LoopbackChannel ch(d);
  rt::RuntimeOptions opt;
  opt.arq.enabled = true;
  rt::ProtoRuntime runtime(n.topo, n.traffic, frame(), d, ch, n.tasks, 0,
                           opt);
  runtime.bootstrap();
  Rng churn(derive_seed(kSeed, 2));
  for (int i = 0; i < 96; ++i) {
    const NodeId child =
        1 + static_cast<NodeId>(churn.below(n.topo.size() - 1));
    const Direction dir =
        churn.chance(0.5) ? Direction::kUp : Direction::kDown;
    runtime.change_demand(child, dir, 1 + static_cast<int>(churn.below(3)));
  }
  EXPECT_EQ(runtime.total_retransmits(), 0u);
  EXPECT_TRUE(runtime.quiescent());
  EXPECT_EQ(runtime.fingerprint(), 0x38b9e5a025ee4928ULL);
  std::uint64_t bench_fp = kFnvOffset;
  bench_fp = fnv1a_value(bench_fp, std::uint64_t{0xe63d73e6a39fcaa5ULL});
  bench_fp = fnv1a_value(bench_fp, std::uint64_t{0xd27fd470e0f866d4ULL});
  bench_fp = fnv1a_value(bench_fp, runtime.fingerprint());
  EXPECT_EQ(bench_fp, 0x4e0f8d8479a347f7ULL);
}

// ----------------------------------------------------- lossy + recovery

TEST(RtRuntime, LossyRunsAreDeterministicPerSeed) {
  const Net n = echo_net(net::testbed_tree());
  auto run = [&](std::uint64_t seed) {
    rt::Dispatcher d(seed);
    rt::LossyChannel::Options lossy;
    lossy.drop_rate = 0.15;
    lossy.duplicate_rate = 0.05;
    lossy.delay_min = 1;
    lossy.delay_max = 9;
    lossy.seed = derive_seed(seed, 1);
    rt::LossyChannel ch(d, lossy);
    rt::ProtoRuntime runtime(n.topo, n.traffic, frame(), d, ch, n.tasks);
    runtime.bootstrap();
    runtime.change_demand(49, Direction::kUp, 3);
    return std::tuple{runtime.fingerprint(), runtime.total_retransmits(),
                      ch.dropped(), d.dispatched()};
  };
  EXPECT_EQ(run(7), run(7));  // bit-identical replay
  EXPECT_GT(std::get<2>(run(7)), 0u);  // the run actually exercised loss
}

TEST(RtRuntime, DroppedPutPartStallsWithoutArqAndRecoversWithIt) {
  const Net n = echo_net(net::testbed_tree());

  // Reference: the loss-free outcome of the same operation — a demand
  // change at node 5 that escalates once (one PUT-intf up to the
  // gateway, one PUT-part grant back down).
  LoopbackAgents reference(n.topo, n.traffic, frame(), n.tasks);
  reference.bootstrap();
  const auto stats = reference.change_demand(5, Direction::kUp, 9);
  ASSERT_EQ(stats.count.at(proto::MsgType::kPutIntf), 1u);
  ASSERT_EQ(stats.count.at(proto::MsgType::kPutPart), 1u);
  const std::uint64_t want = reference.fingerprint();
  EXPECT_EQ(want, 0x96d9d880666e2529ULL);

  auto run = [&](bool arq) {
    rt::Dispatcher d;
    rt::LossyChannel ch(d, {});  // loss only via the targeted filter
    int put_parts_seen = 0;
    ch.set_drop_filter([&put_parts_seen](const rt::Packet& p) {
      if (p.kind != rt::Packet::Kind::kData ||
          p.msg.type != proto::MsgType::kPutPart) {
        return false;
      }
      return ++put_parts_seen == 1;  // swallow only the first grant
    });
    rt::RuntimeOptions opt;
    opt.arq.enabled = arq;
    auto runtime = std::make_unique<rt::ProtoRuntime>(
        n.topo, n.traffic, frame(), d, ch, n.tasks, 0, opt);
    runtime->bootstrap();
    runtime->change_demand(5, Direction::kUp, 9);
    bool pending = false;
    for (NodeId v = 0; v < runtime->topology().size(); ++v) {
      pending = pending || runtime->agent(v).adjustment_pending();
    }
    return std::tuple{runtime->fingerprint(), pending,
                      runtime->total_retransmits()};
  };

  // Without retransmission the lost grant stalls the exchange forever:
  // the escalating node keeps its tentative state pending.
  const auto [fp_stall, pending_stall, rtx_stall] = run(false);
  EXPECT_TRUE(pending_stall);
  EXPECT_NE(fp_stall, want);
  EXPECT_EQ(rtx_stall, 0u);

  // With ARQ the retransmit timer re-delivers the grant and the network
  // converges to the loss-free state.
  const auto [fp_arq, pending_arq, rtx_arq] = run(true);
  EXPECT_FALSE(pending_arq);
  EXPECT_EQ(fp_arq, want);
  EXPECT_GE(rtx_arq, 1u);
}

TEST(RtRuntime, BlackholedEscalationUnwindsViaGiveUpTimeout) {
  const Net n = echo_net(net::testbed_tree());

  rt::Dispatcher d;
  rt::LossyChannel ch(d, {});
  rt::RuntimeOptions opt;
  opt.arq.rto = 4;
  opt.arq.rto_max = 16;
  opt.arq.max_retries = 5;  // give up quickly; the test blackholes anyway
  rt::ProtoRuntime runtime(n.topo, n.traffic, frame(), d, ch, n.tasks, 0,
                           opt);
  runtime.bootstrap();
  const std::uint64_t before = runtime.fingerprint();
  const NodeId parent = n.topo.parent(49);
  const int old_demand =
      runtime.agent(parent).child_demand(49, Direction::kUp);

  // From now on, no escalation request ever gets through.
  ch.set_drop_filter([](const rt::Packet& p) {
    return p.kind == rt::Packet::Kind::kData &&
           p.msg.type == proto::MsgType::kPutIntf;
  });
  runtime.change_demand(49, Direction::kUp, 3);

  // No deadlock: the dispatcher drained, the give-up unwound the pending
  // escalation exactly like a kReject, and the pre-change state is back.
  EXPECT_TRUE(runtime.quiescent());
  EXPECT_GE(runtime.total_give_ups(), 1u);
  for (NodeId v = 0; v < runtime.topology().size(); ++v) {
    EXPECT_FALSE(runtime.agent(v).adjustment_pending()) << v;
  }
  EXPECT_EQ(runtime.agent(parent).child_demand(49, Direction::kUp),
            old_demand);
  EXPECT_EQ(runtime.fingerprint(), before);
  EXPECT_EQ(core::validate_schedule(runtime.topology(), n.traffic,
                                    runtime.current_schedule(), frame()),
            "");
}

// ------------------------------------------------------------ fixtures

TEST(RtRuntime, AbortPendingWithoutPendingIsANoop) {
  const Net n = echo_net(net::testbed_tree());
  rt::Dispatcher d;
  rt::LoopbackChannel ch(d);
  rt::ProtoRuntime runtime(n.topo, n.traffic, frame(), d, ch, n.tasks);
  runtime.bootstrap();
  EXPECT_FALSE(
      runtime.agent(1).abort_pending(2, Direction::kUp, runtime.endpoint(1)));
  EXPECT_EQ(d.run_until_idle(), 0u);  // nothing was sent
}

TEST(LockRank, RtDispatcherRankSitsBetweenComposeCacheAndObsIntern) {
  // Pin the published value: the rank table is API (docs/STATIC_ANALYSIS.md).
  EXPECT_EQ(static_cast<std::uint32_t>(LockRank::kRtDispatcher), 350u);
  // Posting externally is legal while holding any coarser lock...
  Mutex shard{LockRank::kFleetShard, "test.rt.shard"};
  Mutex cache{LockRank::kComposeCache, "test.rt.cache"};
  Mutex inbox{LockRank::kRtDispatcher, "test.rt.inbox"};
  {
    MutexLock a(shard);
    MutexLock b(cache);
    MutexLock c(inbox);
  }
  // ...and obs interning stays reachable under the inbox lock.
  Mutex intern{LockRank::kObsIntern, "test.rt.intern"};
  MutexLock c(inbox);
  MutexLock i(intern);
}

}  // namespace
}  // namespace harp
