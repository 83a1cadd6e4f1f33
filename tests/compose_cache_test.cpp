// Subtree-interface memoization.
//
// The memo is a pure accelerator: with it on or off the engine must
// produce bit-identical resource state. These tests drive randomized
// churn (demand changes, joins, leaves, roams, recompactions) through
// engines differing only in that option and compare state fingerprints
// after every operation, plus unit-level checks of the memo's work
// counts, the scratch-reusing packers and the audit oracle.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "harp/compose.hpp"
#include "harp/compose_cache.hpp"
#include "harp/engine.hpp"
#include "harp/interface_gen.hpp"
#include "audit/audit.hpp"
#include "net/topology_gen.hpp"
#include "net/traffic.hpp"
#include "packing/skyline.hpp"

namespace harp::core {
namespace {

net::SlotframeConfig test_frame() {
  net::SlotframeConfig frame;
  frame.length = 599;
  frame.data_slots = 540;
  return frame;
}

net::TrafficMatrix random_traffic(const net::Topology& topo, Rng& rng) {
  net::TrafficMatrix traffic(topo.size());
  for (NodeId v = 1; v < topo.size(); ++v) {
    traffic.set_demand(v, Direction::kUp, static_cast<int>(rng.below(4)));
    traffic.set_demand(v, Direction::kDown, static_cast<int>(rng.below(3)));
  }
  return traffic;
}

TEST(PackScratch, ReusedScratchMatchesFreshPacking) {
  Rng rng(99);
  packing::PackScratch scratch;
  packing::StripResult reused;
  for (int round = 0; round < 50; ++round) {
    std::vector<packing::Rect> rects;
    const int n = 1 + static_cast<int>(rng.below(12));
    for (int i = 0; i < n; ++i) {
      rects.push_back({1 + static_cast<packing::Dim>(rng.below(8)),
                       1 + static_cast<packing::Dim>(rng.below(8)),
                       static_cast<std::uint64_t>(i)});
    }
    const packing::Dim width = 8 + static_cast<packing::Dim>(rng.below(8));
    const packing::StripResult fresh = packing::pack_strip(rects, width);
    packing::pack_strip_into(rects, width, scratch, reused);
    EXPECT_EQ(fresh.height, reused.height);
    EXPECT_EQ(fresh.placements, reused.placements);
  }
}

TEST(ComposeScratch, ReusedScratchMatchesFreshComposition) {
  Rng rng(7);
  ComposeScratch scratch;
  Composition reused;
  for (int round = 0; round < 50; ++round) {
    std::vector<ChildComponent> children;
    const int n = static_cast<int>(rng.below(7));
    for (int i = 0; i < n; ++i) {
      children.push_back({static_cast<NodeId>(i + 1),
                          {static_cast<int>(rng.below(9)),
                           1 + static_cast<int>(rng.below(6))}});
    }
    const Composition fresh = compose_components(children, 16);
    compose_components_into(children, 16, scratch, reused);
    EXPECT_EQ(fresh.composite, reused.composite);
    EXPECT_EQ(fresh.layout, reused.layout);
  }
}

TEST(MemoizedGeneration, MatchesScratchAndHitsOnRepeat) {
  Rng rng(41);
  const auto topo = net::random_tree(
      {.num_nodes = 80, .num_layers = 6, .max_children = 4}, rng);
  auto traffic = random_traffic(topo, rng);
  const auto internal =
      static_cast<std::uint64_t>(topo.internal_bottom_up().size());

  ComposeMemo memo(topo.size());
  auto expect_matches_scratch = [&] {
    for (Direction dir : {Direction::kUp, Direction::kDown}) {
      const InterfaceSet scratch =
          generate_interfaces(topo, traffic, dir, 16, 1);
      const InterfaceSet memoized =
          generate_interfaces(topo, traffic, dir, 16, 1, &memo);
      EXPECT_TRUE(scratch == memoized);
    }
  };

  // First pass: every internal node is derived.
  expect_matches_scratch();
  const ComposeMemo::Stats first = memo.take_stats_delta();
  EXPECT_EQ(first.hits, 0u);
  EXPECT_EQ(first.misses, 2 * internal);

  // Unchanged inputs: the repeat pass derives nothing, and is identical.
  expect_matches_scratch();
  const ComposeMemo::Stats second = memo.take_stats_delta();
  EXPECT_EQ(second.hits, 2 * internal);
  EXPECT_EQ(second.misses, 0u);

  // Localized churn: only the touched chain re-derives; still identical.
  const NodeId leaf = static_cast<NodeId>(topo.size() - 1);
  traffic.set_demand(leaf, Direction::kUp, 3);
  memo.invalidate_chain(topo, Direction::kUp, topo.parent(leaf));
  expect_matches_scratch();
  const ComposeMemo::Stats third = memo.take_stats_delta();
  EXPECT_GT(third.misses, 0u);
  EXPECT_LT(third.misses, internal);
  EXPECT_EQ(third.hits + third.misses, 2 * internal);
}

TEST(MemoizedGeneration, SlimModeMatchesScratchWithoutCacheTraffic) {
  // Validity bits plus the last result are the whole memo: a pass derives
  // each stale internal node once and reads nothing else, so its work is
  // exactly the stale count and its output equals the scratch pass.
  Rng rng(59);
  const auto topo = net::random_tree(
      {.num_nodes = 80, .num_layers = 6, .max_children = 4}, rng);
  auto traffic = random_traffic(topo, rng);
  const auto internal =
      static_cast<std::uint64_t>(topo.internal_bottom_up().size());

  ComposeMemo memo(topo.size());
  for (Direction dir : {Direction::kUp, Direction::kDown}) {
    const InterfaceSet scratch = generate_interfaces(topo, traffic, dir, 16, 1);
    const InterfaceSet memoized =
        generate_interfaces(topo, traffic, dir, 16, 1, &memo);
    EXPECT_TRUE(scratch == memoized);
  }
  const ComposeMemo::Stats first = memo.take_stats_delta();
  EXPECT_EQ(first.hits, 0u);
  EXPECT_EQ(first.misses, 2 * internal);
  EXPECT_EQ(first.invalidations, 0u);

  // Unchanged repeat: pure validity-bit hits, nothing re-derived.
  for (Direction dir : {Direction::kUp, Direction::kDown}) {
    const InterfaceSet scratch = generate_interfaces(topo, traffic, dir, 16, 1);
    const InterfaceSet memoized =
        generate_interfaces(topo, traffic, dir, 16, 1, &memo);
    EXPECT_TRUE(scratch == memoized);
  }
  const ComposeMemo::Stats second = memo.take_stats_delta();
  EXPECT_EQ(second.hits, 2 * internal);
  EXPECT_EQ(second.misses, 0u);
  EXPECT_EQ(second.invalidations, 0u);

  // Localized churn: only the touched chain re-derives; still scratch-equal.
  const NodeId leaf = static_cast<NodeId>(topo.size() - 1);
  traffic.set_demand(leaf, Direction::kUp, 3);
  memo.invalidate_chain(topo, Direction::kUp, topo.parent(leaf));
  const InterfaceSet scratch =
      generate_interfaces(topo, traffic, Direction::kUp, 16, 1);
  const InterfaceSet memoized =
      generate_interfaces(topo, traffic, Direction::kUp, 16, 1, &memo);
  EXPECT_TRUE(scratch == memoized);
  const ComposeMemo::Stats third = memo.take_stats_delta();
  EXPECT_EQ(third.misses, third.invalidations);
  EXPECT_GT(third.misses, 0u);
  EXPECT_EQ(third.hits + third.misses, internal);
}

TEST(MemoizedGeneration, StatsDeltaIsPerPassAndSumsToTotals) {
  Rng rng(53);
  const auto topo = net::random_tree(
      {.num_nodes = 60, .num_layers = 5, .max_children = 4}, rng);
  const auto traffic = random_traffic(topo, rng);
  const auto internal =
      static_cast<std::uint64_t>(topo.internal_bottom_up().size());

  ComposeMemo memo(topo.size());
  auto pass = [&] {
    for (Direction dir : {Direction::kUp, Direction::kDown}) {
      generate_interfaces(topo, traffic, dir, 16, 0, &memo);
    }
  };

  // First pass pair: every internal node is derived; the delta is exactly
  // that pass, nothing from construction noise.
  pass();
  const ComposeMemo::Stats d1 = memo.take_stats_delta();
  EXPECT_EQ(d1.hits, 0u);
  EXPECT_EQ(d1.misses, 2 * internal);

  // Identical repeat: the delta must reflect only the repeat (pure
  // validity-bit hits), not re-report the first pass's misses.
  pass();
  const ComposeMemo::Stats d2 = memo.take_stats_delta();
  EXPECT_EQ(d2.hits, 2 * internal);
  EXPECT_EQ(d2.misses, 0u);
  EXPECT_EQ(d2.invalidations, 0u);

  // A topology-swap-style bulk invalidation between publishes lands in
  // exactly one delta, and the pass after it re-derives every node.
  memo.invalidate_all();
  pass();
  const ComposeMemo::Stats d3 = memo.take_stats_delta();
  EXPECT_EQ(d3.invalidations, 2 * internal);
  EXPECT_EQ(d3.hits, 0u);
  EXPECT_EQ(d3.misses, 2 * internal);

  // Nothing lost, nothing double-counted: the deltas partition the
  // monotone totals.
  const ComposeMemo::Stats total = memo.stats();
  EXPECT_EQ(d1.hits + d2.hits + d3.hits, total.hits);
  EXPECT_EQ(d1.misses + d2.misses + d3.misses, total.misses);
  EXPECT_EQ(d1.invalidations + d2.invalidations + d3.invalidations,
            total.invalidations);

  // A rebuilt memo (fresh baseline) starts from zero instead of wrapping
  // against a stale external snapshot.
  ComposeMemo rebuilt(topo.size());
  const ComposeMemo::Stats d0 = rebuilt.take_stats_delta();
  EXPECT_EQ(d0.hits, 0u);
  EXPECT_EQ(d0.misses, 0u);
  EXPECT_EQ(d0.invalidations, 0u);
}

TEST(MemoizedGeneration, OneChainInvalidationRederivesExactlyThatChain) {
  // The paper's locality claim for Alg. 1: after one link's demand
  // changes, only the interfaces on that link's ancestor chain depend on
  // it, so a pass must re-derive those nodes and no others.
  Rng rng(67);
  const auto topo = net::random_tree(
      {.num_nodes = 1000, .num_layers = 7, .max_children = 4}, rng);
  auto traffic = random_traffic(topo, rng);
  const auto internal =
      static_cast<std::uint64_t>(topo.internal_bottom_up().size());

  ComposeMemo memo(topo.size());
  for (Direction dir : {Direction::kUp, Direction::kDown}) {
    generate_interfaces(topo, traffic, dir, 16, 1, &memo);
  }
  memo.take_stats_delta();

  NodeId leaf = kNoNode;
  for (NodeId v = 1; v < topo.size() && leaf == kNoNode; ++v) {
    if (topo.is_leaf(v) && topo.node_layer(v) == topo.depth()) leaf = v;
  }
  ASSERT_NE(leaf, kNoNode);
  std::uint64_t chain = 0;
  for (NodeId n = topo.parent(leaf); n != kNoNode; n = topo.parent(n)) {
    ++chain;
  }
  ASSERT_EQ(chain, static_cast<std::uint64_t>(topo.depth()));

  traffic.set_demand(leaf, Direction::kUp,
                     traffic.demand(leaf, Direction::kUp) + 1);
  memo.invalidate_chain(topo, Direction::kUp, topo.parent(leaf));
  const InterfaceSet memoized =
      generate_interfaces(topo, traffic, Direction::kUp, 16, 1, &memo);
  const ComposeMemo::Stats d = memo.take_stats_delta();
  EXPECT_EQ(d.invalidations, chain);
  EXPECT_EQ(d.misses, chain);
  EXPECT_EQ(d.hits, internal - chain);
  EXPECT_TRUE(memoized ==
              generate_interfaces(topo, traffic, Direction::kUp, 16, 1));
}

TEST(ComposeCacheAudit, OracleAcceptsSoundAndFlagsTamperedInterfaces) {
  const auto topo = net::fig1_tree();
  net::TrafficMatrix traffic(topo.size());
  for (NodeId v = 1; v < topo.size(); ++v) {
    traffic.set_demand(v, Direction::kUp, 1);
    traffic.set_demand(v, Direction::kDown, 1);
  }
  const InterfaceSet ifs =
      generate_interfaces(topo, traffic, Direction::kUp, 16, 0);
  EXPECT_EQ(audit::check_compose_cache(topo, traffic, Direction::kUp, 16, 0,
                                       ifs),
            "");

  InterfaceSet tampered = ifs;
  const NodeId gw = net::Topology::gateway();
  const int layer = topo.link_layer(gw);
  ResourceComponent c = tampered.component(gw, layer);
  c.slots += 1;
  tampered.set_component(gw, layer, c);
  EXPECT_NE(audit::check_compose_cache(topo, traffic, Direction::kUp, 16, 0,
                                       tampered),
            "");
}

// ------------------------------------------------------------------ churn

struct ChurnOp {
  enum Kind { kDemand, kAttach, kDetach, kReparent, kRecompact } kind;
  NodeId a{kNoNode};
  NodeId b{kNoNode};
  Direction dir{Direction::kUp};
  int cells{0};
};

/// Generates one operation against the current (shared) topology state.
ChurnOp next_op(Rng& rng, const net::Topology& topo, int step) {
  if (step % 11 == 10) return {ChurnOp::kRecompact};
  const int pick = static_cast<int>(rng.below(10));
  if (pick < 6) {
    return {ChurnOp::kDemand,
            1 + static_cast<NodeId>(rng.below(topo.size() - 1)), kNoNode,
            rng.chance(0.5) ? Direction::kUp : Direction::kDown,
            static_cast<int>(rng.below(5))};
  }
  if (pick < 7) {
    return {ChurnOp::kAttach, static_cast<NodeId>(rng.below(topo.size())),
            kNoNode, Direction::kUp, static_cast<int>(rng.below(3))};
  }
  std::vector<NodeId> leaves;
  for (NodeId v = 1; v < topo.size(); ++v) {
    if (topo.is_leaf(v)) leaves.push_back(v);
  }
  if (pick < 8 || leaves.empty()) {
    return leaves.empty()
               ? ChurnOp{ChurnOp::kRecompact}
               : ChurnOp{ChurnOp::kDetach, leaves[rng.index(leaves.size())]};
  }
  const NodeId leaf = leaves[rng.index(leaves.size())];
  const NodeId new_parent = static_cast<NodeId>(rng.below(topo.size()));
  if (new_parent == leaf || topo.is_leaf(new_parent) ||
      new_parent == topo.parent(leaf)) {
    return {ChurnOp::kDetach, leaf};
  }
  return {ChurnOp::kReparent, leaf, new_parent};
}

void apply(HarpEngine& engine, const ChurnOp& op) {
  switch (op.kind) {
    case ChurnOp::kDemand:
      engine.request_demand(op.a, op.dir, op.cells);
      break;
    case ChurnOp::kAttach:
      engine.attach_leaf(op.a, op.cells, op.cells);
      break;
    case ChurnOp::kDetach:
      engine.detach_leaf(op.a);
      break;
    case ChurnOp::kReparent:
      engine.reparent_leaf(op.a, op.b);
      break;
    case ChurnOp::kRecompact:
      engine.recompact();
      break;
  }
}

TEST(ComposeCacheChurn, CacheOnOffAndParallelFingerprintsStayIdentical) {
  Rng topo_rng(3);
  const auto topo = net::random_tree(
      {.num_nodes = 60, .num_layers = 5, .max_children = 4}, topo_rng);
  const auto tasks = net::uniform_echo_tasks(topo, test_frame().length);

  // Engines differing only in the memo, through every recompact.
  std::vector<std::unique_ptr<HarpEngine>> engines;
  engines.push_back(std::make_unique<HarpEngine>(
      topo, tasks, test_frame(), EngineOptions{.compose_cache = false}));
  engines.push_back(std::make_unique<HarpEngine>(
      topo, tasks, test_frame(), EngineOptions{.compose_cache = true}));

  Rng rng(17);
  for (int step = 0; step < 120; ++step) {
    const ChurnOp op = next_op(rng, engines[0]->topology(), step);
    for (auto& engine : engines) apply(*engine, op);
    const std::uint64_t want = engines[0]->state_fingerprint();
    for (std::size_t i = 1; i < engines.size(); ++i) {
      ASSERT_EQ(engines[i]->state_fingerprint(), want)
          << "engine " << i << " diverged after step " << step << " (kind "
          << static_cast<int>(op.kind) << ")";
    }
  }
  // Deep equality at the end, stronger than the fingerprint.
  for (std::size_t i = 1; i < engines.size(); ++i) {
    EXPECT_TRUE(engines[0]->interfaces(Direction::kUp) ==
                engines[i]->interfaces(Direction::kUp));
    EXPECT_TRUE(engines[0]->interfaces(Direction::kDown) ==
                engines[i]->interfaces(Direction::kDown));
    EXPECT_TRUE(engines[0]->partitions() == engines[i]->partitions());
  }
  EXPECT_EQ(engines[0]->validate(), "");
  // The memo actually worked: repeated recompactions must have hit.
  EXPECT_GT(engines[1]->compose_cache_stats().hits, 0u);
  EXPECT_EQ(engines[0]->compose_cache_stats().hits, 0u);
}

}  // namespace
}  // namespace harp::core
