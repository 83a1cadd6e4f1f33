// Tests for the multi-tenant fleet control plane (src/fleet) and for the
// one concurrency shape it is built on: many DISTINCT engines mutating at
// once — on fleet shards and on runner::run_fleet trial threads — while
// no single engine is ever touched by two threads. CI runs this binary
// under TSan (.github/workflows/ci.yml), which checks the whole
// engine-affinity + per-thread-context contract; the fingerprint
// assertions here pin the determinism half: outcomes must be invariant
// to shard count, placement policy and thread interleaving
// (docs/FLEET.md).
#include <atomic>
#include <cstdint>
#include <iterator>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "common/hash.hpp"
#include "common/rng.hpp"
#include "common/sync.hpp"
#include "fleet/fleet.hpp"
#include "harp/engine.hpp"
#include "net/topology_gen.hpp"
#include "net/traffic.hpp"
#include "obs/json.hpp"
#include "runner/fleet.hpp"
#include "runner/plan.hpp"

namespace harp::fleet {
namespace {

constexpr std::uint64_t kSeed = 7;
constexpr std::size_t kNodes = 40;

net::Topology make_tree(std::uint64_t stream) {
  Rng rng(derive_seed(kSeed, stream));
  return net::random_tree(
      {.num_nodes = kNodes, .num_layers = 5, .max_children = 3}, rng);
}

/// A bootstrappable tenant: slotframe length doubled until a probe engine
/// admits the echo workload (same recipe as bench/perf_fleet_scale).
TenantSpec feasible_spec(std::uint64_t stream) {
  net::Topology topo = make_tree(stream);
  net::SlotframeConfig frame{};
  frame.length = 256;
  frame.data_slots = frame.length - 32;
  for (;;) {
    std::vector<net::Task> tasks = net::uniform_echo_tasks(topo, frame.length);
    try {
      core::HarpEngine probe(topo, tasks, frame, {.compose_cache = false});
      return TenantSpec{std::move(topo), std::move(tasks), frame, {}};
    } catch (const InfeasibleError&) {
      frame.length *= 2;
      frame.data_slots = frame.length - 32;
    }
  }
}

/// A spec whose admission succeeds but whose bootstrap cannot: the frame
/// is far too small for one echo task per node.
TenantSpec doomed_spec(std::uint64_t stream) {
  net::Topology topo = make_tree(stream);
  net::SlotframeConfig frame{};
  frame.length = 64;
  frame.data_slots = 16;
  std::vector<net::Task> tasks = net::uniform_echo_tasks(topo, frame.length);
  return TenantSpec{std::move(topo), std::move(tasks), frame, {}};
}

/// Deterministic churn for one (tenant stream, round): demand changes,
/// one attach (caller tracks growth), detach of the newest leaf on odd
/// rounds, a reparent attempt and a periodic recompaction. Identical no
/// matter which shard executes it.
std::vector<Op> churn_ops(std::uint64_t stream, int round,
                          std::size_t& attached) {
  Rng rng(derive_seed(derive_seed(kSeed ^ 0xc0ffee, stream), round));
  std::vector<Op> ops;
  for (int i = 0; i < 4; ++i) {
    Op op;
    op.type = OpType::kDemand;
    op.node = 1 + static_cast<NodeId>(rng.below(kNodes - 1));
    op.dir = rng.chance(0.5) ? Direction::kUp : Direction::kDown;
    op.cells = 1 + static_cast<int>(rng.below(2));
    ops.push_back(op);
  }
  {
    Op op;
    op.type = OpType::kAttach;
    op.parent = 1 + static_cast<NodeId>(rng.below(10));
    op.cells = 1;
    op.down_cells = 1;
    ops.push_back(op);
    ++attached;
  }
  if (round % 2 == 1 && attached > 0) {
    Op op;
    op.type = OpType::kDetach;
    op.node = static_cast<NodeId>(kNodes + attached - 1);
    ops.push_back(op);
  }
  if (round == 2) {
    // Roaming: move the first attached leaf under another parent. May be
    // rejected by the engine for some topologies — rejection is
    // deterministic too, which is all invariance needs.
    Op op;
    op.type = OpType::kReparent;
    op.node = static_cast<NodeId>(kNodes);
    op.parent = 2;
    ops.push_back(op);
  }
  if ((static_cast<int>(stream) + round) % 3 == 0) {
    Op op;
    op.type = OpType::kRecompact;
    ops.push_back(op);
  }
  return ops;
}

/// Builds a fleet of `shards` shards, runs the canonical tenant + churn
/// + mid-run destroy script, and returns the fleet fingerprint.
std::uint64_t run_canonical_fleet(std::size_t shards,
                                  PlacementPolicy placement) {
  Fleet::Options opts;
  opts.num_shards = shards;
  opts.placement = placement;
  Fleet fleet(opts);

  constexpr std::size_t kTenants = 9;
  std::vector<TenantId> ids;
  for (std::size_t t = 0; t < kTenants; ++t) {
    const Admission a = fleet.create_tenant(feasible_spec(t % 3));
    EXPECT_TRUE(a.admitted);
    ids.push_back(a.id);
  }
  std::vector<std::size_t> attached(kTenants, 0);
  for (int round = 0; round < 4; ++round) {
    for (std::size_t t = 0; t < kTenants; ++t) {
      // Tenants 3 and 7 are destroyed after round 1; their later
      // submissions bounce (false) identically on every shard count.
      const bool live = round <= 1 || (t != 3 && t != 7);
      for (const Op& op : churn_ops(t, round, attached[t])) {
        EXPECT_EQ(fleet.submit(ids[t], op), live);
      }
    }
    if (round == 1) {
      // Mid-run departures interleave teardown with live churn.
      EXPECT_TRUE(fleet.destroy_tenant(ids[3]));
      EXPECT_TRUE(fleet.destroy_tenant(ids[7]));
    }
  }
  return fleet.fleet_fingerprint();
}

/// Pinned fleet fingerprints, captured from the control-thread fold over
/// the byte-wise engine digest. The shard-parallel fold must reproduce
/// them for any shard count.
constexpr std::uint64_t kCanonicalFleetFp = 0x898e38dd3ec053a3;
constexpr std::uint64_t kEdgeFleetFp[] = {
    0xf697fe3a6739434c, 0x73b73cebf6039fbc, 0xb5e01b5e1306cb93};

/// Edge-case script: a bootstrap-failed tenant (dead tag), a tenant
/// destroyed before the first fingerprint, another destroyed between two
/// fingerprints, a tenant created after a fingerprint, and two
/// back-to-back fingerprints (scratch reuse). Returns the fingerprints
/// taken after each phase.
std::vector<std::uint64_t> run_edge_fleet(std::size_t shards) {
  Fleet::Options opts;
  opts.num_shards = shards;
  Fleet fleet(opts);
  std::vector<TenantId> ids;
  const auto create = [&](TenantSpec spec) {
    const Admission a = fleet.create_tenant(std::move(spec));
    EXPECT_TRUE(a.admitted);
    ids.push_back(a.id);
  };
  create(feasible_spec(0));
  create(doomed_spec(1));
  create(feasible_spec(1));
  create(feasible_spec(2));
  create(feasible_spec(0));
  std::vector<std::size_t> attached(8, 0);
  const auto churn_round = [&](int round) {
    for (std::size_t t = 0; t < ids.size(); ++t) {
      for (const Op& op : churn_ops(t, round, attached[t])) {
        fleet.submit(ids[t], op);
      }
    }
  };

  std::vector<std::uint64_t> fps;
  churn_round(0);
  EXPECT_TRUE(fleet.destroy_tenant(ids[3]));
  fps.push_back(fleet.fleet_fingerprint());
  EXPECT_EQ(fleet.fleet_fingerprint(), fps.back());  // called twice

  churn_round(1);
  EXPECT_TRUE(fleet.destroy_tenant(ids[0]));
  create(feasible_spec(2));
  churn_round(2);
  fps.push_back(fleet.fleet_fingerprint());

  EXPECT_TRUE(fleet.destroy_tenant(ids[1]));  // the dead tenant
  fps.push_back(fleet.fleet_fingerprint());
  return fps;
}

// ------------------------------------------------------------ admission

TEST(FleetAdmission, MaxTenantsRejectsAndBurnsIds) {
  Fleet::Options opts;
  opts.limits.max_tenants = 2;
  Fleet fleet(opts);
  EXPECT_TRUE(fleet.create_tenant(feasible_spec(0)).admitted);
  EXPECT_TRUE(fleet.create_tenant(feasible_spec(1)).admitted);
  const Admission third = fleet.create_tenant(feasible_spec(2));
  EXPECT_FALSE(third.admitted);
  EXPECT_EQ(third.reason, "max_tenants");
  EXPECT_EQ(third.id, 3u);  // rejected ids are burned, never reused
  EXPECT_EQ(fleet.tenant_count(), 2u);
  // Departure frees the slot for the next admission.
  EXPECT_TRUE(fleet.destroy_tenant(1));
  const Admission fourth = fleet.create_tenant(feasible_spec(2));
  EXPECT_TRUE(fourth.admitted);
  EXPECT_EQ(fourth.id, 4u);
}

TEST(FleetAdmission, NodeBudgetIsReleasedByDestroy) {
  Fleet::Options opts;
  opts.limits.node_budget = 2 * kNodes;
  Fleet fleet(opts);
  EXPECT_TRUE(fleet.create_tenant(feasible_spec(0)).admitted);
  EXPECT_TRUE(fleet.create_tenant(feasible_spec(1)).admitted);
  const Admission third = fleet.create_tenant(feasible_spec(2));
  EXPECT_FALSE(third.admitted);
  EXPECT_EQ(third.reason, "node_budget");
  EXPECT_TRUE(fleet.destroy_tenant(2));
  EXPECT_TRUE(fleet.create_tenant(feasible_spec(2)).admitted);
  EXPECT_EQ(fleet.stats().nodes_admitted, 2 * kNodes);
}

TEST(FleetAdmission, SpectrumBudgetCountsSlotframeCapacity) {
  TenantSpec first = feasible_spec(0);
  const std::uint64_t one_tenant = first.frame.data_cells();
  Fleet::Options opts;
  opts.limits.spectrum_budget = one_tenant;
  Fleet fleet(opts);
  EXPECT_TRUE(fleet.create_tenant(std::move(first)).admitted);
  const Admission second = fleet.create_tenant(feasible_spec(1));
  EXPECT_FALSE(second.admitted);
  EXPECT_EQ(second.reason, "spectrum_budget");
  EXPECT_EQ(fleet.stats().spectrum_admitted, one_tenant);
}

TEST(FleetAdmission, FailedBootstrapHoldsBudgetUntilDestroy) {
  Fleet::Options opts;
  opts.limits.max_tenants = 1;
  Fleet fleet(opts);
  const Admission a = fleet.create_tenant(doomed_spec(0));
  ASSERT_TRUE(a.admitted);  // admission cannot know feasibility
  fleet.quiesce();
  obs::MetricsRegistry m = fleet.merged_metrics();
  EXPECT_EQ(m.counter("harp.fleet.bootstrap_failures").value(), 1u);
  EXPECT_EQ(m.counter("harp.fleet.bootstraps").value(), 0u);
  // The tenant is directory-live (budget held, ops accepted-but-dropped)
  // so admission outcomes never depend on shard timing.
  EXPECT_FALSE(fleet.create_tenant(feasible_spec(1)).admitted);
  Op op;
  op.type = OpType::kRecompact;
  EXPECT_TRUE(fleet.submit(a.id, op));
  fleet.quiesce();
  EXPECT_EQ(fleet.merged_metrics().counter("harp.fleet.ops_rejected").value(),
            1u);
  // A dead tenant still marks the fingerprint (distinct from absence).
  EXPECT_NE(fleet.fleet_fingerprint(), kFnvOffset);
  EXPECT_TRUE(fleet.destroy_tenant(a.id));
  EXPECT_TRUE(fleet.create_tenant(feasible_spec(1)).admitted);
}

TEST(FleetOps, UnknownAndDestroyedIdsAreRejected) {
  Fleet fleet(Fleet::Options{});
  Op op;
  op.type = OpType::kRecompact;
  EXPECT_FALSE(fleet.submit(0, op));
  EXPECT_FALSE(fleet.submit(99, op));
  EXPECT_FALSE(fleet.destroy_tenant(99));
  const Admission a = fleet.create_tenant(feasible_spec(0));
  ASSERT_TRUE(a.admitted);
  EXPECT_TRUE(fleet.destroy_tenant(a.id));
  EXPECT_FALSE(fleet.destroy_tenant(a.id));  // already gone
  EXPECT_FALSE(fleet.submit(a.id, op));
}

// One bad op of each kind that takes an argument (recompact takes none):
// each is counted once in harp.fleet.op_failures and leaves the tenant's
// digest as it was.
TEST(FleetOps, BadArgumentsFailWithoutChangingTheTenant) {
  Fleet fleet(Fleet::Options{});
  TenantSpec spec = feasible_spec(0);
  const net::Topology topo = spec.topo;
  const Admission a = fleet.create_tenant(std::move(spec));
  ASSERT_TRUE(a.admitted);
  NodeId relay = 1;
  while (topo.is_leaf(relay)) ++relay;
  NodeId leaf = 1;
  while (!topo.is_leaf(leaf)) ++leaf;
  const NodeId unknown = static_cast<NodeId>(topo.size() + 5);

  const auto failures = [&] {
    return fleet.merged_metrics().counter("harp.fleet.op_failures").value();
  };
  const std::uint64_t fingerprint = fleet.fleet_fingerprint();
  const std::uint64_t failed_before = failures();
  const Op bad_ops[] = {
      {.type = OpType::kDemand, .node = unknown, .cells = 1},
      {.type = OpType::kDemand, .node = leaf, .cells = -1},
      {.type = OpType::kAttach, .parent = unknown, .cells = 1,
       .down_cells = 1},
      {.type = OpType::kDetach, .node = relay},
      {.type = OpType::kReparent, .node = leaf, .parent = unknown},
      {.type = OpType::kReparent, .node = leaf, .parent = leaf},
  };
  std::uint64_t want_failed = failed_before;
  for (const Op& op : bad_ops) {
    const int kind = static_cast<int>(op.type);
    ASSERT_TRUE(fleet.submit(a.id, op)) << "op kind " << kind;
    EXPECT_EQ(failures(), ++want_failed) << "op kind " << kind;
    EXPECT_EQ(fleet.fleet_fingerprint(), fingerprint) << "op kind " << kind;
  }
}

// ------------------------------------------------------------ placement

TEST(FleetPlacement, HashPlacementIsReproducible) {
  std::vector<std::size_t> first;
  for (int run = 0; run < 2; ++run) {
    Fleet::Options opts;
    opts.num_shards = 4;
    opts.placement = PlacementPolicy::kHash;
    Fleet fleet(opts);
    for (std::uint64_t t = 0; t < 8; ++t) {
      EXPECT_TRUE(fleet.create_tenant(feasible_spec(t % 3)).admitted);
    }
    const FleetStats s = fleet.stats();
    if (run == 0) {
      first = s.shard_tenants;
    } else {
      EXPECT_EQ(first, s.shard_tenants);
    }
  }
}

TEST(FleetPlacement, LeastLoadedSpreadsEqualTenantsEvenly) {
  Fleet::Options opts;
  opts.num_shards = 4;
  opts.placement = PlacementPolicy::kLeastLoaded;
  Fleet fleet(opts);
  for (std::uint64_t t = 0; t < 8; ++t) {
    EXPECT_TRUE(fleet.create_tenant(feasible_spec(t % 3)).admitted);
  }
  const FleetStats s = fleet.stats();
  ASSERT_EQ(s.shard_tenants.size(), 4u);
  for (const std::size_t n : s.shard_tenants) EXPECT_EQ(n, 2u);
}

// ---------------------------------------------------------- determinism

TEST(FleetDeterminism, FingerprintInvariantAcrossShardCounts) {
  const std::uint64_t one =
      run_canonical_fleet(1, PlacementPolicy::kLeastLoaded);
  const std::uint64_t two =
      run_canonical_fleet(2, PlacementPolicy::kLeastLoaded);
  const std::uint64_t four =
      run_canonical_fleet(4, PlacementPolicy::kLeastLoaded);
  EXPECT_EQ(one, two);
  EXPECT_EQ(one, four);
}

TEST(FleetDeterminism, CanonicalFingerprintMatchesPinnedValue) {
  const std::uint64_t fp = run_canonical_fleet(3, PlacementPolicy::kLeastLoaded);
  EXPECT_EQ(fp, kCanonicalFleetFp) << std::hex << fp;
}

TEST(FleetDeterminism, DeadAndDestroyedTenantsPinnedForAnyShardCount) {
  const std::vector<std::uint64_t> want(std::begin(kEdgeFleetFp),
                                        std::end(kEdgeFleetFp));
  constexpr std::size_t kShardCounts[] = {1, 2, 3, 8};
  for (const std::size_t shards : kShardCounts) {
    const std::vector<std::uint64_t> got = run_edge_fleet(shards);
    EXPECT_EQ(got, want) << "shards " << shards << std::hex << ": " << got[0]
                         << " " << got[1] << " " << got[2];
  }
}

TEST(FleetDeterminism, FingerprintInvariantAcrossPlacementPolicies) {
  EXPECT_EQ(run_canonical_fleet(3, PlacementPolicy::kLeastLoaded),
            run_canonical_fleet(3, PlacementPolicy::kHash));
}

TEST(FleetDeterminism, NodeQuotaCapsGrowthExactlyLikeFewerAttaches) {
  constexpr std::size_t kQuota = kNodes + 2;
  const auto attach = [] {
    Op op;
    op.type = OpType::kAttach;
    op.parent = 1;
    op.cells = 1;
    op.down_cells = 1;
    return op;
  }();

  // Fleet A: five attaches against quota initial+2 — three must bounce.
  Fleet::Options opts;
  opts.limits.tenant_node_quota = kQuota;
  Fleet a(opts);
  const Admission aa = a.create_tenant(feasible_spec(0));
  ASSERT_TRUE(aa.admitted);
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(a.submit(aa.id, attach));
  const std::uint64_t fp_a = a.fleet_fingerprint();
  EXPECT_EQ(a.merged_metrics().counter("harp.fleet.ops_rejected").value(),
            3u);

  // Fleet B: exactly the two attaches that fit, no quota.
  Fleet b(Fleet::Options{});
  const Admission ba = b.create_tenant(feasible_spec(0));
  ASSERT_TRUE(ba.admitted);
  for (int i = 0; i < 2; ++i) EXPECT_TRUE(b.submit(ba.id, attach));
  EXPECT_EQ(fp_a, b.fleet_fingerprint());
}

// -------------------------------------------------------------- metrics

TEST(FleetMetrics, MergedCountersMatchControlPlaneStats) {
  Fleet::Options opts;
  opts.num_shards = 2;
  Fleet fleet(opts);
  std::vector<TenantId> ids;
  for (std::uint64_t t = 0; t < 2; ++t) {
    const Admission a = fleet.create_tenant(feasible_spec(t));
    ASSERT_TRUE(a.admitted);
    ids.push_back(a.id);
  }
  std::uint64_t submitted = 0;
  std::vector<std::size_t> attached(ids.size(), 0);
  for (int round = 0; round < 2; ++round) {
    for (std::size_t t = 0; t < ids.size(); ++t) {
      for (const Op& op : churn_ops(t, round, attached[t])) {
        ASSERT_TRUE(fleet.submit(ids[t], op));
        ++submitted;
      }
    }
  }
  fleet.quiesce();
  obs::MetricsRegistry m = fleet.merged_metrics();
  EXPECT_EQ(m.counter("harp.fleet.bootstraps").value(), 2u);
  EXPECT_EQ(m.counter("harp.fleet.tenants_admitted").value(), 2u);
  EXPECT_EQ(m.counter("harp.fleet.ops_enqueued").value(), submitted);
  // Every submitted op is accounted for exactly once.
  EXPECT_EQ(m.counter("harp.fleet.ops_executed").value() +
                m.counter("harp.fleet.ops_rejected").value() +
                m.counter("harp.fleet.op_failures").value(),
            submitted);
  // shard.executed counts retired tasks: bootstraps + ops.
  EXPECT_EQ(fleet.stats().ops_executed, submitted + 2u);
  // Engine activity recorded under the shard contexts surfaces in the
  // merged registry too (exact values belong to engine_test).
  EXPECT_GT(m.counter("harp.fleet.op_batches").value(), 0u);
}

// -------------------------------------------------------------- quiesce

// Oversubscribed quiesce: more shards than hardware threads, with
// spinner threads keeping every CPU busy so that woken shards get
// preempted and most reach their lock only after the control thread is
// already waiting. Hundreds of tiny submit -> quiesce -> fingerprint
// cycles; a quiesce() that returned before a shard retired its batch
// would show as a short `ops_executed` or as a fingerprint that differs
// from the 1-shard replay of the same script.
TEST(FleetQuiesce, OversubscribedTinyCyclesMatchOneShardReplay) {
  constexpr int kCycles = 300;
  const std::size_t hw = hardware_threads();
  const std::size_t shards = 2 * hw + 3;

  // 1-3 demand ops per cycle, each on a tenant the cycle's stream picks.
  const auto cycle_ops = [](int cycle, std::size_t tenants) {
    Rng rng(derive_seed(kSeed + 2, static_cast<std::uint64_t>(cycle)));
    std::vector<std::pair<std::size_t, Op>> ops;
    const int count = 1 + cycle % 3;
    for (int k = 0; k < count; ++k) {
      Op op;
      op.type = OpType::kDemand;
      op.node = 1 + static_cast<NodeId>(rng.below(kNodes - 1));
      op.dir = rng.chance(0.5) ? Direction::kUp : Direction::kDown;
      op.cells = 1 + static_cast<int>(rng.below(2));
      ops.emplace_back(static_cast<std::size_t>(rng.below(tenants)), op);
    }
    return ops;
  };
  // Runs the script on a fleet of `num_shards` shards, appending the
  // fingerprint after every cycle to `fps`; with `want` non-empty, each
  // one must match as it is taken.
  const auto run_script = [&](std::size_t num_shards,
                              const std::vector<std::uint64_t>& want,
                              std::vector<std::uint64_t>& fps) {
    Fleet fleet(Fleet::Options{.num_shards = num_shards});
    std::vector<TenantId> ids;
    for (std::size_t t = 0; t < shards; ++t) {
      const Admission a = fleet.create_tenant(feasible_spec(t % 3));
      ASSERT_TRUE(a.admitted);
      ids.push_back(a.id);
    }
    std::uint64_t submitted = 0;
    for (int cycle = 0; cycle < kCycles; ++cycle) {
      for (const auto& [tenant, op] : cycle_ops(cycle, ids.size())) {
        ASSERT_TRUE(fleet.submit(ids[tenant], op));
        ++submitted;
      }
      fleet.quiesce();
      // Bootstraps plus every op submitted so far, nothing in flight.
      ASSERT_EQ(fleet.stats().ops_executed, ids.size() + submitted)
          << "cycle " << cycle;
      fps.push_back(fleet.fleet_fingerprint());
      if (!want.empty()) {
        ASSERT_EQ(fps.back(), want[fps.size() - 1]) << "cycle " << cycle;
      }
    }
  };

  std::vector<std::uint64_t> want;
  run_script(1, {}, want);
  ASSERT_EQ(want.size(), static_cast<std::size_t>(kCycles));

  // Stopped and joined on every exit path, ASSERT failures included.
  struct Spinners {
    std::atomic<bool> stop{false};
    std::vector<std::thread> threads;
    ~Spinners() {
      stop.store(true);
      for (std::thread& t : threads) t.join();
    }
  } spinners;
  for (std::size_t i = 0; i < hw; ++i) {
    spinners.threads.emplace_back([&stop = spinners.stop] {
      while (!stop.load(std::memory_order_relaxed)) {
      }
    });
  }
  std::vector<std::uint64_t> got;
  run_script(shards, want, got);
  EXPECT_EQ(got.size(), want.size());
}

// -------------------------------------------- run_fleet trial threads

// The TSan centerpiece: many DISTINCT engines mutated concurrently on
// runner::run_fleet trial threads, each trial under its own obs::Context.
// Any engine-internal state that is secretly shared across engine
// instances — compose scratch, interface pools, counters — shows up here
// as a TSan race; the fingerprint check pins that concurrent execution
// produces bit-identical results to serial execution.
TEST(ConcurrentEngines, SharedPoolDistinctEnginesMatchSerial) {
  constexpr std::size_t kEngines = 12;
  constexpr int kSteps = 24;

  const auto mutate = [](core::HarpEngine& engine, std::uint64_t stream) {
    Rng rng(derive_seed(kSeed + 1, stream));
    for (int step = 0; step < kSteps; ++step) {
      const NodeId node = 1 + static_cast<NodeId>(rng.below(kNodes - 1));
      const Direction dir =
          rng.chance(0.5) ? Direction::kUp : Direction::kDown;
      const int cells = 1 + static_cast<int>(rng.below(2));
      try {
        engine.request_demand(node, dir, cells);
      } catch (const Error&) {
        // Inadmissible change: engine state is unchanged, and the same
        // throw happens on the serial reference — still deterministic.
      }
      if (step % 8 == 7) engine.recompact();
    }
  };

  // Serial reference fingerprints.
  std::vector<std::uint64_t> want;
  for (std::uint64_t i = 0; i < kEngines; ++i) {
    TenantSpec spec = feasible_spec(i % 3);
    core::HarpEngine engine(spec.topo, spec.tasks, spec.frame, spec.engine);
    mutate(engine, i);
    want.push_back(engine.state_fingerprint());
  }

  // Concurrent run: engines built up front, then one trial per engine
  // across four trial threads.
  std::vector<core::HarpEngine> engines;
  engines.reserve(kEngines);
  for (std::uint64_t i = 0; i < kEngines; ++i) {
    TenantSpec spec = feasible_spec(i % 3);
    engines.emplace_back(spec.topo, spec.tasks, spec.frame, spec.engine);
  }
  runner::FleetOptions opts;
  opts.jobs = 4;
  runner::run_fleet(runner::TrialPlan::replications(kSeed, kEngines), opts,
                    [&](const runner::TrialSpec& trial) {
                      mutate(engines[trial.index], trial.index);
                      return obs::Json::object();
                    });
  for (std::size_t i = 0; i < kEngines; ++i) {
    EXPECT_EQ(engines[i].state_fingerprint(), want[i]) << "engine " << i;
  }
}

}  // namespace
}  // namespace harp::fleet
