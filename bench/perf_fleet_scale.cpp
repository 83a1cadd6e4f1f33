// Multi-tenant fleet scale: how many concurrent 220-node networks one
// process sustains, and what shards buy (docs/FLEET.md).
//
// For each fleet size F in {100, 1k, 10k} tenants and shard count S in
// {1, 8}: build a Fleet of S shards, admit F tenants (220-node random
// trees drawn from a small pool of pre-validated variants), then drive
// kRounds of sustained churn — per tenant and round a seeded op batch of
// demand changes plus periodic attach/detach cycles (exercising the
// per-tenant node quota) and staggered recompactions. Reported per
// (F, S):
//   tenants_per_sec  admission + engine bootstrap throughput
//   ops_per_sec      churn op throughput (enqueue through quiesce)
//   fingerprint      Fleet::fleet_fingerprint() after the last round
// and per F the S=1 -> S=8 throughput scaling ratio.
//
// Determinism contract: every tenant's spec and op stream is a pure
// function of (base seed, tenant index, round) — never of the shard
// count, placement or timing — so the fleet fingerprint must be
// IDENTICAL across shard counts. The bench exits hard on divergence,
// and it checks itself and exits non-zero when a check fails: at the
// default seed each fleet size's fingerprint must equal its pinned
// literal (machine-independent), and the largest fleet's 1 -> 8-shard
// scaling must clear a floor set by the machine's hardware threads
// (>= 8: 3.0, >= 4: 2.0, >= 2: 1.2). On one hardware thread the floor is
// skipped: 8 shards time-slicing one core measure the OS scheduler, not
// shard scaling.
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.hpp"
#include "common/rng.hpp"
#include "fleet/fleet.hpp"
#include "net/topology_gen.hpp"
#include "net/traffic.hpp"
#include "obs/obs.hpp"

namespace {

using namespace harp;

constexpr std::uint64_t kTopoSeed = 42;
constexpr std::uint64_t kChurnSeed = 20260809;
constexpr std::size_t kTenantNodes = 220;
constexpr int kNumLayers = 7;
/// Distinct tenant topologies; tenant i uses variant i % kVariants.
constexpr std::size_t kVariants = 8;
/// Each fleet size and the fleet fingerprint its churn ends in at the
/// default seed.
struct FleetSize {
  std::size_t tenants;
  const char* fingerprint;
};
constexpr FleetSize kFleetSizes[] = {{100, "102fb119b0c00347"},
                                     {1000, "b1619e20a897dcac"},
                                     {10000, "c77fef39bb36cdeb"}};
constexpr std::size_t kShardCounts[] = {1, 8};
constexpr int kRounds = 3;
constexpr int kDemandOpsPerRound = 6;
/// Attach growth cap per tenant: 220 initial + 16 — the quota rejections
/// near the cap are part of the workload (tenant-layer limit hot path).
constexpr std::size_t kTenantQuota = kTenantNodes + 16;

/// One validated tenant shape: topology + echo task set + a slotframe
/// the bootstrap admits (length doubled until feasible, as
/// perf_bootstrap_scale does).
struct Variant {
  net::Topology topo;
  std::vector<net::Task> tasks;
  net::SlotframeConfig frame;
};

Variant make_variant(std::uint64_t seed_index) {
  Rng rng(derive_seed(kTopoSeed, seed_index));
  Variant v{net::random_tree({.num_nodes = kTenantNodes,
                              .num_layers = kNumLayers,
                              .max_children = 4},
                             rng),
            {},
            {}};
  v.frame.length = 1840;
  v.frame.data_slots = v.frame.length - 64;
  for (int attempt = 0; attempt < 8; ++attempt) {
    v.tasks = net::uniform_echo_tasks(v.topo, v.frame.length);
    try {
      core::HarpEngine probe(v.topo, v.tasks, v.frame,
                             {.compose_cache = false});
      return v;
    } catch (const InfeasibleError&) {
      v.frame.length *= 2;
      v.frame.data_slots = v.frame.length - 64;
    }
  }
  std::fprintf(stderr, "no feasible slotframe for variant %llu\n",
               static_cast<unsigned long long>(seed_index));
  std::exit(1);  // NOLINT(concurrency-mt-unsafe) pre-thread abort
}

/// The churn ops of one tenant in one round. Pure function of
/// (base, tenant, round, attached leaves so far); `attached` is advanced
/// by the generator itself so the stream stays identical no matter how
/// the fleet executes it.
std::vector<fleet::Op> churn_ops(std::uint64_t base, std::size_t tenant,
                                 int round, std::size_t& attached) {
  Rng rng(derive_seed(derive_seed(base, tenant), round));
  std::vector<fleet::Op> ops;
  ops.reserve(kDemandOpsPerRound + 3);
  for (int i = 0; i < kDemandOpsPerRound; ++i) {
    fleet::Op op;
    op.type = fleet::OpType::kDemand;
    op.node = 1 + static_cast<NodeId>(rng.below(kTenantNodes - 1));
    op.dir = rng.chance(0.5) ? Direction::kUp : Direction::kDown;
    op.cells = 1 + static_cast<int>(rng.below(3));
    ops.push_back(op);
  }
  // Grow-then-shrink leaf cycling: attach every round, detach every
  // other; near the per-tenant quota the attach is rejected by the shard
  // (exactly the tenant-layer limit this bench exists to exercise).
  {
    fleet::Op op;
    op.type = fleet::OpType::kAttach;
    op.parent = 1 + static_cast<NodeId>(rng.below(50));
    op.cells = 1 + static_cast<int>(rng.below(2));
    op.down_cells = static_cast<int>(rng.below(2));
    ops.push_back(op);
    if (kTenantNodes + attached < kTenantQuota) ++attached;
  }
  if (round % 2 == 1 && attached > 0) {
    fleet::Op op;
    op.type = fleet::OpType::kDetach;
    op.node = static_cast<NodeId>(kTenantNodes + attached - 1);
    ops.push_back(op);
    // Detached leaves stay in the tree with zero demand (engine
    // contract), so `attached` is NOT decremented: ids keep growing.
  }
  if ((tenant + static_cast<std::size_t>(round)) % 4 == 0) {
    fleet::Op op;
    op.type = fleet::OpType::kRecompact;
    ops.push_back(op);
  }
  return ops;
}

/// The 1 -> 8-shard scaling floor for this machine; 0 when it has a
/// single hardware thread and no floor applies.
double scaling_floor() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw >= 8 ? 3.0 : hw >= 4 ? 2.0 : hw >= 2 ? 1.2 : 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::Args args = bench::Args::parse(argc, argv);
  bench::Checks checks;
  obs::disable();  // bare hot path; counters stay on
  const std::uint64_t churn_base = args.base_seed(kChurnSeed);

  std::vector<Variant> variants;
  variants.reserve(kVariants);
  for (std::size_t i = 0; i < kVariants; ++i) {
    variants.push_back(make_variant(i));
  }

  bench::JsonReport report("perf_fleet_scale", args);
  obs::Json& results = report.results();
  results["tenant_nodes"] = static_cast<std::int64_t>(kTenantNodes);
  results["rounds"] = static_cast<std::int64_t>(kRounds);
  results["variants"] = static_cast<std::int64_t>(kVariants);
  results["tenant_quota"] = static_cast<std::int64_t>(kTenantQuota);

  bench::Table table({"tenants", "shards", "create /s", "ops /s",
                      "fingerprint"},
                     18);

  for (const FleetSize& size : kFleetSizes) {
    const std::size_t fleet_size = size.tenants;
    std::uint64_t want_fp = 0;
    double ops_per_sec_s1 = 0.0;
    obs::Json& by_f =
        results["fleet"]["tenants_" + std::to_string(fleet_size)];
    for (const std::size_t shards : kShardCounts) {
      fleet::Fleet::Options opts;
      opts.num_shards = shards;
      opts.placement = fleet::PlacementPolicy::kLeastLoaded;
      opts.limits.tenant_node_quota = kTenantQuota;
      fleet::Fleet fleet(opts);

      // Admission + bootstrap throughput.
      bench::Timer create_timer;
      std::vector<fleet::TenantId> ids;
      ids.reserve(fleet_size);
      for (std::size_t t = 0; t < fleet_size; ++t) {
        const Variant& v = variants[t % kVariants];
        fleet::TenantSpec spec{v.topo, v.tasks, v.frame, {}};
        const fleet::Admission a = fleet.create_tenant(std::move(spec));
        if (!a.admitted) {
          std::fprintf(stderr, "tenant %zu rejected: %s\n", t,
                       a.reason.c_str());
          return 1;
        }
        ids.push_back(a.id);
      }
      fleet.quiesce();
      const double create_seconds = create_timer.seconds();

      // Sustained churn. Op streams are generated caller-side and are
      // identical for every shard count.
      std::vector<std::size_t> attached(fleet_size, 0);
      std::uint64_t total_ops = 0;
      bench::Timer churn_timer;
      for (int round = 0; round < kRounds; ++round) {
        for (std::size_t t = 0; t < fleet_size; ++t) {
          for (const fleet::Op& op :
               churn_ops(churn_base, t, round, attached[t])) {
            if (!fleet.submit(ids[t], op)) {
              std::fprintf(stderr, "submit failed (tenant %zu)\n", t);
              return 1;
            }
            ++total_ops;
          }
        }
        fleet.quiesce();
      }
      const double churn_seconds = churn_timer.seconds();
      const std::uint64_t fp = fleet.fleet_fingerprint();

      // Shard-count invariance is a hard contract, checked in-bench so a
      // violation can never produce a "fast but wrong" baseline.
      if (shards == kShardCounts[0]) {
        want_fp = fp;
      } else if (fp != want_fp) {
        std::fprintf(stderr,
                     "FLEET FINGERPRINT DIVERGENCE (%zu tenants): "
                     "%s (S=%zu) vs %s (S=%zu)\n",
                     fleet_size, bench::hex64(want_fp).c_str(), kShardCounts[0],
                     bench::hex64(fp).c_str(), shards);
        return 1;
      }

      const double tenants_per_sec =
          create_seconds > 0.0 ? fleet_size / create_seconds : 0.0;
      const double ops_per_sec =
          churn_seconds > 0.0 ? total_ops / churn_seconds : 0.0;
      if (shards == 1) ops_per_sec_s1 = ops_per_sec;

      // Fold the per-shard registries into the process-wide one so the
      // report's `metrics` section aggregates every shard of every
      // configuration (harp.fleet.* + harp.engine.* + compose cache).
      obs::MetricsRegistry merged = fleet.merged_metrics();
      obs::MetricsRegistry::global().merge(merged);

      const fleet::FleetStats stats = fleet.stats();
      obs::Json& cfg = by_f["shards_" + std::to_string(shards)];
      cfg["tenants"] = static_cast<std::int64_t>(fleet_size);
      cfg["shards"] = static_cast<std::int64_t>(shards);
      cfg["create_seconds"] = create_seconds;
      cfg["tenants_per_sec"] = tenants_per_sec;
      cfg["churn_ops"] = static_cast<std::int64_t>(total_ops);
      cfg["churn_seconds"] = churn_seconds;
      cfg["ops_per_sec"] = ops_per_sec;
      cfg["ops_executed"] = static_cast<std::int64_t>(stats.ops_executed);
      cfg["fingerprint"] = bench::hex64(fp);

      table.row({std::to_string(fleet_size), std::to_string(shards),
                 bench::fmt(tenants_per_sec, 0), bench::fmt(ops_per_sec, 0),
                 bench::hex64(fp)});
    }
    const double scaling =
        ops_per_sec_s1 > 0.0
            ? (by_f["shards_8"]["ops_per_sec"].number() / ops_per_sec_s1)
            : 0.0;
    by_f["fingerprint"] = bench::hex64(want_fp);
    by_f["scaling_1_to_8"] = scaling;

    const std::string label = "tenants_" + std::to_string(fleet_size);
    if (!args.seed_set) {
      checks.pin(label + " fingerprint", bench::hex64(want_fp),
                 size.fingerprint);
    }
    if (&size == &kFleetSizes[std::size(kFleetSizes) - 1] &&
        scaling_floor() > 0.0) {
      checks.floor(label + " scaling_1_to_8", scaling, scaling_floor());
    }
  }

  table.print();
  report.write();
  return checks.exit_code();
}
