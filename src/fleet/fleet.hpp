// Sharded multi-tenant engine fleet — many independent HARP networks in
// one process (docs/FLEET.md).
//
// The ROADMAP north-star is a control plane serving thousands of factory
// networks concurrently. One HarpEngine is strictly single-network and
// (by design) single-threaded on its mutation path, so the fleet scales
// the other axis: N shards, each one worker thread owning an exclusive
// set of engines and draining a FIFO op queue in batches. Concurrency
// comes from running many engines at once, never from sharing one engine
// — the engine-affinity contract below.
//
// Layered admission, after Slurm's hierarchical-resources design: the
// fleet layer (tenant count, node budget, spectrum budget) is enforced
// synchronously on the control thread at create_tenant time, so admission
// outcomes are a pure function of the call order; the tenant layer (the
// per-tenant node quota) is enforced on the shard thread at attach time,
// where it only depends on that tenant's own op stream. No limit is ever
// checked across threads, which is what keeps every outcome — and the
// fleet fingerprint — independent of the shard count.
//
// Threading contract:
//   - All public methods are control-plane calls: one caller thread at a
//     time (they are not internally serialized against each other).
//   - Each engine lives and dies on its shard's thread; no engine is ever
//     touched by two threads, the control thread included (the
//     thread_local generation and compose scratch are therefore reused
//     across all tenants of a shard — the amortization that makes 10k
//     small engines cheap). fleet_fingerprint() is a shard task too:
//     each shard digests its own engines into a fleet-owned vector, and
//     the control thread folds only those integers.
//   - quiesce() blocks until every enqueued task has executed, and
//     establishes the happens-before edge that makes reading shard
//     results (the fingerprint vector, merged_metrics, stats) safe from
//     the control thread until the next create/submit/destroy. Reading
//     `executed == enqueued` under each shard's mutex is the whole
//     protocol, and it is enough: there is one control thread, so
//     nothing is enqueued while it waits, and a shard adds a batch to
//     `executed` (under the same mutex) only after the batch's last
//     task has run and been destroyed; from then until it takes the
//     next batch it touches no engine, obs context or digest slot. So
//     the equality, read under the lock, orders every shard write before
//     the control thread's reads, and no shard can write again before
//     the control thread enqueues more work.
//   - Mechanically: each shard owns one harp::Mutex (rank kFleetShard)
//     guarding only its queue and progress counters; the guarded fields
//     carry thread-safety annotations checked by Clang
//     (docs/STATIC_ANALYSIS.md "Concurrency analysis").
//
// Observability: each shard thread runs under its own obs::Context, so
// engine counters (`harp.engine.*`, `harp.compose_cache.*`) and the
// fleet's own `harp.fleet.*` counters record lock-free into per-shard
// registries; merged_metrics() folds them into one aggregate
// (docs/OBSERVABILITY.md).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "harp/engine.hpp"
#include "net/slotframe.hpp"
#include "net/topology.hpp"
#include "net/traffic.hpp"
#include "obs/metrics.hpp"

namespace harp::fleet {

/// Fleet-unique tenant handle, assigned by create_tenant (dense from 1;
/// never reused, so a stale handle can only miss, not alias).
using TenantId = std::uint64_t;

/// Everything needed to bootstrap one tenant's network. The engine is
/// built, mutated and destroyed on its shard's thread (engine-affinity:
/// a shard thread IS the engine's one thread).
struct TenantSpec {
  net::Topology topo;
  std::vector<net::Task> tasks;
  net::SlotframeConfig frame;
  core::EngineOptions engine{};
};

/// Dynamic operations a tenant's network absorbs (Sec. V dynamics plus
/// recompaction), in the engine's own vocabulary.
enum class OpType {
  kDemand,     ///< request_demand(node, dir, cells)
  kAttach,     ///< attach_leaf(parent, cells, down_cells)
  kDetach,     ///< detach_leaf(node)
  kReparent,   ///< reparent_leaf(node, parent)
  kRecompact,  ///< recompact()
};

struct Op {
  OpType type{OpType::kDemand};
  NodeId node{kNoNode};    ///< demand child / leaf to detach or roam
  NodeId parent{kNoNode};  ///< attach parent / roam target
  Direction dir{Direction::kUp};
  int cells{0};            ///< demand cells / attach up-cells
  int down_cells{0};       ///< attach down-cells
};

/// How create_tenant picks a shard. Both are deterministic in the call
/// order (and independent of timing), so a fleet replayed with a
/// different shard count re-creates every tenant with an identical op
/// history.
enum class PlacementPolicy {
  /// shard = hash(tenant id) — stateless, uniform in expectation.
  kHash,
  /// The shard currently holding the fewest admitted nodes (ties to the
  /// lowest index) — evens out heterogeneous tenant sizes.
  kLeastLoaded,
};

/// Layered limits (Slurm-style): the first three are fleet-wide and
/// checked at admission; the quota is per-tenant and checked per attach
/// op on the shard thread. Budgets admitted to a tenant are released by
/// destroy_tenant — including tenants whose bootstrap later failed (a
/// failed bootstrap must not free budget asynchronously, or admission
/// would depend on shard timing).
struct FleetLimits {
  std::size_t max_tenants{SIZE_MAX};
  /// Sum of admitted tenants' topology node counts.
  std::size_t node_budget{SIZE_MAX};
  /// Sum of admitted tenants' slotframe capacities (slots x channels) —
  /// the cross-tenant spectrum budget.
  std::uint64_t spectrum_budget{UINT64_MAX};
  /// Max nodes one tenant may grow to via attach ops (initial topologies
  /// larger than this are still admissible; the quota caps growth).
  std::size_t tenant_node_quota{SIZE_MAX};
};

/// Outcome of create_tenant. On rejection `reason` names the exhausted
/// limit and no state changed.
struct Admission {
  TenantId id{0};
  std::size_t shard{0};
  bool admitted{false};
  std::string reason;
};

/// Control-plane totals (stats()) — the caller-side view; the per-shard
/// execution counters live in the merged metrics as `harp.fleet.*`.
struct FleetStats {
  std::size_t shards{0};
  std::size_t tenants_live{0};
  std::uint64_t tenants_admitted{0};
  std::uint64_t tenants_rejected{0};
  std::uint64_t tenants_destroyed{0};
  std::uint64_t ops_enqueued{0};
  std::uint64_t ops_executed{0};
  std::size_t nodes_admitted{0};
  std::uint64_t spectrum_admitted{0};
  /// Live tenants per shard (placement visibility).
  std::vector<std::size_t> shard_tenants;
};

class Fleet {
 public:
  struct Options {
    std::size_t num_shards{1};
    PlacementPolicy placement{PlacementPolicy::kLeastLoaded};
    FleetLimits limits{};
  };

  explicit Fleet(const Options& options);
  /// Drains every queue, then joins the shard threads.
  ~Fleet();
  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;

  /// Admits (or rejects) a tenant against the fleet-wide limits and
  /// enqueues its engine bootstrap on the placed shard. Synchronous only
  /// in its admission decision — the bootstrap itself runs on the shard
  /// thread (quiesce() to wait for it; a bootstrap that throws
  /// InfeasibleError leaves the tenant admitted but dead: ops on it are
  /// dropped, `harp.fleet.bootstrap_failures` counts it, and its budget
  /// stays held until destroy_tenant).
  Admission create_tenant(TenantSpec spec);

  /// Enqueues teardown of the tenant's engine and releases its admitted
  /// budgets immediately (control-thread accounting). False when the id
  /// is unknown or already destroyed.
  bool destroy_tenant(TenantId id);

  /// Enqueues one op on the tenant's shard. Ops of one tenant execute in
  /// submission order (FIFO per shard); ops of different tenants on
  /// different shards run concurrently. False when the id is unknown.
  bool submit(TenantId id, const Op& op);

  /// Blocks until every enqueued task (bootstraps, ops, teardowns) has
  /// executed on its shard.
  void quiesce();

  /// Order-invariant digest of the whole fleet's resource state:
  /// fold of (tenant id, engine state_fingerprint) sorted by tenant id,
  /// plus a fixed tag for bootstrap-failed tenants. Independent of shard
  /// count and placement policy by construction — the determinism oracle
  /// of bench/perf_fleet_scale and tests/fleet_test. Each shard computes
  /// its engines' fingerprints on its own thread after its queued work;
  /// returns once all shards are quiescent.
  std::uint64_t fleet_fingerprint();

  /// Every shard context's metrics merged into one registry (engine,
  /// compose-cache and fleet counters), plus the control-plane admission
  /// counters. Quiesces first.
  obs::MetricsRegistry merged_metrics();

  /// Control-plane totals; `ops_executed` reflects tasks retired by the
  /// shards at the time of the call (exact after quiesce()).
  FleetStats stats() const;

  std::size_t num_shards() const { return shards_.size(); }
  std::size_t tenant_count() const { return live_tenants_; }

 private:
  struct Shard;
  struct TenantInfo {
    std::size_t shard{0};
    std::size_t nodes{0};
    std::uint64_t spectrum{0};
  };

  std::size_t place(TenantId id) const;
  static void shard_main(Shard& shard, std::size_t tenant_node_quota);

  std::vector<std::unique_ptr<Shard>> shards_;
  PlacementPolicy placement_;
  FleetLimits limits_;

  // Control-thread state (admission accounting + tenant directory).
  std::vector<TenantInfo> tenants_;  ///< index = TenantId - 1
  std::vector<bool> live_;           ///< index = TenantId - 1
  std::vector<std::size_t> shard_nodes_;  ///< admitted nodes per shard
  std::size_t live_tenants_{0};
  std::uint64_t tenants_admitted_{0};
  std::uint64_t tenants_rejected_{0};
  std::uint64_t tenants_destroyed_{0};
  std::uint64_t ops_enqueued_{0};
  std::size_t nodes_admitted_{0};
  std::uint64_t spectrum_admitted_{0};

  /// fleet_fingerprint() scratch, index = TenantId - 1: refilled with the
  /// dead-tenant tag on every call, written by the shard threads (each
  /// only its own tenants' slots), read after quiesce(). Reused across
  /// calls so a fingerprint allocates nothing once the fleet stops
  /// growing.
  std::vector<std::uint64_t> digests_;
  /// Fingerprint tasks enqueued so far; stats() excludes them from
  /// `ops_executed`.
  std::uint64_t fingerprint_tasks_{0};
};

}  // namespace harp::fleet
