// Subtree-interface memoization for full hierarchy recomputation.
//
// Bootstrap, recompaction and roam fallbacks re-derive every node's
// interface from scratch (Alg. 1 bottom-up), yet after localized churn
// most subtrees' inputs have not changed. A node's from-scratch interface
// is a pure function of
//   (direction, M, own_slack, ordered child ids,
//    per-child demand in that direction, per-child subtree fingerprint)
// so the whole per-layer interface of a subtree root can be memoized
// under a 64-bit content fingerprint of exactly those inputs.
//
// Soundness: the cache is consulted ONLY during from-scratch generation
// (generate_interfaces). The engine's live state may drift away from the
// from-scratch result between recomputations — anchored growth and kept
// reservations after dynamic adjustments — but that drifted state is never
// inserted, so a hit always reproduces what a fresh recompute would have
// produced. The audit oracle `audit::check_compose_cache` re-derives this
// equality at runtime (docs/STATIC_ANALYSIS.md).
//
// Concurrency: find/insert are guarded by one harp::Mutex (rank
// kComposeCache, annotations checked by Clang thread-safety analysis —
// docs/STATIC_ANALYSIS.md "Concurrency analysis") and the statistics are
// relaxed atomics, so parallel per-layer composition workers
// (interface_gen.cpp on runner::WorkerPool) share one cache. Fingerprint
// and validity arrays in ComposeMemo are engine-owned (no lock; the
// engine-affinity contract); during a parallel generation pass each
// worker touches only its own node's slots.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/sync.hpp"
#include "common/thread_annotations.hpp"
#include "common/types.hpp"
#include "harp/resource.hpp"
#include "net/topology.hpp"
#include "packing/rect.hpp"

namespace harp::core {

/// One 64-bit mixing step (splitmix64 finalizer over a combine), used for
/// both subtree fingerprints and cache keys. Not cryptographic; a
/// collision silently reuses a wrong entry, which the sampled audit
/// oracle would surface — at 64 bits the expected time to a single
/// collision exceeds any realistic run.
constexpr std::uint64_t fp_mix(std::uint64_t h, std::uint64_t v) {
  std::uint64_t x = h ^ (v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2));
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Shared fingerprint seed ("HARP"): every key chain starts here.
constexpr std::uint64_t kFpSeed = 0x48415250ull;

/// Content-addressed store of composed subtree interfaces: key = subtree
/// fingerprint, value = the node's full per-layer interface (own layer
/// included; own-layer entries carry no layout). Entries are shared
/// immutable snapshots of InterfaceSet node interfaces: a hit installs
/// the snapshot by pointer (O(1)); the set's copy-on-write keeps it
/// immutable if the live state later drifts.
class ComposeCache {
 public:
  using Entry = InterfaceSet::NodeInterface;

  /// Running totals since construction (monotone; the engine publishes
  /// per-pass deltas as `harp.compose_cache.*` counters and one
  /// `compose_cache` trace event, docs/OBSERVABILITY.md).
  struct Stats {
    std::uint64_t hits{0};
    std::uint64_t misses{0};
    std::uint64_t inserts{0};
    std::uint64_t invalidations{0};
    std::uint64_t evictions{0};
  };

  explicit ComposeCache(std::size_t max_entries = 1 << 16);

  /// The cached interface for `key`, or nullptr (counted as hit/miss).
  std::shared_ptr<const Entry> find(std::uint64_t key) const;

  /// Stores an entry. When the map would exceed max_entries the whole map
  /// is dropped first (bulk eviction: live keys are re-inserted by the
  /// very next generation pass, stale ones are not — a simple policy that
  /// stays O(1) amortized and never scans).
  void insert(std::uint64_t key, std::shared_ptr<const Entry> entry);

  /// Bumps the invalidation total (stale fingerprints are tracked in
  /// ComposeMemo; the cache only aggregates the statistic).
  void note_invalidations(std::uint64_t n) {
    invalidations_.fetch_add(n, std::memory_order_relaxed);
  }

  /// Counts hits served without touching the map at all: nodes whose
  /// subtree fingerprint was still valid, so the last result's content
  /// was reused as-is (same semantics as find() hits; batched per
  /// generation pass to keep the hot loop free of shared atomics).
  void note_hits(std::uint64_t n) const {
    hits_.fetch_add(n, std::memory_order_relaxed);
  }

  Stats stats() const;
  std::size_t size() const;
  std::size_t max_entries() const { return max_entries_; }
  void clear();

 private:
  mutable Mutex mu_{LockRank::kComposeCache, "core.ComposeCache.mu"};
  std::unordered_map<std::uint64_t, std::shared_ptr<const Entry>> map_
      HARP_GUARDED_BY(mu_);
  std::size_t max_entries_;
  mutable std::atomic<std::uint64_t> hits_{0};
  mutable std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> inserts_{0};
  std::atomic<std::uint64_t> invalidations_{0};
  std::atomic<std::uint64_t> evictions_{0};
};

/// Engine-side memo: per-node subtree fingerprints (per direction) with
/// validity bits, the shared entry cache, and the pristine result of the
/// last generation pass. Mutation points invalidate the ancestor chain of
/// every input change (demand set, attach, detach, reparent);
/// generate_interfaces starts from the last result, rewrites only the
/// stale nodes, and re-validates their fingerprints. A memo is bound to
/// one engine's topology lineage — reusing it across unrelated trees
/// without invalidating would reuse fingerprints that were never
/// recomputed.
///
/// Invariant: staleness is upward-closed — whenever a node whose
/// interface a chain depends on is stale, so is every ancestor above it.
/// invalidate_chain always marks its start node, then stops at the first
/// already-stale ancestor, making invalidation O(affected chain) while
/// tolerating stale-start nodes the invariant does not cover (freshly
/// attached leaves that later gain children).
class ComposeMemo {
 public:
  /// Below this many topology nodes a generation pass runs in SLIM mode:
  /// the validity-bit fast path still skips every unchanged subtree, but
  /// stale nodes are re-derived directly — no fingerprinting, no
  /// mutex-guarded content-cache find/insert, no per-node shared_ptr
  /// allocation (the serial interface pool stays usable). On small trees
  /// the content cache's bookkeeping costs more than the derivations it
  /// saves (the 220-node speedup_cached regression in
  /// perf_bootstrap_scale); slim mode keeps the incremental win and
  /// drops the bookkeeping. Results are bit-identical in every mode.
  static constexpr std::size_t kDefaultFullThreshold = 512;

  ComposeMemo(std::size_t num_nodes, std::size_t max_entries);

  /// Grows the arrays for newly attached nodes (stale until generated).
  void resize(std::size_t num_nodes);

  /// Whether a pass over `num_nodes` topology nodes should run slim.
  bool slim_pass(std::size_t num_nodes) const {
    return num_nodes < full_threshold_;
  }
  /// Adjusts the slim/full cutover (0 = always full, benches and tests
  /// that pin content-cache semantics; SIZE_MAX = always slim).
  void set_full_threshold(std::size_t nodes) { full_threshold_ = nodes; }
  std::size_t full_threshold() const { return full_threshold_; }

  /// Marks `node` and every ancestor up to the gateway stale in `dir`.
  void invalidate_chain(const net::Topology& topo, Direction dir, NodeId node);
  /// Marks everything stale in both directions (topology rewires).
  void invalidate_all();

  /// Records the generation parameters of the current pass; when they
  /// differ from the previous pass the whole direction is invalidated
  /// (fingerprints mix the parameters, but validity bits do not know
  /// about them). Returns true when the tree structure changed since the
  /// previous pass in this direction (or this is the first one): the
  /// caller must then scrub interface remnants off nodes that have become
  /// leaves — the hot loop no longer visits leaves at all.
  ///
  /// `slim` declares how the caller will run this pass. Slim passes
  /// re-derive stale nodes without refreshing their subtree fingerprints,
  /// so the first FULL pass after any slim pass drops every validity bit
  /// in the direction: a full pass trusting slim-era bits would compose
  /// parent cache keys from fingerprints describing content that no
  /// longer exists (and could resurrect a stale cache entry). Clearing
  /// the bits forces one scratch-speed rederivation that rebuilds every
  /// fingerprint bottom-up — sound, and paid at most once per cutover.
  bool begin_pass(const net::Topology& topo, Direction dir, int num_channels,
                  int own_slack, bool slim = false);

  ComposeCache& cache() { return cache_; }
  const ComposeCache& cache() const { return cache_; }

  /// Cache statistics accumulated since the previous call (or since
  /// construction): what the `harp.compose_cache.*` counters and the
  /// `compose_cache` trace event should attribute to the generation
  /// passes just finished. The cache's own totals stay monotone; the
  /// per-pass baseline lives here, with the object it describes, so a
  /// memo that is rebuilt or reset across a topology swap starts a fresh
  /// baseline — an engine-side snapshot would keep the old totals and
  /// wrap the unsigned deltas (or misattribute the accumulated history to
  /// the next pass).
  ComposeCache::Stats take_stats_delta();

  // Raw access for generate_interfaces (indexed by NodeId).
  std::vector<std::uint64_t>& fingerprints(Direction dir) {
    return fp_[static_cast<int>(dir)];
  }
  std::vector<std::uint8_t>& valid(Direction dir) {
    return valid_[static_cast<int>(dir)];
  }
  /// The pristine from-scratch result of the last generation pass in
  /// `dir`. Shares its node table copy-on-write with whatever the caller
  /// holds, so keeping it costs nothing — and the next pass starts from
  /// it and touches only stale nodes. Live-state drift (dynamic
  /// adjustments) never reaches it: the engine's writes clone first.
  InterfaceSet& last_result(Direction dir) {
    return last_[static_cast<int>(dir)];
  }

 private:
  ComposeCache cache_;
  std::vector<std::uint64_t> fp_[2];
  std::vector<std::uint8_t> valid_[2];
  InterfaceSet last_[2];
  struct PassKey {
    std::uint64_t topo_uid{0};
    int num_channels{0};
    int own_slack{0};
    bool set{false};
  };
  PassKey key_[2];
  ComposeCache::Stats stats_base_{};  // anchor of take_stats_delta()
  std::size_t full_threshold_{kDefaultFullThreshold};
  /// Set while the direction's fingerprints lag behind its content
  /// (some pass since the last full one ran slim); cleared by the next
  /// full begin_pass after it drops the validity bits.
  bool fp_stale_[2]{false, false};
};

}  // namespace harp::core
