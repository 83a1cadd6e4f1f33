// Invariant audit layer (docs/STATIC_ANALYSIS.md).
//
// HARP's headline claim is collision-freedom *by construction*: per-layer
// partitions are pairwise disjoint, child partitions nest inside their
// parents, and every parent schedules only inside its own rectangle. The
// code paths that maintain those invariants (incremental rebuild_links,
// AdjustTxn undo logs, the allocation-free simulator slot loop) are fast
// but no longer obviously correct, so this layer re-derives the invariants
// from first principles at every mutation point and fails loudly on the
// first divergence.
//
// Checks come in two halves:
//   * pure oracles (`check_*`) that take state and return "" or a
//     description of the first violation — unit-testable exactly like the
//     validators in src/harp, and
//   * the HARP_AUDIT macro, which runs an oracle and routes a non-empty
//     result through fail(): one `audit_fail` trace event on the src/obs
//     schema, then HARP_ASSERT semantics (throw, or abort under
//     HARP_ASSERT_ABORT).
//
// The whole layer is compile-time gated: the CMake option HARP_AUDIT
// (default ON except in Release builds) defines HARP_AUDIT_ENABLED; when
// it is 0 every HARP_AUDIT expands to a no-op and its arguments are never
// evaluated, so the Release hot path — and bench-gate — is untouched.
#pragma once

#include <cstdint>
#include <string>

#include "harp/partition_alloc.hpp"
#include "harp/resource.hpp"
#include "harp/schedule.hpp"
#include "net/slotframe.hpp"
#include "net/topology.hpp"
#include "net/traffic.hpp"

#ifndef HARP_AUDIT_ENABLED
#define HARP_AUDIT_ENABLED 1
#endif

namespace harp::audit {

/// Partition-table invariants: per-layer disjointness, child-in-parent
/// containment, presence. Delegates to the validate_partitions oracle.
std::string check_partitions(const net::Topology& topo,
                             const core::InterfaceSet& up,
                             const core::InterfaceSet& down,
                             const core::PartitionTable& parts,
                             const net::SlotframeConfig& frame);

/// Interface/composition consistency for one direction:
///   * components appear only at layers the subtree can span
///     (link_layer(node) .. subtree_depth(node));
///   * own-layer entries carry no layout (their interior is a schedule);
///   * a composed layer's layout places exactly the children that report a
///     component there, once each, with matching dimensions;
///   * placements are pairwise disjoint and inside the composite box
///     (which implies the monotonicity sum(child areas) <= composite area,
///     also checked explicitly).
std::string check_interfaces(const net::Topology& topo,
                             const core::InterfaceSet& ifs, Direction dir);

/// Schedule rules (collision-freedom, half-duplex, sufficiency,
/// containment). Delegates to the validate_schedule oracle.
std::string check_schedule(const net::Topology& topo,
                           const net::TrafficMatrix& traffic,
                           const core::Schedule& schedule,
                           const net::SlotframeConfig& frame);

/// Extension of the schedule rules with the partition discipline: every
/// cell of a link must lie inside the scheduling (own-layer) partition of
/// the parent that assigned it. This is the "parents schedule only inside
/// their own rectangle" half of the by-construction argument, which
/// validate_schedule alone cannot see.
std::string check_schedule_in_partitions(const net::Topology& topo,
                                         const core::PartitionTable& parts,
                                         const core::Schedule& schedule);

/// Everything above in one call — the engine's steady-state invariant.
std::string check_engine_state(const net::Topology& topo,
                               const net::TrafficMatrix& traffic,
                               const net::SlotframeConfig& frame,
                               const core::InterfaceSet& up,
                               const core::InterfaceSet& down,
                               const core::PartitionTable& parts,
                               const core::Schedule& schedule);

/// Rollback fidelity: after a rejected escalation the engine tables must
/// be byte-identical to the pre-climb snapshot (AdjustTxn's contract).
std::string check_restored(const core::InterfaceSet& ifs_before,
                           const core::InterfaceSet& ifs_after,
                           const core::PartitionTable& parts_before,
                           const core::PartitionTable& parts_after,
                           const core::Schedule& sched_before,
                           const core::Schedule& sched_after);

/// Memoization soundness: an interface set produced with the subtree
/// compose memo (harp/compose_cache.hpp) must be byte-identical to a
/// from-scratch regeneration under the same inputs — a node left valid
/// must hold exactly what re-deriving it would give. Re-derives the whole
/// set without the memo (expensive: the engine samples it on power-of-two
/// recomputation counts under HARP_AUDIT) and reports the first diverging
/// node/layer.
std::string check_compose_cache(const net::Topology& topo,
                                const net::TrafficMatrix& traffic,
                                Direction dir, int num_channels,
                                int own_slack,
                                const core::InterfaceSet& cached);

/// Simulator queue conservation: every generated packet is delivered,
/// dropped (queue overflow / route loss / purged with a departing device)
/// or still queued — checked at every slotframe boundary.
std::string check_queue_conservation(std::uint64_t generated,
                                     std::uint64_t delivered,
                                     std::uint64_t dropped,
                                     std::uint64_t backlog);

/// Reports a violation: emits one `audit_fail` trace event carrying the
/// interned check name, logs the detail, then fails via the HARP_ASSERT
/// path (throws harp::Error, or aborts under HARP_ASSERT_ABORT).
/// `check` must be a string with static storage duration.
[[noreturn]] void fail(const char* check, const std::string& detail,
                       NodeId node = kNoNode);

/// Runs one oracle result through fail() when non-empty.
inline void require(const char* check, const std::string& err,
                    NodeId node = kNoNode) {
  if (!err.empty()) fail(check, err, node);
}

}  // namespace harp::audit

/// Audit hook: evaluates the oracle expression and fails on a non-empty
/// result. Compiled out (arguments unevaluated) when HARP_AUDIT is OFF.
#if HARP_AUDIT_ENABLED
#define HARP_AUDIT(check, ...) ::harp::audit::require((check), (__VA_ARGS__))
/// Emits its argument verbatim in audit builds only — for bookkeeping
/// (counters, snapshots) that exists solely to feed a HARP_AUDIT check.
#define HARP_AUDIT_ONLY(...) __VA_ARGS__
#else
#define HARP_AUDIT(check, ...) ((void)0)
#define HARP_AUDIT_ONLY(...)
#endif
