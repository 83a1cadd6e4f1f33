// Fleet execution: a TrialPlan run across `jobs` trial threads with
// per-trial observability isolation and deterministic, order-independent
// output.
//
// Each trial executes under its own obs::Context (fresh metrics registry +
// trace sink, installed thread-locally for the duration of the trial), so
// concurrent trials never share instruments. Results and obs shards are
// stored by trial index; afterwards the fleet merges metric shards,
// aggregates the per-trial result documents (src/runner/aggregate.hpp)
// and fingerprints everything deterministic. Because trial seeds come
// from the plan and output slots are index-keyed, a fleet's
// trial_results, aggregate and fingerprint are bit-identical for every
// --jobs value (docs/RUNNER.md "Determinism").
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <ostream>
#include <vector>

#include "common/hash.hpp"
#include "obs/context.hpp"
#include "obs/json.hpp"
#include "runner/plan.hpp"

namespace harp::runner {

/// Produces one trial's result document. Runs on a trial thread with the
/// trial's private obs::Context installed; everything it touches must be
/// trial-local (no shared mutable state — the seed in `spec` is the only
/// sanctioned source of variation).
using TrialFn = std::function<obs::Json(const TrialSpec& spec)>;

struct FleetOptions {
  /// Trial threads; 0 = hardware concurrency, 1 = inline on the caller.
  std::size_t jobs = 1;
  /// Enable per-trial trace sinks (shard-merged by write_trace_jsonl).
  bool trace = false;
  std::size_t trace_capacity = obs::TraceSink::kDefaultCapacity;
  /// Enable HARP_OBS_SCOPE phase timers inside trials.
  bool timing = false;
};

struct FleetResult {
  /// Per-trial result documents, indexed by TrialSpec::index.
  std::vector<obs::Json> trial_results;
  /// Per-trial obs shards (metrics + trace), same indexing.
  std::vector<std::unique_ptr<obs::Context>> contexts;
  /// All metric shards merged: counters/histograms summed, gauges summed
  /// (divide by trials for a mean — see MetricsRegistry::merge).
  obs::MetricsRegistry merged_metrics;
  /// aggregate_results() over trial_results: dotted path -> SummaryStats.
  obs::Json aggregate;
  /// FNV-1a over every trial's result document plus the merged counters
  /// and gauges. Histograms are excluded: they hold wall-clock timings,
  /// the one legitimately nondeterministic quantity. Equal fingerprints
  /// across --jobs values is the determinism contract (and what the
  /// runner tests assert).
  std::uint64_t fingerprint{0};
  double wall_seconds{0.0};
  std::size_t jobs{0};

  /// Shard-merged trace export: every trial's events in trial order, each
  /// line tagged with its trial index (docs/OBSERVABILITY.md).
  void write_trace_jsonl(std::ostream& out) const;
};

/// Runs every trial of `plan` through `fn` across `opts.jobs` threads.
/// Blocks until every thread has joined; rethrows the first trial
/// exception (unclaimed trials are abandoned).
FleetResult run_fleet(const TrialPlan& plan, const FleetOptions& opts,
                      const TrialFn& fn);

/// FNV-1a 64-bit over a byte string — now shared repo-wide from
/// common/hash.hpp; re-exported here for existing callers.
using harp::fnv1a;
using harp::kFnvOffset;

}  // namespace harp::runner
