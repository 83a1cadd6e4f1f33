// Statistical aggregation of per-trial results.
//
// The fleet runner produces one JSON result document per trial (the same
// shape a single-run bench emits). This module reduces them to summary
// statistics: every numeric leaf is flattened to a dotted path
// ("latency.overall_mean", "per_node.3.p95", ...) and each path's
// across-trial sample vector becomes a {count, mean, stddev, min, max,
// median, p95, ci95} record. Output format: docs/RUNNER.md and
// docs/OBSERVABILITY.md "Fleet report format".
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "obs/json.hpp"

namespace harp::runner {

/// Summary of one sample vector. stddev is the sample (n-1) standard
/// deviation; median/p95 are harp::Stats percentiles (linear
/// interpolation between closest ranks); ci95 is the half-width of the
/// normal-approximation 95% confidence interval for the mean
/// (1.96 * stddev / sqrt(n); 0 for a single sample).
struct SummaryStats {
  std::size_t count{0};
  double mean{0.0};
  double stddev{0.0};
  double min{0.0};
  double max{0.0};
  double median{0.0};
  double p95{0.0};
  double ci95{0.0};
};

/// Computes SummaryStats over `samples` (empty input -> all zeros).
SummaryStats summarize(const std::vector<double>& samples);

/// {"count": ..., "mean": ..., ..., "ci95": ...} per the fleet schema.
obs::Json to_json(const SummaryStats& s);

/// Flattens every numeric leaf of `doc` into dotted paths appended to
/// `out` (objects recurse by key, arrays by index). Non-numeric leaves
/// are skipped.
void flatten_numeric(const obs::Json& doc, const std::string& prefix,
                     std::vector<std::pair<std::string, double>>& out);

/// Aggregates per-trial result documents: for every dotted path present
/// in at least one trial, a SummaryStats object over the trials that have
/// it. Returns an insertion-ordered object {path: summary, ...} (paths in
/// first-seen order, so reports diff cleanly).
obs::Json aggregate_results(const std::vector<obs::Json>& trial_results);

}  // namespace harp::runner
