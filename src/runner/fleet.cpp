#include "runner/fleet.hpp"

#include <chrono>
#include <sstream>

#include "runner/aggregate.hpp"
#include "runner/pool.hpp"

namespace harp::runner {
namespace {

std::uint64_t hash_string(std::uint64_t h, const std::string& s) {
  return fnv1a(h, s.data(), s.size());
}

/// Work counters count what the implementation computed, not what the
/// trial simulated: they fall whenever a hot path gets cheaper, so they
/// stay out of the behaviour fingerprint (docs/RUNNER.md).
bool is_work_counter(const std::string& name) {
  return name == "harp.sim.schedule_installs";
}

/// Deterministic digest of a registry: counters (work counters excepted)
/// and gauges only, by sorted name, serialized exactly (JSON dump
/// preserves integer kinds).
std::uint64_t hash_metrics(std::uint64_t h, const obs::MetricsRegistry& reg) {
  for (const std::string& name : reg.names()) {
    if (is_work_counter(name)) continue;
    if (const obs::Counter* c = reg.find_counter(name)) {
      h = hash_string(h, name);
      h = hash_string(h, obs::Json(c->value()).dump_string(0));
    } else if (const obs::Gauge* g = reg.find_gauge(name)) {
      h = hash_string(h, name);
      h = hash_string(h, obs::Json(g->value()).dump_string(0));
    }
    // Histograms deliberately excluded: wall-clock phase timings are not
    // reproducible run to run.
  }
  return h;
}

}  // namespace

void FleetResult::write_trace_jsonl(std::ostream& out) const {
  for (std::size_t i = 0; i < contexts.size(); ++i) {
    if (contexts[i] == nullptr) continue;
    contexts[i]->trace.write_jsonl(out, static_cast<std::int64_t>(i));
  }
}

FleetResult run_fleet(const TrialPlan& plan, const FleetOptions& opts,
                      const TrialFn& fn) {
  const std::vector<TrialSpec>& trials = plan.trials();
  FleetResult res;
  res.jobs = opts.jobs == 0 ? WorkerPool::default_jobs() : opts.jobs;
  res.trial_results.resize(trials.size());
  res.contexts.resize(trials.size());

  const auto run_one = [&](std::size_t i) {
    auto ctx = std::make_unique<obs::Context>();
    ctx->timing = opts.timing;
    if (opts.trace) ctx->trace.enable(opts.trace_capacity);
    {
      obs::ScopedContext guard(*ctx);
      res.trial_results[i] = fn(trials[i]);
    }
    ctx->trace.disable();
    res.contexts[i] = std::move(ctx);
  };

  const auto start = std::chrono::steady_clock::now();
  if (res.jobs == 1) {
    // Inline on the caller thread: no pool, and the trial context nests
    // inside whatever context the caller has installed.
    for (std::size_t i = 0; i < trials.size(); ++i) run_one(i);
  } else {
    WorkerPool pool(res.jobs);
    pool.run(trials.size(), run_one);
  }
  res.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();

  for (const auto& ctx : res.contexts) {
    if (ctx != nullptr) res.merged_metrics.merge(ctx->metrics);
  }
  res.aggregate = aggregate_results(res.trial_results);

  std::uint64_t h = kFnvOffset;
  for (const obs::Json& doc : res.trial_results) {
    h = hash_string(h, doc.dump_string(0));
  }
  h = hash_metrics(h, res.merged_metrics);
  res.fingerprint = h;
  return res;
}

}  // namespace harp::runner
