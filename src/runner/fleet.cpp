#include "runner/fleet.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>
#include <sstream>
#include <vector>

#include "common/sync.hpp"
#include "runner/aggregate.hpp"

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
  res.jobs = opts.jobs == 0 ? hardware_threads() : opts.jobs;
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
    // Inline on the caller thread: no threads, and the trial context
    // nests inside whatever context the caller has installed.
    for (std::size_t i = 0; i < trials.size(); ++i) run_one(i);
  } else {
    // min(jobs, trials) threads claim trial indices with a fetch-add
    // until the plan drains or a trial throws. The thread that wins
    // `failed` stores the error; the joins below order that store, and
    // every trial's writes, before the caller reads them.
    std::atomic<std::size_t> next{0};
    std::atomic<bool> failed{false};
    std::exception_ptr error;
    const auto work = [&] {
      while (!failed.load(std::memory_order_relaxed)) {
        const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
        if (i >= trials.size()) return;
        try {
          run_one(i);
        } catch (...) {
          if (!failed.exchange(true)) error = std::current_exception();
        }
      }
    };
    const std::size_t count = std::min(res.jobs, trials.size());
    std::vector<Thread> threads;
    const auto join_all = [&threads] {
      for (Thread& t : threads) t.join();
    };
    try {
      threads.reserve(count);
      while (threads.size() < count) threads.emplace_back(work);
    } catch (...) {
      // A thread that failed to start leaves the others claiming: join
      // them before the frame (and everything they reference) unwinds.
      failed.store(true);
      join_all();
      throw;
    }
    join_all();
    if (error) std::rethrow_exception(error);
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
