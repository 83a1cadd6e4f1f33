// Shared helpers for the experiment harnesses: aligned table printing,
// simple timing, and the machine-readable --json/--trace output contract.
// Each bench binary regenerates one table or figure of the paper (see
// DESIGN.md's experiment index) and prints the series to stdout;
// EXPERIMENTS.md records paper-vs-measured. With `--json <path>` the same
// series is written as a harp-obs/1 JSON report (including a metrics
// registry snapshot); with `--trace <path>` the raw trace events go out
// as JSON Lines. Formats: docs/OBSERVABILITY.md.
#pragma once

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/obs.hpp"
#include "runner/fleet.hpp"
#include "runner/plan.hpp"

namespace harp::bench {

/// Fixed-width text table.
class Table {
 public:
  explicit Table(std::vector<std::string> headers, int col_width = 12)
      : headers_(std::move(headers)), width_(col_width) {}

  Table& row(std::vector<std::string> cells) {
    rows_.push_back(std::move(cells));
    return *this;
  }

  void print() const {
    for (const auto& h : headers_) std::printf("%-*s", width_, h.c_str());
    std::printf("\n");
    for (std::size_t i = 0; i < headers_.size(); ++i) {
      for (int c = 0; c < width_ - 2; ++c) std::printf("-");
      std::printf("  ");
    }
    std::printf("\n");
    for (const auto& r : rows_) {
      for (const auto& cell : r) std::printf("%-*s", width_, cell.c_str());
      std::printf("\n");
    }
  }

  /// {"headers": [...], "rows": [[...], ...]} — cells stay strings, as
  /// printed (ablation tables; the figure benches emit typed series).
  obs::Json to_json() const {
    obs::Json out;
    obs::Json& headers = out["headers"];
    for (const auto& h : headers_) headers.push_back(h);
    obs::Json& rows = out["rows"];
    for (const auto& r : rows_) {
      obs::Json row;
      for (const auto& cell : r) row.push_back(cell);
      rows.push_back(std::move(row));
    }
    return out;
  }

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
  int width_;
};

inline std::string fmt(double v, int precision = 2) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", precision, v);
  return buf;
}

inline std::string pct(double v, int precision = 1) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f%%", precision, 100.0 * v);
  return buf;
}

/// A 64-bit digest as the 16 hex digits every report and pin uses.
inline std::string hex64(std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

/// A bench's self-checks: exact pins and same-run floors. Each failed
/// check prints one line to stderr, and main() returns exit_code(), so a
/// bench fails on its own output with no baseline from another run.
class Checks {
 public:
  void pin(const std::string& what, const std::string& got,
           const std::string& want) {
    if (got != want) fail(what + " is " + got + ", pinned " + want);
  }
  void floor(const std::string& what, double got, double min) {
    if (!(got >= min)) {
      fail(what + " is " + fmt(got) + ", below its floor " + fmt(min));
    }
  }
  void fail(const std::string& why) {
    std::fprintf(stderr, "CHECK FAILED: %s\n", why.c_str());
    ++failed_;
  }
  int exit_code() const { return failed_ == 0 ? 0 : 1; }

 private:
  int failed_ = 0;
};

class Timer {
 public:
  Timer() : start_(std::chrono::steady_clock::now()) {}
  double seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

/// Command-line contract shared by every experiment binary:
///   --json <path>    write the harp-obs/1 JSON report
///   --trace <path>   write captured trace events as JSON Lines
///   --minutes <m>    override the simulated duration (binaries that
///                    simulate wall-clock time; others ignore it)
///   --trials <n>     replications to run (default 1); each trial gets
///                    its own seed derived from the base seed
///   --jobs <m>       worker threads for the fleet (default 1, 0 = all
///                    hardware threads)
///   --seed <s>       override the binary's base seed
/// Requesting --json or --trace turns the observability layer on
/// (trace sink + phase timers) before the experiment runs.
struct Args {
  std::string json_path;
  std::string trace_path;
  double minutes = 0.0;
  std::size_t trials = 1;
  bool trials_set = false;
  std::size_t jobs = 1;
  std::uint64_t seed = 0;
  bool seed_set = false;

  bool machine_output() const {
    return !json_path.empty() || !trace_path.empty();
  }

  /// The fleet's base seed: --seed when given, else the binary's
  /// historical default (fig9's 42, table2's 2, ...).
  std::uint64_t base_seed(std::uint64_t default_seed) const {
    return seed_set ? seed : default_seed;
  }

  static Args parse(int argc, char** argv) {
    Args args;
    for (int i = 1; i < argc; ++i) {
      const auto need_value = [&](const char* flag) -> const char* {
        if (i + 1 >= argc) {
          std::fprintf(stderr, "%s: %s requires a value\n", argv[0], flag);
          std::exit(2);
        }
        return argv[++i];
      };
      const auto need_uint = [&](const char* flag) -> unsigned long long {
        const char* value = need_value(flag);
        char* end = nullptr;
        const unsigned long long v = std::strtoull(value, &end, 10);
        if (end == value || *end != '\0') {
          std::fprintf(stderr, "%s: %s expects a non-negative integer, "
                       "got '%s'\n", argv[0], flag, value);
          std::exit(2);
        }
        return v;
      };
      if (std::strcmp(argv[i], "--json") == 0) {
        args.json_path = need_value("--json");
      } else if (std::strcmp(argv[i], "--trace") == 0) {
        args.trace_path = need_value("--trace");
      } else if (std::strcmp(argv[i], "--minutes") == 0) {
        const char* value = need_value("--minutes");
        char* end = nullptr;
        args.minutes = std::strtod(value, &end);
        if (end == value || *end != '\0' || args.minutes < 0.0) {
          std::fprintf(stderr, "%s: --minutes expects a non-negative number, "
                       "got '%s'\n", argv[0], value);
          std::exit(2);
        }
      } else if (std::strcmp(argv[i], "--trials") == 0) {
        args.trials = static_cast<std::size_t>(need_uint("--trials"));
        args.trials_set = true;
        if (args.trials == 0) {
          std::fprintf(stderr, "%s: --trials must be >= 1\n", argv[0]);
          std::exit(2);
        }
      } else if (std::strcmp(argv[i], "--jobs") == 0) {
        args.jobs = static_cast<std::size_t>(need_uint("--jobs"));
      } else if (std::strcmp(argv[i], "--seed") == 0) {
        args.seed = need_uint("--seed");
        args.seed_set = true;
      } else {
        std::fprintf(stderr,
                     "usage: %s [--json <path>] [--trace <path>]"
                     " [--minutes <m>] [--trials <n>] [--jobs <m>]"
                     " [--seed <s>]\n",
                     argv[0]);
        std::exit(2);
      }
    }
    if (args.machine_output()) obs::enable();
    return args;
  }
};

/// Runs `fn` for --trials replications across --jobs workers, seeding
/// each trial from base_seed(default_seed) via the plan's derived
/// sub-streams. Trace capture and phase timers inside trials follow the
/// --trace/--json flags (each trial records into its own context; the
/// report shard-merges them).
inline runner::FleetResult run_trials(const Args& args,
                                      std::uint64_t default_seed,
                                      const runner::TrialFn& fn) {
  const runner::TrialPlan plan = runner::TrialPlan::replications(
      args.base_seed(default_seed), args.trials);
  runner::FleetOptions opts;
  opts.jobs = args.jobs;
  opts.trace = !args.trace_path.empty();
  opts.timing = args.machine_output();
  return runner::run_fleet(plan, opts, fn);
}

/// Prints the across-trial mean ± 95% CI for every aggregated path whose
/// dotted name starts with `prefix` (all paths when empty). No-op for a
/// single trial, where the aggregate adds nothing over the run itself.
inline void print_aggregate(const runner::FleetResult& fleet,
                            const std::string& prefix = "") {
  if (fleet.trial_results.size() < 2) return;
  const obs::Json::Object* paths = fleet.aggregate.as_object();
  if (paths == nullptr) return;
  std::printf("\naggregate over %zu trials (mean +/- ci95):\n",
              fleet.trial_results.size());
  for (const obs::Json::Member& m : *paths) {
    if (!prefix.empty() && m.first.rfind(prefix, 0) != 0) continue;
    const obs::Json* mean = m.second.find("mean");
    const obs::Json* ci = m.second.find("ci95");
    if (mean == nullptr || ci == nullptr) continue;
    std::printf("  %-40s %12.4f +/- %.4f\n", m.first.c_str(), mean->number(),
                ci->number());
  }
}

/// Build/run provenance attached to every JSON report under
/// "provenance" (docs/OBSERVABILITY.md): which source revision, compiler
/// and build type produced the numbers, and how parallel the run was.
/// HARP_GIT_SHA/HARP_BUILD_TYPE are configure-time injections
/// (bench/CMakeLists.txt) — a rebuild without re-configure can lag; the
/// trailing "+" marks a tree that was already dirty at configure time.
inline obs::Json provenance(std::size_t jobs) {
  obs::Json p;
#ifdef HARP_GIT_SHA
  p["git_sha"] = HARP_GIT_SHA;
#else
  p["git_sha"] = "unknown";
#endif
#if defined(__clang__)
  p["compiler"] = "clang";
  p["compiler_version"] = __clang_version__;
#elif defined(__GNUC__)
  p["compiler"] = "gcc";
  p["compiler_version"] = __VERSION__;
#else
  p["compiler"] = "unknown";
  p["compiler_version"] = "unknown";
#endif
#ifdef HARP_BUILD_TYPE
  p["build_type"] = HARP_BUILD_TYPE;
#else
  p["build_type"] = "unknown";
#endif
  p["jobs"] = static_cast<std::uint64_t>(jobs);
  p["hw_threads"] =
      static_cast<std::uint64_t>(std::thread::hardware_concurrency());
  return p;
}

/// Assembles and writes the machine-readable result document
/// (docs/OBSERVABILITY.md "Bench report format"):
///   {"schema": "harp-obs/1", "experiment": ..., "results": ...,
///    "metrics": <registry snapshot>}
/// `results()` is the binary-specific payload (series arrays, summary
/// scalars, paper-reference values). `write()` emits --json and --trace
/// if requested and is a no-op otherwise.
class JsonReport {
 public:
  JsonReport(std::string experiment, Args args)
      : experiment_(std::move(experiment)), args_(std::move(args)) {}

  obs::Json& results() { return results_; }

  void write() {
    if (!args_.json_path.empty()) {
      obs::Json doc;
      doc["schema"] = "harp-obs/1";
      doc["experiment"] = experiment_;
      doc["provenance"] = provenance(args_.jobs);
      doc["results"] = std::move(results_);
      doc["metrics"] = obs::MetricsRegistry::global().to_json();
      write_json(doc);
    }
    if (!args_.trace_path.empty()) {
      std::ofstream out = open(args_.trace_path);
      obs::TraceSink::global().write_jsonl(out);
      std::printf("[trace: %s, %zu events, %llu overwritten]\n",
                  args_.trace_path.c_str(), obs::TraceSink::global().size(),
                  static_cast<unsigned long long>(
                      obs::TraceSink::global().overwritten()));
    }
  }

  /// Fleet variant (docs/OBSERVABILITY.md "Fleet report format"):
  /// `results` stays the first trial's document — existing consumers keep
  /// working — and the fleet adds `fleet` (run parameters + the
  /// determinism fingerprint), `trials` (every per-trial document) and
  /// `aggregate` (dotted path -> summary stats). `metrics` becomes the
  /// shard-merged registry snapshot; `--trace` emits every trial's
  /// events tagged with their trial index.
  void write(const runner::FleetResult& fleet,
             std::uint64_t base_seed) {
    if (!args_.json_path.empty()) {
      obs::Json doc;
      doc["schema"] = "harp-obs/1";
      doc["experiment"] = experiment_;
      doc["provenance"] = provenance(args_.jobs);
      doc["results"] = std::move(results_);
      obs::Json& meta = doc["fleet"];
      meta["trials"] = static_cast<std::uint64_t>(fleet.trial_results.size());
      meta["jobs"] = static_cast<std::uint64_t>(fleet.jobs);
      meta["base_seed"] = base_seed;
      meta["fingerprint"] = hex64(fleet.fingerprint);
      meta["wall_seconds"] = fleet.wall_seconds;
      obs::Json& trials = doc["trials"];
      trials = obs::Json::array();
      for (const obs::Json& t : fleet.trial_results) trials.push_back(t);
      doc["aggregate"] = fleet.aggregate;
      doc["metrics"] = fleet.merged_metrics.to_json();
      write_json(doc);
    }
    if (!args_.trace_path.empty()) {
      std::ofstream out = open(args_.trace_path);
      fleet.write_trace_jsonl(out);
      std::printf("[trace: %s, %zu trial shards]\n", args_.trace_path.c_str(),
                  fleet.contexts.size());
    }
  }

 private:
  std::ofstream open(const std::string& path) {
    std::ofstream out(path);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", path.c_str());
      std::exit(1);
    }
    return out;
  }

  void write_json(const obs::Json& doc) {
    std::ofstream out = open(args_.json_path);
    doc.dump(out);
    out << "\n";
    std::printf("[json report: %s]\n", args_.json_path.c_str());
  }

  std::string experiment_;
  Args args_;
  obs::Json results_;
};

}  // namespace harp::bench
