// harp_scenario: run a `.scn` scenario script (docs/RUNNER.md "Scenario
// scripts"; examples/scenarios/) on the full HARP simulation — agents over
// the management plane plus the TSCH data plane — as a fleet of trials,
// each seeded from --seed (default 1). Prints every result figure, as
// mean +/- 95% CI when there are several trials.
//
// Usage: harp_scenario [--trials n] [--jobs m] [--seed s] <scenario-file>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>

#include "common/error.hpp"
#include "runner/fleet.hpp"
#include "runner/scenario.hpp"

using namespace harp;

int main(int argc, char** argv) {
  std::size_t trials = 1;
  runner::FleetOptions opts;
  std::uint64_t seed = 1;
  const char* path = nullptr;
  const auto usage = [&] {
    std::fprintf(stderr,
                 "usage: %s [--trials <n>] [--jobs <m>] [--seed <s>] "
                 "<scenario-file>\n",
                 argv[0]);
    std::exit(2);  // NOLINT(concurrency-mt-unsafe) before any thread starts
  };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg[0] != '-') {
      if (path != nullptr) usage();
      path = argv[i];
      continue;
    }
    if (++i >= argc || argv[i][0] < '0' || argv[i][0] > '9') usage();
    char* end = nullptr;
    const unsigned long long value = std::strtoull(argv[i], &end, 10);
    if (*end != '\0') usage();
    if (arg == "--trials" && value > 0) {
      trials = value;
    } else if (arg == "--jobs") {
      opts.jobs = value;
    } else if (arg == "--seed") {
      seed = value;
    } else {
      usage();
    }
  }
  if (path == nullptr) usage();
  // Never start more workers than there are trials.
  if (opts.jobs > trials) opts.jobs = trials;

  try {
    std::ifstream file(path);
    if (!file) throw Error("cannot open the file");
    const runner::ScenarioSpec spec = runner::parse_scenario(file);
    const runner::FleetResult fleet = runner::run_fleet(
        runner::TrialPlan::replications(seed, trials), opts,
        [&spec](const runner::TrialSpec& t) {
          return runner::run_scenario(spec, t.seed);
        });
    // Every numeric result field: its value, or with several trials its
    // mean +/- 95% CI half-width.
    std::printf("scenario %s: seed %llu, %zu trial(s)%s\n",
                std::filesystem::path(path).stem().c_str(),
                static_cast<unsigned long long>(seed), trials,
                trials > 1 ? ", mean +/- ci95" : "");
    for (const obs::Json::Member& m : *fleet.aggregate.as_object()) {
      std::printf("  %-28s %10g", m.first.c_str(),
                  m.second.find("mean")->number());
      if (trials > 1) std::printf(" +/- %g", m.second.find("ci95")->number());
      std::printf("\n");
    }
    std::printf("fingerprint %016llx\n",
                static_cast<unsigned long long>(fleet.fingerprint));
  } catch (const Error& e) {
    std::fprintf(stderr, "%s: %s\n", path, e.what());
    return 1;
  }
  return 0;
}
