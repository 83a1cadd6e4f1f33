// ScenarioSpec: a declarative, value-typed simulation experiment.
//
// One spec pins everything a trial needs except its seed: topology source
// (fixed tree or random-tree generator parameters), echo traffic,
// slotframe, simulation options, run length and a timeline of dynamics,
// jamming and report checkpoints. A TrialPlan can replicate it N times
// (each replication with its own derived seed), and run_scenario(spec,
// seed) — a full HarpSimulation run — is a pure function of its two
// arguments, the property every fleet determinism guarantee rests on.
// parse_scenario() reads a spec from a `.scn` script, which is how
// examples/harp_scenario drives it.
#pragma once

#include <cstdint>
#include <istream>
#include <vector>

#include "common/types.hpp"
#include "net/slotframe.hpp"
#include "net/topology_gen.hpp"
#include "obs/json.hpp"

namespace harp::runner {

struct ScenarioSpec {
  enum class TopologyKind : std::uint8_t { kFig1, kTestbed, kRandom };

  /// One scripted action, applied at `at_frame` measurement frames into
  /// the run (actions at the same frame apply in list order).
  struct Action {
    enum class Kind : std::uint8_t {
      kTaskRate,    // change_task_rate(task a, period value)
      kLinkDemand,  // change_link_demand(child a, dir, cells value)
      kJoin,        // join_node(parent a, up value, down value2,
                    //           echo period b; 0 = no echo task)
      kLeave,       // leave_node(a)
      kRoam,        // roam_node(a, new parent b)
      kJam,         // channel a succeeds x factor for the next value frames
      kReport,      // checkpoint: appends a delivery report to "reports"
    };
    Kind kind{Kind::kTaskRate};
    std::uint64_t at_frame{0};
    std::uint32_t a{0};      // task / node / parent / channel id
    std::uint32_t b{0};      // roam target / join echo period
    std::int32_t value{0};   // period_slots / cells / up_cells / frames
    std::int32_t value2{0};  // down_cells (join)
    double factor{0.0};      // success multiplier (jam)
    Direction dir{Direction::kUp};
  };

  // --- topology ---
  TopologyKind topology{TopologyKind::kTestbed};
  net::RandomTreeSpec random_tree;  // used when topology == kRandom

  // --- traffic: uniform echo tasks, one per non-gateway node ---
  std::uint32_t task_period_slots = 199;
  std::uint32_t task_deadline_slots = 0;  // 0 = implicit (the period)

  // --- slotframe + simulation options ---
  net::SlotframeConfig frame;
  double pdr = 1.0;
  std::size_t queue_capacity = 128;
  int own_slack = 0;

  // --- run length ---
  std::uint64_t warmup_frames = 0;
  std::uint64_t measure_frames = 60;

  // --- scripted timeline ---
  std::vector<Action> dynamics;
};

/// Executes one trial of `spec` with `seed` and returns its result
/// document (docs/RUNNER.md "Scenario results"). Deterministic in
/// (spec, seed); records into the caller's current obs context.
obs::Json run_scenario(const ScenarioSpec& spec, std::uint64_t seed);

/// Reads a `.scn` script (docs/RUNNER.md "Scenario scripts"). Setup
/// commands precede `bootstrap`; each `run frames=N` then advances the
/// timeline, and actions and `report` checkpoints land at the frame
/// reached so far. Throws InvalidArgument("line N: ...") on an unknown
/// command or key, a missing or malformed value, or an action before
/// `bootstrap`.
ScenarioSpec parse_scenario(std::istream& in);

}  // namespace harp::runner
