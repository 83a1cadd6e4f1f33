// Experiment P1 — steady-state hot-path macro-benchmark.
//
// Pins the two performance-critical paths of the reproduction with one
// reproducible workload (fixed seeds end to end):
//   1. the simulator's per-slot loop (`harp.sim` slots/sec): a large
//      generated topology runs hundreds of slotframes of data-plane
//      traffic under a lossy channel plus narrowband interference bursts;
//   2. the engine's dynamic-adjustment path (`harp.engine.adjust_ns`):
//      a churn phase issues thousands of demand changes and records the
//      wall-clock latency of each `request_demand` call.
//
// The emitted JSON (harp-obs/1, see docs/PERFORMANCE.md) carries both the
// throughput/latency figures and a determinism checksum (generated /
// delivered / dropped / collision / loss counts) so `scripts/
// bench_compare.py` can simultaneously gate performance regressions and
// prove that optimization work did not change simulation semantics.
//
// Extra flags on top of the shared contract (bench_util.hpp):
//   --ref-sim <slots/sec>      reference throughput from an earlier run
//   --ref-adjust-ns <median>   reference adjustment median from that run
// When given, the report embeds them under results.reference with the
// speedup ratios — this is how the optimization trajectory is recorded
// (docs/PERFORMANCE.md).
#include <cstdint>
#include <vector>

#include "bench/bench_util.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "harp/engine.hpp"
#include "net/topology_gen.hpp"
#include "net/traffic.hpp"
#include "obs/obs.hpp"
#include "sim/data_plane.hpp"

using namespace harp;

namespace {

// Workload constants. Fixed — the checksum in the report is only
// comparable across runs of the identical workload.
constexpr std::uint64_t kTopoSeed = 42;
constexpr std::uint64_t kSimSeed = 7;
constexpr std::size_t kNumNodes = 220;
constexpr int kNumLayers = 7;
constexpr AbsoluteSlot kWarmupFrames = 5;
constexpr AbsoluteSlot kMeasuredFrames = 300;
constexpr int kChurnRounds = 12;

net::SlotframeConfig bench_frame() {
  net::SlotframeConfig f;
  f.length = 1999;
  f.num_channels = 16;
  f.data_slots = 1930;
  return f;
}

std::uint64_t counter(const char* name) {
  return obs::MetricsRegistry::global().counter(name).value();
}

}  // namespace

int main(int argc, char** argv) {
  // Peel off the reference flags before handing the rest to the shared
  // parser (which rejects flags it does not know).
  double ref_sim = 0.0, ref_adjust_ns = 0.0;
  std::vector<char*> rest{argv[0]};
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--ref-sim") == 0 && i + 1 < argc) {
      ref_sim = std::strtod(argv[++i], nullptr);
    } else if (std::strcmp(argv[i], "--ref-adjust-ns") == 0 && i + 1 < argc) {
      ref_adjust_ns = std::strtod(argv[++i], nullptr);
    } else {
      rest.push_back(argv[i]);
    }
  }
  bench::Args args =
      bench::Args::parse(static_cast<int>(rest.size()), rest.data());
  // Measure the bare hot path: phase timers and the trace ring buffer
  // would add a fixed per-event cost that is not what this benchmark pins
  // (counters are always on and stay in the snapshot).
  obs::disable();

  Rng topo_rng(kTopoSeed);
  const auto topo = net::random_tree(
      {.num_nodes = kNumNodes, .num_layers = kNumLayers, .max_children = 4},
      topo_rng);
  const net::SlotframeConfig frame = bench_frame();
  const auto tasks = net::uniform_echo_tasks(topo, frame.length);

  // ------------------------------------------------ phase 1: slot loop
  core::HarpEngine engine(topo, tasks, frame);
  sim::DataPlane data(topo, tasks, {frame, /*pdr=*/0.97, 128}, kSimSeed);
  data.set_schedule(engine.schedule());
  // Narrowband interference: 48 bursts cycling over the channels, each
  // 2000 slots long, so success_probability runs against a live and a
  // growing-expired burst population.
  for (int k = 0; k < 48; ++k) {
    data.add_interference(static_cast<ChannelId>(k % frame.num_channels),
                          static_cast<AbsoluteSlot>(k) * 5000,
                          static_cast<AbsoluteSlot>(k) * 5000 + 2000, 0.85);
  }

  data.run_frames(kWarmupFrames);
  bench::Timer sim_timer;
  data.run_frames(kMeasuredFrames);
  const double sim_wall_s = sim_timer.seconds();
  const AbsoluteSlot measured_slots = kMeasuredFrames * frame.length;
  const double slots_per_sec =
      static_cast<double>(measured_slots) / sim_wall_s;

  // ---------------------------------------------- phase 2: churn loop
  // A fresh engine so the adjustment numbers start from the canonical
  // bootstrap state. Demands cycle 1 -> 2 -> 3 -> 1 on every device link,
  // mixing local absorptions, escalations and releases exactly like a
  // long-running dynamic network.
  core::HarpEngine churn_engine(topo, tasks, frame);
  Stats adjust_ns;  // whole nanoseconds per request_demand call
  std::size_t satisfied = 0;
  for (int round = 0; round < kChurnRounds; ++round) {
    for (NodeId child = 1; child < topo.size(); ++child) {
      const Direction dir =
          ((round + child) % 2 == 0) ? Direction::kUp : Direction::kDown;
      const int cells = 1 + (round + static_cast<int>(child)) % 3;
      bench::Timer t;
      const auto r = churn_engine.request_demand(child, dir, cells);
      adjust_ns.add(static_cast<double>(
          static_cast<std::uint64_t>(t.seconds() * 1e9)));
      if (r.satisfied) ++satisfied;
    }
  }
  const double mean_ns = adjust_ns.mean();
  const double median_ns = adjust_ns.median();
  const double p90_ns = adjust_ns.percentile(90.0);

  // -------------------------------------------------------- reporting
  bench::Table table({"metric", "value"}, 26);
  table.row({"sim slots/sec", bench::fmt(slots_per_sec, 0)});
  table.row({"sim wall seconds", bench::fmt(sim_wall_s, 3)});
  table.row({"adjust median us", bench::fmt(median_ns / 1e3, 2)});
  table.row({"adjust p90 us", bench::fmt(p90_ns / 1e3, 2)});
  table.row({"adjust mean us", bench::fmt(mean_ns / 1e3, 2)});
  table.row({"adjustments", std::to_string(adjust_ns.count())});
  table.print();

  bench::JsonReport report("perf_steady_state", args);
  obs::Json& results = report.results();
  results["topology"]["nodes"] = static_cast<std::int64_t>(kNumNodes);
  results["topology"]["layers"] = static_cast<std::int64_t>(kNumLayers);
  results["topology"]["seed"] = static_cast<std::int64_t>(kTopoSeed);
  results["frame"]["length"] = static_cast<std::int64_t>(frame.length);
  results["frame"]["channels"] =
      static_cast<std::int64_t>(frame.num_channels);
  results["frame"]["data_slots"] = static_cast<std::int64_t>(frame.data_slots);

  obs::Json& sim = results["sim"];
  sim["frames"] = static_cast<std::int64_t>(kMeasuredFrames);
  sim["slots"] = static_cast<std::int64_t>(measured_slots);
  sim["wall_seconds"] = sim_wall_s;
  sim["slots_per_sec"] = slots_per_sec;
  obs::Json& checksum = sim["checksum"];
  checksum["generated"] =
      static_cast<std::int64_t>(data.metrics().total_generated());
  checksum["delivered"] =
      static_cast<std::int64_t>(data.metrics().total_delivered());
  checksum["dropped"] =
      static_cast<std::int64_t>(data.metrics().total_dropped());
  checksum["deadline_misses"] =
      static_cast<std::int64_t>(data.metrics().total_deadline_misses());
  checksum["tx_attempts"] =
      static_cast<std::int64_t>(counter("harp.sim.tx_attempts"));
  checksum["tx_success"] =
      static_cast<std::int64_t>(counter("harp.sim.tx_success"));
  checksum["collisions"] =
      static_cast<std::int64_t>(counter("harp.sim.tx_collisions"));
  checksum["link_loss"] =
      static_cast<std::int64_t>(counter("harp.sim.tx_link_loss"));

  obs::Json& adjust = results["adjust"];
  adjust["count"] = static_cast<std::int64_t>(adjust_ns.count());
  adjust["satisfied"] = static_cast<std::int64_t>(satisfied);
  adjust["median_ns"] = median_ns;
  adjust["p90_ns"] = p90_ns;
  adjust["mean_ns"] = mean_ns;

  if (ref_sim > 0.0 && ref_adjust_ns > 0.0) {
    obs::Json& reference = results["reference"];
    reference["slots_per_sec"] = ref_sim;
    reference["adjust_median_ns"] = ref_adjust_ns;
    reference["speedup_sim"] = slots_per_sec / ref_sim;
    reference["speedup_adjust"] = ref_adjust_ns / median_ns;
    std::printf("speedup vs reference: sim %.2fx, adjust median %.2fx\n",
                slots_per_sec / ref_sim, ref_adjust_ns / median_ns);
  }

  report.write();
  return 0;
}
