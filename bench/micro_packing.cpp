// Experiment E10 — microbenchmarks (google-benchmark): throughput of the
// algorithmic kernels HARP runs on constrained devices — skyline strip
// packing, MaxRects feasibility packing, Alg. 1 composition, Alg. 2
// adjustment — plus whole-engine bootstrap and a dynamic request.
//
// These bound the on-node compute cost the paper argues is affordable for
// class CC2650 hardware (composition inputs are single-digit rectangle
// counts; everything here is microseconds).
//
// Two modes share one binary:
//   * default          — google-benchmark, interactive tuning runs;
//   * --json <path>    — the CI gate (scripts/bench_compare.py, experiment
//     `micro_packing`): the same kernel workloads, self-timed with median
//     sampling, each digested placement-by-placement into a 64-bit
//     checksum. The checksums pin the bit-identical contract of
//     docs/KERNELS.md — any layout difference between code versions fails
//     the gate exactly; timings are gated loosely (microbenchmark noise).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstring>

#include "bench/bench_util.hpp"
#include "common/hash.hpp"
#include "common/rng.hpp"
#include "harp/adjustment.hpp"
#include "harp/compose.hpp"
#include "harp/engine.hpp"
#include "net/topology_gen.hpp"
#include "net/traffic.hpp"
#include "packing/maxrects.hpp"
#include "packing/skyline.hpp"

using namespace harp;

namespace {

std::vector<packing::Rect> random_rects(std::uint64_t seed, std::size_t n,
                                        packing::Dim max_w,
                                        packing::Dim max_h) {
  Rng rng(seed);
  std::vector<packing::Rect> rects;
  for (std::size_t i = 0; i < n; ++i) {
    rects.push_back({static_cast<packing::Dim>(rng.between(1, max_w)),
                     static_cast<packing::Dim>(rng.between(1, max_h)), i});
  }
  return rects;
}

void BM_SkylinePack(benchmark::State& state) {
  const auto rects =
      random_rects(1, static_cast<std::size_t>(state.range(0)), 8, 12);
  for (auto _ : state) {
    benchmark::DoNotOptimize(packing::pack_strip(rects, 16));
  }
}
BENCHMARK(BM_SkylinePack)->Arg(6)->Arg(16)->Arg(64)->Arg(256);

void BM_MaxRectsPack(benchmark::State& state) {
  const auto rects =
      random_rects(2, static_cast<std::size_t>(state.range(0)), 6, 20);
  for (auto _ : state) {
    packing::FixedBinPacker bin(199, 16);
    benchmark::DoNotOptimize(bin.try_pack(rects));
  }
}
BENCHMARK(BM_MaxRectsPack)->Arg(6)->Arg(16)->Arg(64);

std::vector<core::ChildComponent> compose_children(int n) {
  Rng rng(3);
  std::vector<core::ChildComponent> children;
  for (int i = 1; i <= n; ++i) {
    children.push_back({static_cast<NodeId>(i),
                        {static_cast<int>(rng.between(1, 12)),
                         static_cast<int>(rng.between(1, 4))}});
  }
  return children;
}

void BM_Compose(benchmark::State& state) {
  const auto children = compose_children(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::compose_components(children, 16));
  }
}
BENCHMARK(BM_Compose)->Arg(3)->Arg(6)->Arg(12);

struct AdjustmentCase {
  std::vector<packing::Placement> layout;
  NodeId child;
};

AdjustmentCase adjustment_case() {
  Rng rng(4);
  packing::FixedBinPacker bin(40, 8);
  AdjustmentCase out;
  for (std::uint64_t id = 1; id <= 8; ++id) {
    if (auto p = bin.insert({rng.between(2, 8), rng.between(1, 3), id})) {
      out.layout.push_back(*p);
    }
  }
  out.child = static_cast<NodeId>(out.layout.front().id);
  return out;
}

void BM_Adjustment(benchmark::State& state) {
  const AdjustmentCase c = adjustment_case();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::adjust_partition_layout({40, 8}, c.layout, c.child, {12, 3}));
  }
}
BENCHMARK(BM_Adjustment);

void BM_EngineBootstrap(benchmark::State& state) {
  const auto topo = net::testbed_tree();
  const auto tasks = net::uniform_echo_tasks(topo, 199);
  const net::SlotframeConfig frame;
  for (auto _ : state) {
    core::HarpEngine engine(topo, tasks, frame);
    benchmark::DoNotOptimize(engine.schedule().total_cells());
  }
}
BENCHMARK(BM_EngineBootstrap);

void BM_EngineDynamicRequest(benchmark::State& state) {
  const auto topo = net::testbed_tree();
  const auto tasks = net::uniform_echo_tasks(topo, 199);
  net::SlotframeConfig frame;
  frame.data_slots = 180;
  core::HarpEngine engine(topo, tasks, frame);
  int demand = 1;
  for (auto _ : state) {
    demand = (demand == 1) ? 2 : 1;
    benchmark::DoNotOptimize(
        engine.request_demand(49, Direction::kUp, demand));
  }
}
BENCHMARK(BM_EngineDynamicRequest);

// ------------------------------------------------------------ gate mode

std::uint64_t digest_u64(std::uint64_t h, std::uint64_t v) {
  return harp::fnv1a(h, &v, sizeof v);
}

std::uint64_t digest_placements(
    std::uint64_t h, const std::vector<packing::Placement>& placements) {
  h = digest_u64(h, placements.size());
  for (const auto& p : placements) {
    h = digest_u64(h, static_cast<std::uint64_t>(p.x));
    h = digest_u64(h, static_cast<std::uint64_t>(p.y));
    h = digest_u64(h, static_cast<std::uint64_t>(p.w));
    h = digest_u64(h, static_cast<std::uint64_t>(p.h));
    h = digest_u64(h, p.id);
  }
  return h;
}

std::string hex64(std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

/// Median ns/op over `samples` timed batches of `iters` calls each. The
/// batches amortize clock reads; the median rejects scheduler hiccups.
template <typename Fn>
double median_ns_per_op(int samples, int iters, Fn&& fn) {
  std::vector<double> ns(static_cast<std::size_t>(samples));
  for (double& sample : ns) {
    const auto start = std::chrono::steady_clock::now();
    for (int i = 0; i < iters; ++i) fn();
    const auto stop = std::chrono::steady_clock::now();
    sample = std::chrono::duration<double, std::nano>(stop - start).count() /
             iters;
  }
  std::sort(ns.begin(), ns.end());
  return ns[ns.size() / 2];
}

void gate_kernel(obs::Json& kernels, const std::string& name,
                 std::uint64_t checksum, double ns_per_op) {
  obs::Json& k = kernels[name];
  k["checksum"] = hex64(checksum);
  k["ns_per_op"] = ns_per_op;
  std::printf("%-16s %18s  %10.1f ns/op\n", name.c_str(),
              hex64(checksum).c_str(), ns_per_op);
}

int run_gate(int argc, char** argv) {
  const bench::Args args = bench::Args::parse(argc, argv);
  bench::JsonReport report("micro_packing", args);
  obs::Json& kernels = report.results()["kernels"];
  constexpr int kSamples = 15;

  // Skyline strip packing: the SoA kernel through its production entry
  // point, digested against the scalar oracle in the same run — the gate
  // re-proves the bit-identical contract before pinning the checksum.
  for (const std::size_t n : {std::size_t{6}, std::size_t{16},
                              std::size_t{64}, std::size_t{256}}) {
    const auto rects = random_rects(1, n, 8, 12);
    packing::PackScratch scratch, ref_scratch;
    packing::StripResult out, ref;
    packing::pack_strip_into(rects, 16, scratch, out);
    packing::pack_strip_reference_into(rects, 16, ref_scratch, ref);
    if (out.height != ref.height || out.placements != ref.placements) {
      std::fprintf(stderr, "skyline_n%zu: SoA and reference diverged\n", n);
      return 1;
    }
    std::uint64_t sum = digest_u64(harp::kFnvOffset,
                                   static_cast<std::uint64_t>(out.height));
    sum = digest_placements(sum, out.placements);
    const int iters = static_cast<int>(20000 / n) + 1;
    const double ns = median_ns_per_op(kSamples, iters, [&] {
      packing::pack_strip_into(rects, 16, scratch, out);
    });
    gate_kernel(kernels, "skyline_n" + std::to_string(n), sum, ns);
  }

  // MaxRects feasibility packing (fresh bin per op, as the adjustment
  // path uses it).
  for (const std::size_t n :
       {std::size_t{6}, std::size_t{16}, std::size_t{64}}) {
    const auto rects = random_rects(2, n, 6, 20);
    packing::FixedBinPacker bin(199, 16);
    const auto packed = bin.try_pack(rects);
    std::uint64_t sum =
        digest_u64(harp::kFnvOffset, packed.has_value() ? 1 : 0);
    if (packed) sum = digest_placements(sum, *packed);
    const int iters = static_cast<int>(4000 / n) + 1;
    const double ns = median_ns_per_op(kSamples, iters, [&] {
      packing::FixedBinPacker fresh(199, 16);
      benchmark::DoNotOptimize(fresh.try_pack(rects));
    });
    gate_kernel(kernels, "maxrects_n" + std::to_string(n), sum, ns);
  }

  // Alg. 1 composition (double mapping) through the scratch-reusing core.
  for (const int n : {3, 6, 12}) {
    const auto children = compose_children(n);
    core::ComposeScratch scratch;
    core::Composition comp;
    core::compose_components_into(children, 16, scratch, comp);
    std::uint64_t sum = digest_u64(
        harp::kFnvOffset, static_cast<std::uint64_t>(comp.composite.slots));
    sum = digest_u64(sum, static_cast<std::uint64_t>(comp.composite.channels));
    sum = digest_placements(sum, comp.layout);
    const double ns = median_ns_per_op(kSamples, 4000, [&] {
      core::compose_components_into(children, 16, scratch, comp);
    });
    gate_kernel(kernels, "compose_n" + std::to_string(n), sum, ns);
  }

  // Alg. 2 partition adjustment.
  {
    const AdjustmentCase c = adjustment_case();
    const core::AdjustOutcome out =
        core::adjust_partition_layout({40, 8}, c.layout, c.child, {12, 3});
    std::uint64_t sum = digest_u64(harp::kFnvOffset, out.success ? 1 : 0);
    sum = digest_placements(sum, out.layout);
    const double ns = median_ns_per_op(kSamples, 2000, [&] {
      benchmark::DoNotOptimize(
          core::adjust_partition_layout({40, 8}, c.layout, c.child, {12, 3}));
    });
    gate_kernel(kernels, "adjustment", sum, ns);
  }

  report.write();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 ||
        std::strcmp(argv[i], "--trace") == 0) {
      return run_gate(argc, argv);
    }
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
