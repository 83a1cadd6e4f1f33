// Experiment E10 — kernel microbenchmarks: throughput of the algorithmic
// kernels HARP runs on constrained devices — skyline strip packing,
// MaxRects feasibility packing, Alg. 1 composition and Alg. 2 adjustment.
//
// These bound the on-node compute cost the paper argues is affordable for
// class CC2650 hardware (composition inputs are single-digit rectangle
// counts; everything here is microseconds).
//
// Every kernel is self-timed with median sampling and digested
// placement-by-placement into a 64-bit checksum. The checksums pin the
// bit-identical contract of docs/KERNELS.md: the bench checks each one
// against its literal below and exits 1 on any mismatch, so a layout
// change fails here whatever the timings say. With `--json <path>` the
// checksums and ns/op go out as a harp-obs/1 report.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.hpp"
#include "common/hash.hpp"
#include "common/rng.hpp"
#include "harp/adjustment.hpp"
#include "harp/compose.hpp"
#include "packing/maxrects.hpp"
#include "packing/skyline.hpp"

using namespace harp;

namespace {

/// Keeps a timed call's result observable, so the optimizer cannot drop
/// the call.
volatile std::size_t g_sink = 0;

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

/// The pinned checksum of every kernel case: its full output for the
/// fixed inputs above.
struct Pin {
  const char* kernel;
  const char* checksum;
};
constexpr Pin kPins[] = {
    {"skyline_n6", "05f4a5f24d42a65a"},   {"skyline_n16", "660a157c0186378b"},
    {"skyline_n64", "8916bd982c67f00c"},  {"skyline_n256", "fc3df0633588bfd7"},
    {"maxrects_n6", "46a0d87fc5b9b7c2"},  {"maxrects_n16", "15745b404568c77f"},
    {"maxrects_n64", "2646027b28c4f311"}, {"compose_n3", "a436687fda57a161"},
    {"compose_n6", "14b294b49e1e4acd"},   {"compose_n12", "c4ab2984a0d91f14"},
    {"adjustment", "6bdb6ae83a835ba4"},
};

void report_kernel(obs::Json& kernels, bench::Checks& checks,
                   const std::string& name, std::uint64_t checksum,
                   double ns_per_op) {
  const std::string hex = bench::hex64(checksum);
  obs::Json& k = kernels[name];
  k["checksum"] = hex;
  k["ns_per_op"] = ns_per_op;
  std::printf("%-16s %18s  %10.1f ns/op\n", name.c_str(), hex.c_str(),
              ns_per_op);
  const auto pin = std::find_if(std::begin(kPins), std::end(kPins),
                                [&](const Pin& p) { return p.kernel == name; });
  checks.pin(name + " checksum", hex,
             pin == std::end(kPins) ? "none" : pin->checksum);
}

}  // namespace

int main(int argc, char** argv) {
  const bench::Args args = bench::Args::parse(argc, argv);
  bench::JsonReport report("micro_packing", args);
  obs::Json& kernels = report.results()["kernels"];
  bench::Checks checks;
  constexpr int kSamples = 15;

  // Skyline strip packing: the SoA kernel through its production entry
  // point, checked against the scalar reference in the same run.
  for (const std::size_t n : {std::size_t{6}, std::size_t{16},
                              std::size_t{64}, std::size_t{256}}) {
    const auto rects = random_rects(1, n, 8, 12);
    packing::PackScratch scratch, ref_scratch;
    packing::StripResult out, ref;
    packing::pack_strip_into(rects, 16, scratch, out);
    packing::pack_strip_reference_into(rects, 16, ref_scratch, ref);
    const std::string name = "skyline_n" + std::to_string(n);
    if (out.height != ref.height || out.placements != ref.placements) {
      checks.fail(name + ": SoA and reference diverged");
    }
    std::uint64_t sum = digest_u64(harp::kFnvOffset,
                                   static_cast<std::uint64_t>(out.height));
    sum = digest_placements(sum, out.placements);
    const int iters = static_cast<int>(20000 / n) + 1;
    const double ns = median_ns_per_op(kSamples, iters, [&] {
      packing::pack_strip_into(rects, 16, scratch, out);
    });
    report_kernel(kernels, checks, name, sum, ns);
  }

  // MaxRects feasibility packing (fresh bin per op, as the adjustment
  // path uses it). Heights span 1..4 channels, the range compose_children
  // draws, so every case packs and the timing is of a real packing.
  for (const std::size_t n :
       {std::size_t{6}, std::size_t{16}, std::size_t{64}}) {
    const auto rects = random_rects(2, n, 6, 4);
    packing::FixedBinPacker bin(199, 16);
    const auto packed = bin.try_pack(rects);
    const std::string name = "maxrects_n" + std::to_string(n);
    if (!packed) checks.fail(name + ": rects do not fit the bin");
    std::uint64_t sum =
        digest_u64(harp::kFnvOffset, packed.has_value() ? 1 : 0);
    if (packed) sum = digest_placements(sum, *packed);
    const int iters = static_cast<int>(4000 / n) + 1;
    const double ns = median_ns_per_op(kSamples, iters, [&] {
      packing::FixedBinPacker fresh(199, 16);
      g_sink = fresh.try_pack(rects).has_value();
    });
    report_kernel(kernels, checks, name, sum, ns);
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
    report_kernel(kernels, checks, "compose_n" + std::to_string(n), sum, ns);
  }

  // Alg. 2 partition adjustment.
  {
    const AdjustmentCase c = adjustment_case();
    const core::AdjustOutcome out =
        core::adjust_partition_layout({40, 8}, c.layout, c.child, {12, 3});
    std::uint64_t sum = digest_u64(harp::kFnvOffset, out.success ? 1 : 0);
    sum = digest_placements(sum, out.layout);
    const double ns = median_ns_per_op(kSamples, 2000, [&] {
      g_sink = core::adjust_partition_layout({40, 8}, c.layout, c.child,
                                             {12, 3})
                   .layout.size();
    });
    report_kernel(kernels, checks, "adjustment", sum, ns);
  }

  report.write();
  return checks.exit_code();
}
