// Pinned state digests.
//
// Every other fingerprint test compares two outputs of the same digest
// function (cache on vs off, 1 vs N jobs, lockstep vs event-driven), so a
// change to the digest itself would pass all of them. The literals below
// were captured from the straightforward byte-wise FNV-1a implementation
// (one multiply per byte, state walked through the per-layer accessors);
// the fast fold in common/hash.hpp and the allocation-free state walks
// must reproduce them bit for bit.
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "harp/engine.hpp"
#include "net/topology_gen.hpp"
#include "net/traffic.hpp"
#include "rt/runtime.hpp"

namespace harp {
namespace {

constexpr std::uint64_t kTestbedEngineFp = 0x4dc5f105d2c32c46;
constexpr std::uint64_t kTestbedRtFp = 0xb9009b3542c27290;
constexpr std::uint64_t kPlantEngineFp = 0x57ee8677f26ac60a;
constexpr std::uint64_t kPlantRtFp = 0xe6bf455d5b540306;

/// The seed-42 220-node, 7-layer plant in its 1999x16 frame (the one
/// DataPlane.InterferedPlantChecksumIsPinned in sim_test runs).
core::HarpEngine plant_engine(core::EngineOptions options) {
  Rng rng(42);
  net::Topology topo = net::random_tree(
      {.num_nodes = 220, .num_layers = 7, .max_children = 4}, rng);
  net::SlotframeConfig frame;
  frame.length = 1999;
  frame.num_channels = 16;
  frame.data_slots = 1930;
  std::vector<net::Task> tasks = net::uniform_echo_tasks(topo, frame.length);
  return core::HarpEngine(std::move(topo), std::move(tasks), frame, options);
}

/// A fixed churn script touching every mutation path: demand changes in
/// both directions, leaf joins, departures and roams, and one recompaction
/// in the middle. Rejections are deterministic and simply leave state as
/// it was.
void churn(core::HarpEngine& engine) {
  Rng rng(derive_seed(42, 1));
  std::vector<NodeId> joined;
  for (int step = 0; step < 80; ++step) {
    try {
      const NodeId node = 1 + static_cast<NodeId>(rng.below(219));
      const Direction dir =
          rng.chance(0.5) ? Direction::kUp : Direction::kDown;
      engine.request_demand(node, dir, 1 + static_cast<int>(rng.below(3)));
      if (step % 10 == 3) {
        const NodeId parent = 1 + static_cast<NodeId>(rng.below(30));
        joined.push_back(engine.attach_leaf(parent, 1, 1).node);
      }
      if (step % 15 == 7 && !joined.empty()) {
        engine.detach_leaf(joined.back());
        joined.pop_back();
      }
      if (step % 20 == 11 && !joined.empty()) {
        const NodeId parent = 1 + static_cast<NodeId>(rng.below(30));
        engine.reparent_leaf(joined.front(), parent);
      }
      if (step == 40) engine.recompact();
    } catch (const Error&) {
      // Inadmissible change: state unchanged, identically on every run.
    }
  }
}

TEST(DigestGolden, TestbedAfterBootstrap) {
  const core::HarpEngine engine(
      net::testbed_tree(), net::uniform_echo_tasks(net::testbed_tree(), 199),
      net::SlotframeConfig{});
  EXPECT_EQ(engine.state_fingerprint(), kTestbedEngineFp)
      << std::hex << engine.state_fingerprint();
  const std::uint64_t rt_fp =
      rt::state_fingerprint(engine.partitions(), engine.schedule());
  EXPECT_EQ(rt_fp, kTestbedRtFp) << std::hex << rt_fp;
}

TEST(DigestGolden, PlantAfterChurn) {
  core::HarpEngine engine = plant_engine({});
  churn(engine);
  ASSERT_EQ(engine.validate(), "");
  EXPECT_EQ(engine.state_fingerprint(), kPlantEngineFp)
      << std::hex << engine.state_fingerprint();
  const std::uint64_t rt_fp =
      rt::state_fingerprint(engine.partitions(), engine.schedule());
  EXPECT_EQ(rt_fp, kPlantRtFp) << std::hex << rt_fp;
}

TEST(DigestGolden, PlantAfterChurnWithoutComposeCache) {
  core::HarpEngine engine = plant_engine({.compose_cache = false});
  churn(engine);
  EXPECT_EQ(engine.state_fingerprint(), kPlantEngineFp)
      << std::hex << engine.state_fingerprint();
}

}  // namespace
}  // namespace harp
