// Test helper: a whole network of HARP agents run by rt::ProtoRuntime
// over an in-memory LoopbackChannel with ARQ off, so every message is
// delivered in exact send order. The protocol tests' reference network.
#pragma once

#include <gtest/gtest.h>

#include <span>

#include "harp/engine.hpp"
#include "net/task.hpp"
#include "net/topology.hpp"
#include "net/traffic.hpp"
#include "rt/channel.hpp"
#include "rt/dispatcher.hpp"
#include "rt/runtime.hpp"

namespace harp {

/// The dispatcher and channel a LoopbackAgents runs on. A base class so
/// both exist before the ProtoRuntime base that references them.
struct LoopbackWire {
  rt::Dispatcher dispatcher;
  rt::LoopbackChannel channel{dispatcher};
};

class LoopbackAgents : private LoopbackWire, public rt::ProtoRuntime {
 public:
  LoopbackAgents(const net::Topology& topo, const net::TrafficMatrix& traffic,
                 const net::SlotframeConfig& frame,
                 std::span<const net::Task> tasks = {}, int own_slack = 0)
      : rt::ProtoRuntime(topo, traffic, frame, dispatcher, channel, tasks,
                         own_slack,
                         rt::RuntimeOptions{.arq = {.enabled = false}}) {}
};

/// Whether the agents' own interface rows equal the engine's interface
/// sets (components and layouts, every node, layer and direction); names
/// the first node that differs.
inline testing::AssertionResult same_interfaces(
    const rt::ProtoRuntime& network, const core::HarpEngine& engine) {
  for (Direction dir : {Direction::kUp, Direction::kDown}) {
    const core::InterfaceSet& agents = network.current_interfaces(dir);
    const core::InterfaceSet& oracle = engine.interfaces(dir);
    if (agents.num_nodes() != oracle.num_nodes()) {
      return testing::AssertionFailure() << "interface tables differ in size";
    }
    for (NodeId v = 0; v < agents.num_nodes(); ++v) {
      bool same = agents.layers(v) == oracle.layers(v);
      for (int layer : agents.layers(v)) {
        same = same && agents.component(v, layer) ==
                           oracle.component(v, layer) &&
               agents.layout(v, layer) == oracle.layout(v, layer);
      }
      if (!same) {
        return testing::AssertionFailure()
               << to_string(dir) << " interface of node " << v << " differs";
      }
    }
  }
  return testing::AssertionSuccess();
}

}  // namespace harp
