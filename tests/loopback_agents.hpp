// Test helper: a whole network of HARP agents run by rt::ProtoRuntime
// over an in-memory LoopbackChannel with ARQ off, so every message is
// delivered in exact send order. The protocol tests' reference network.
#pragma once

#include <span>

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

}  // namespace harp
