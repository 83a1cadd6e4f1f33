// Agent wiring: per-node configurations for a whole topology.
//
// rt::ProtoRuntime (rt/runtime.hpp) is the one driver that runs a network
// of agents: over an in-memory loopback in the protocol tests, over a
// lossy channel with ARQ, or over the simulator's management plane
// (sim/mgmt_plane.hpp) for slot-accurate timing. It builds its agents
// from make_agent_configs().
#pragma once

#include <span>
#include <vector>

#include "net/task.hpp"
#include "net/topology.hpp"
#include "net/traffic.hpp"
#include "proto/agent.hpp"

namespace harp::proto {

/// Per-node configurations for an entire topology. Demands come from the
/// traffic matrix; RM priorities from the tasks (may be empty).
std::vector<AgentConfig> make_agent_configs(const net::Topology& topo,
                                            const net::TrafficMatrix& traffic,
                                            const net::SlotframeConfig& frame,
                                            std::span<const net::Task> tasks,
                                            int own_slack = 0);

}  // namespace harp::proto
