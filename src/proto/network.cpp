#include "proto/network.hpp"

#include "harp/rm_scheduler.hpp"

namespace harp::proto {

std::vector<AgentConfig> make_agent_configs(const net::Topology& topo,
                                            const net::TrafficMatrix& traffic,
                                            const net::SlotframeConfig& frame,
                                            std::span<const net::Task> tasks,
                                            int own_slack) {
  const core::LinkPeriods periods = core::link_periods(topo, tasks);
  std::vector<AgentConfig> configs;
  configs.reserve(topo.size());
  for (NodeId v = 0; v < topo.size(); ++v) {
    AgentConfig cfg;
    cfg.id = v;
    cfg.parent = topo.parent(v);
    cfg.link_layer = topo.link_layer(v);
    cfg.frame = frame;
    cfg.own_slack = own_slack;
    for (NodeId c : topo.children(v)) {
      cfg.children.push_back(ChildLink{c, topo.is_leaf(c),
                                       traffic.uplink(c), traffic.downlink(c),
                                       periods.up[c], periods.down[c]});
    }
    configs.push_back(std::move(cfg));
  }
  return configs;
}

}  // namespace harp::proto
