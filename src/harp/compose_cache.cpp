#include "harp/compose_cache.hpp"

namespace harp::core {

ComposeMemo::ComposeMemo(std::size_t num_nodes) { resize(num_nodes); }

void ComposeMemo::resize(std::size_t num_nodes) {
  for (std::vector<std::uint8_t>& v : valid_) v.resize(num_nodes, 0);
}

void ComposeMemo::invalidate_chain(const net::Topology& topo, Direction dir,
                                   NodeId node) {
  std::vector<std::uint8_t>& v = valid_[static_cast<int>(dir)];
  // Staleness is upward-closed above any node a chain invalidated, so the
  // first already-stale ANCESTOR proves the rest of the chain is stale
  // too. The start node itself gets no such early stop: a freshly
  // attached leaf is stale without its ancestors being stale, and when it
  // later gains a child the chain must still reach them.
  for (NodeId n = node; n != kNoNode; n = topo.parent(n)) {
    if (n >= v.size()) break;
    if (v[n] != 0) {
      v[n] = 0;
      ++stats_.invalidations;
    } else if (n != node) {
      break;
    }
  }
}

void ComposeMemo::drop_all(int d) {
  for (std::uint8_t& b : valid_[d]) {
    stats_.invalidations += b;
    b = 0;
  }
}

bool ComposeMemo::begin_pass(const net::Topology& topo, Direction dir,
                             int num_channels, int own_slack) {
  const int d = static_cast<int>(dir);
  PassKey& key = key_[d];
  if (key.set && key.num_channels == num_channels &&
      key.own_slack == own_slack) {
    if (key.topo_uid == topo.uid()) return false;
    key.topo_uid = topo.uid();
    return true;
  }
  drop_all(d);
  key = {topo.uid(), num_channels, own_slack, true};
  return true;
}

ComposeMemo::Stats ComposeMemo::take_stats_delta() {
  const Stats delta{stats_.hits - stats_base_.hits,
                    stats_.misses - stats_base_.misses,
                    stats_.invalidations - stats_base_.invalidations};
  stats_base_ = stats_;
  return delta;
}

void ComposeMemo::invalidate_all() {
  drop_all(0);
  drop_all(1);
}

}  // namespace harp::core
