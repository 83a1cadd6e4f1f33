// Bottom-up resource interface generation (paper Sec. IV-B).
//
// Starting from the deepest non-leaf nodes, every node V_i derives its
// interface I_i:
//   * own layer l(V_i): the links to its children share V_i half-duplex,
//     so their cells must occupy distinct slots — C = [sum of demands, 1]
//     (Case 1);
//   * deeper layers: compose the children's reported components with
//     Alg. 1 (Case 2).
// Uplink and downlink demands are summarized by two independent interface
// sets; partition allocation later places them in the two super-partitions.
#pragma once

#include "common/types.hpp"
#include "harp/resource.hpp"
#include "net/traffic.hpp"

namespace harp::core {

class ComposeMemo;

/// Generates the full interface set for one traffic direction.
/// `num_channels` is M, the channel count of the slotframe.
/// `own_slack` over-provisions every node's own-layer component by that
/// many slots PER ACTIVE CHILD LINK (reservation headroom): the "idle
/// cells available within the partition" of Sec. V that let traffic
/// growth resolve locally instead of escalating, and that absorb loss
/// retries. 0 = exact provisioning.
///
/// `memo` (may be null) is a pure accelerator — the output is identical
/// either way. It keeps the last pass's result and a validity bit per
/// node (harp/compose_cache.hpp): the pass takes that result over and
/// re-derives, by Alg. 1, exactly the stale internal nodes, deepest
/// first; valid nodes are left untouched.
/// Throws InfeasibleError when some composition cannot fit M channels.
InterfaceSet generate_interfaces(const net::Topology& topo,
                                 const net::TrafficMatrix& traffic,
                                 Direction dir, int num_channels,
                                 int own_slack = 0,
                                 ComposeMemo* memo = nullptr);

/// Recomputes the own-layer (Case 1) component of `node` from current
/// demands: [sum over children of demand (+ slack when non-zero), 1].
/// Shared by initial generation and dynamic adjustment.
ResourceComponent own_layer_component(const net::Topology& topo,
                                      const net::TrafficMatrix& traffic,
                                      Direction dir, NodeId node,
                                      int own_slack = 0);

}  // namespace harp::core
