#include "harp/engine.hpp"

#include <algorithm>

#include "audit/audit.hpp"
#include "common/error.hpp"
#include "common/hash.hpp"
#include "harp/adjustment.hpp"
#include "harp/compose.hpp"
#include "obs/obs.hpp"
#include "runner/pool.hpp"

/// Re-derives every engine invariant from scratch (partition disjointness
/// and containment, interface/composition consistency, schedule rules,
/// in-partition discipline). Expanded inside HarpEngine member functions
/// at each mutation point; a no-op (arguments unevaluated) when the audit
/// layer is compiled out.
#define HARP_ENGINE_AUDIT(where)                                       \
  HARP_AUDIT(where,                                                    \
             ::harp::audit::check_engine_state(topo_, traffic_, frame_, up_, \
                                               down_, parts_, schedule_))

namespace harp::core {

namespace {

/// Engine counters (docs/OBSERVABILITY.md `harp.engine.*`). Names are
/// interned once per process; instruments are resolved per call against
/// the calling thread's current context so concurrent trials each record
/// into their own registry. One counter per AdjustmentKind, indexed by
/// the enum.
struct EngineObsIds {
  obs::InstrumentId requests;
  obs::InstrumentId by_kind[5];
  obs::InstrumentId hops;
  obs::InstrumentId joins;
  obs::InstrumentId leaves;
  obs::InstrumentId roams;
  obs::InstrumentId recompactions;
  obs::InstrumentId cache[5];
};

struct EngineObs {
  obs::Counter* requests;
  obs::Counter* by_kind[5];
  obs::Histogram* hops;
  obs::Counter* joins;
  obs::Counter* leaves;
  obs::Counter* roams;
  obs::Counter* recompactions;
  /// hits, misses, inserts, invalidations, evictions — in Stats order.
  obs::Counter* cache[5];
};

EngineObs engine_obs() {
  static const EngineObsIds ids = {
      obs::intern_counter("harp.engine.adjust_requests"),
      {obs::intern_counter("harp.engine.adjust_no_change"),
       obs::intern_counter("harp.engine.adjust_local_release"),
       obs::intern_counter("harp.engine.adjust_local_schedule"),
       obs::intern_counter("harp.engine.adjust_partition"),
       obs::intern_counter("harp.engine.adjust_rejected")},
      obs::intern_histogram("harp.engine.adjust_hops", {0, 1, 2, 4, 8, 16}),
      obs::intern_counter("harp.engine.joins"),
      obs::intern_counter("harp.engine.leaves"),
      obs::intern_counter("harp.engine.roams"),
      obs::intern_counter("harp.engine.recompactions"),
      {obs::intern_counter("harp.compose_cache.hits"),
       obs::intern_counter("harp.compose_cache.misses"),
       obs::intern_counter("harp.compose_cache.inserts"),
       obs::intern_counter("harp.compose_cache.invalidations"),
       obs::intern_counter("harp.compose_cache.evictions")},
  };
  auto& reg = obs::MetricsRegistry::global();
  return EngineObs{
      &reg.counter(ids.requests),
      {&reg.counter(ids.by_kind[0]), &reg.counter(ids.by_kind[1]),
       &reg.counter(ids.by_kind[2]), &reg.counter(ids.by_kind[3]),
       &reg.counter(ids.by_kind[4])},
      &reg.histogram(ids.hops),
      &reg.counter(ids.joins),
      &reg.counter(ids.leaves),
      &reg.counter(ids.roams),
      &reg.counter(ids.recompactions),
      {&reg.counter(ids.cache[0]), &reg.counter(ids.cache[1]),
       &reg.counter(ids.cache[2]), &reg.counter(ids.cache[3]),
       &reg.counter(ids.cache[4])},
  };
}

}  // namespace

const char* to_string(ProtocolMessage::Type t) {
  switch (t) {
    case ProtocolMessage::Type::kPostIntf:
      return "POST-intf";
    case ProtocolMessage::Type::kPostPart:
      return "POST-part";
    case ProtocolMessage::Type::kPutIntf:
      return "PUT-intf";
    case ProtocolMessage::Type::kPutPart:
      return "PUT-part";
  }
  return "?";
}

const char* to_string(AdjustmentKind k) {
  switch (k) {
    case AdjustmentKind::kNoChange:
      return "no-change";
    case AdjustmentKind::kLocalRelease:
      return "local-release";
    case AdjustmentKind::kLocalSchedule:
      return "local-schedule";
    case AdjustmentKind::kPartitionAdjust:
      return "partition-adjust";
    case AdjustmentKind::kRejected:
      return "rejected";
  }
  return "?";
}

std::set<NodeId> AdjustmentReport::involved() const {
  std::set<NodeId> out;
  for (const ProtocolMessage& m : messages) {
    out.insert(m.from);
    out.insert(m.to);
  }
  return out;
}

int AdjustmentReport::layers_spanned(const net::Topology& topo) const {
  const auto nodes = involved();
  if (nodes.empty()) return 0;
  int lo = 1 << 30, hi = -1;
  for (NodeId v : nodes) {
    lo = std::min(lo, topo.node_layer(v));
    hi = std::max(hi, topo.node_layer(v));
  }
  return std::max(hi - lo, 1);
}

HarpEngine::HarpEngine(net::Topology topo, net::TrafficMatrix traffic,
                       net::SlotframeConfig frame, std::vector<net::Task> tasks,
                       EngineOptions options)
    : topo_(std::move(topo)),
      traffic_(std::move(traffic)),
      frame_(frame),
      tasks_(std::move(tasks)),
      options_(options),
      periods_(link_periods(topo_, tasks_)) {
  frame_.validate();
  if (traffic_.num_nodes() != topo_.size()) {
    throw InvalidArgument("traffic matrix does not match topology size");
  }
  if (options_.own_slack < 0) throw InvalidArgument("own_slack must be >= 0");
  if (options_.compose_cache) {
    // Capacity 4N: one entry per node/direction in steady state plus churn
    // margin, so the bulk eviction stays rare.
    memo_ = std::make_unique<ComposeMemo>(
        topo_.size(), std::max<std::size_t>(1024, 4 * topo_.size()));
  }
  if (options_.pool != nullptr) {
    pool_ = options_.pool;
  } else {
    const std::size_t jobs = options_.jobs == 0
                                 ? runner::WorkerPool::default_jobs()
                                 : options_.jobs;
    if (jobs > 1) {
      owned_pool_ = std::make_unique<runner::WorkerPool>(jobs);
      pool_ = owned_pool_.get();
    }
  }
  bootstrap();
}

HarpEngine::HarpEngine(net::Topology topo, std::vector<net::Task> tasks,
                       net::SlotframeConfig frame, EngineOptions options)
    : HarpEngine(topo, derive_traffic(topo, tasks, frame), frame, tasks,
                 options) {}

HarpEngine::~HarpEngine() = default;
HarpEngine::HarpEngine(HarpEngine&&) noexcept = default;
HarpEngine& HarpEngine::operator=(HarpEngine&&) noexcept = default;

void HarpEngine::bootstrap() {
  HARP_OBS_SCOPE("harp.engine.bootstrap_ns");
  const int num_channels = static_cast<int>(frame_.num_channels);
  {
    HARP_OBS_SCOPE("harp.engine.interface_gen_ns");
    // Release the live sets first: when they still share the memo's node
    // table (no drift since the last recompute), this lets the memoized
    // pass update that table in place instead of cloning it. recompact()
    // keeps its own rollback snapshots, so nothing is lost.
    up_ = InterfaceSet();
    down_ = InterfaceSet();
    up_ = generate_interfaces(topo_, traffic_, Direction::kUp, num_channels,
                              options_.own_slack, memo_.get(), pool_);
    down_ = generate_interfaces(topo_, traffic_, Direction::kDown,
                                num_channels, options_.own_slack, memo_.get(),
                                pool_);
  }
  ++recompute_count_;
  if (memo_) publish_cache_stats();
#if HARP_AUDIT_ENABLED
  // The soundness oracle regenerates both interface sets from scratch —
  // as expensive as what the cache saves — so it samples with exponential
  // backoff: power-of-two recomputation counts only.
  if (memo_ && (recompute_count_ & (recompute_count_ - 1)) == 0) {
    HARP_AUDIT("engine.compose_cache",
               audit::check_compose_cache(topo_, traffic_, Direction::kUp,
                                          num_channels, options_.own_slack,
                                          up_));
    HARP_AUDIT("engine.compose_cache",
               audit::check_compose_cache(topo_, traffic_, Direction::kDown,
                                          num_channels, options_.own_slack,
                                          down_));
  }
#endif
  {
    HARP_OBS_SCOPE("harp.engine.partition_alloc_ns");
    parts_ = allocate_partitions(topo_, up_, down_, frame_).partitions;
  }
  rebuild_schedule();
  HARP_ENGINE_AUDIT("engine.bootstrap");
}

void HarpEngine::set_demand(NodeId child, Direction dir, int cells) {
  traffic_.set_demand(child, dir, cells);
  // The demand of `child`'s link is an input of every ancestor interface
  // starting at the parent (whose own-layer component sums it). Rollback
  // writes land here too — conservative re-invalidation is harmless: the
  // fingerprint recomputes to its old value and hits the cache.
  if (memo_) memo_->invalidate_chain(topo_, dir, topo_.parent(child));
}

void HarpEngine::publish_cache_stats() {
  // The memo anchors the per-pass baseline itself (take_stats_delta), so
  // the published numbers cover exactly the work since the last publish —
  // even across topology swaps that rebuild or reset memo state.
  const ComposeCache::Stats d = memo_->take_stats_delta();
  const EngineObs eobs = engine_obs();
  eobs.cache[0]->inc(d.hits);
  eobs.cache[1]->inc(d.misses);
  eobs.cache[2]->inc(d.inserts);
  eobs.cache[3]->inc(d.invalidations);
  eobs.cache[4]->inc(d.evictions);
  HARP_OBS_EVENT({.type = obs::EventType::kComposeCache,
                  .a = static_cast<std::uint32_t>(d.hits),
                  .b = static_cast<std::uint32_t>(d.misses),
                  .value = d.inserts});
}

ComposeCache::Stats HarpEngine::compose_cache_stats() const {
  return memo_ ? memo_->cache().stats() : ComposeCache::Stats{};
}

void HarpEngine::rebuild_schedule() {
  HARP_OBS_SCOPE("harp.engine.schedule_gen_ns");
  // Idle partition cells are handed out as bonus capacity: the paper's
  // nodes grab more cells from their own partition under queueing.
  schedule_ = generate_schedule(topo_, traffic_, parts_, periods_,
                                /*distribute_leftover=*/true);
}

void HarpEngine::rebuild_links(Direction dir, const std::set<NodeId>& parents) {
  HARP_OBS_SCOPE("harp.engine.schedule_gen_ns");
  // Mirrors one (node, dir) block of generate_schedule; clearing first
  // makes a child whose demand dropped to zero lose its cells.
  for (NodeId node : parents) {
    if (topo_.is_leaf(node)) continue;
    std::vector<LinkRequest> requests;
    for (NodeId child : topo_.children(node)) {
      schedule_.clear_link(child, dir);
      const int demand = traffic_.demand(child, dir);
      if (demand > 0) {
        requests.push_back({child, demand, periods_.get(child, dir)});
      }
    }
    if (requests.empty()) continue;
    const Partition part = parts_.get(dir, node, topo_.link_layer(node));
    HARP_ASSERT(!part.empty());
    for (auto& [child, cells] : assign_cells_rm(part, std::move(requests),
                                                /*distribute_leftover=*/true)) {
      schedule_.set_cells(child, dir, std::move(cells));
    }
  }
}

std::size_t HarpEngine::bootstrap_message_count() const {
  // One POST-intf per non-gateway non-leaf node (leaves have nothing to
  // report; their demands ride on the join handshake), plus one POST-part
  // from each non-leaf node to each child that roots a non-leaf subtree,
  // plus one initial cell-assignment message per link. Counted per
  // direction pair jointly (interfaces for up and down travel together).
  std::size_t intf = 0, part = 0;
  for (NodeId v = 1; v < topo_.size(); ++v) {
    if (!topo_.is_leaf(v)) ++intf;
  }
  for (NodeId v = 0; v < topo_.size(); ++v) {
    if (!topo_.is_leaf(v) && v != net::Topology::gateway()) ++part;
  }
  const std::size_t links = topo_.size() - 1;
  return intf + part + links;
}

std::int64_t HarpEngine::reserved_cells() const {
  std::int64_t total = 0;
  for (Direction dir : {Direction::kUp, Direction::kDown}) {
    for (const auto& row : parts_.rows(dir)) {
      if (row.layer == topo_.link_layer(row.node)) {
        total += row.part.comp.cells();
      }
    }
  }
  return total;
}

HarpEngine::CompactionReport HarpEngine::recompact() {
  HARP_OBS_SCOPE("harp.engine.recompact_ns");
  engine_obs().recompactions->inc();
  CompactionReport report;
  report.reserved_before = reserved_cells();

  const InterfaceSet old_up = up_;
  const InterfaceSet old_down = down_;
  const PartitionTable old_parts = parts_;
  try {
    bootstrap();
  } catch (const InfeasibleError&) {
    // Should not happen (the current demands were admitted incrementally),
    // but heuristics give no hard guarantee: keep the old state.
    up_ = old_up;
    down_ = old_down;
    parts_ = old_parts;
    rebuild_schedule();
    HARP_ENGINE_AUDIT("engine.recompact_restore");
    return report;
  }
  report.performed = true;
  report.reserved_after = reserved_cells();
  for (Direction dir : {Direction::kUp, Direction::kDown}) {
    for (const auto& row : parts_.rows(dir)) {
      if (row.part != old_parts.get(dir, row.node, row.layer)) {
        ++report.partitions_changed;
      }
    }
  }
  HARP_ENGINE_AUDIT("engine.recompact");
  return report;
}

std::uint64_t HarpEngine::state_fingerprint() const {
  // FNV-1a over a fully deterministic integer serialization of the
  // resource state. No floats, no pointers, no container-order ambiguity
  // (layers ascend, nodes ascend) — the digest is comparable across
  // machines, which is what lets the bench gate pin it in a baseline.
  // Walks the stored state in place (no per-node layer lists, no
  // per-layer lookups); every value folds as 8 little-endian bytes.
  std::uint64_t h = kFnvOffset;
  const auto mix = [&h](std::uint64_t v) { h = fnv1a_u64(h, v); };
  for (Direction dir : {Direction::kUp, Direction::kDown}) {
    const InterfaceSet& ifs = dir == Direction::kUp ? up_ : down_;
    for (NodeId v = 0; v < topo_.size(); ++v) {
      if (const InterfaceSet::NodeInterface* node = ifs.peek(v)) {
        for (const auto& [layer, entry] : *node) {
          mix(v);
          mix(static_cast<std::uint64_t>(layer));
          mix(static_cast<std::uint64_t>(entry.comp.slots));
          mix(static_cast<std::uint64_t>(entry.comp.channels));
          for (const packing::Placement& p : entry.layout) {
            mix(static_cast<std::uint64_t>(p.x));
            mix(static_cast<std::uint64_t>(p.y));
            mix(static_cast<std::uint64_t>(p.w));
            mix(static_cast<std::uint64_t>(p.h));
            mix(p.id);
          }
        }
      }
      for (const auto& [layer, p] : parts_.of(dir, v)) {
        mix(v);
        mix(static_cast<std::uint64_t>(layer));
        mix(static_cast<std::uint64_t>(p.comp.slots));
        mix(static_cast<std::uint64_t>(p.comp.channels));
        mix(p.slot);
        mix(p.channel);
      }
      if (v != net::Topology::gateway()) {
        for (Direction sdir : {Direction::kUp, Direction::kDown}) {
          for (const Cell& cell : schedule_.cells(v, sdir)) {
            mix(v);
            mix(static_cast<std::uint64_t>(sdir));
            mix(cell.slot);
            mix(cell.channel);
          }
        }
      }
    }
  }
  return h;
}

std::string HarpEngine::validate() const {
  if (auto err = validate_partitions(topo_, up_, down_, parts_, frame_);
      !err.empty()) {
    return err;
  }
  return validate_schedule(topo_, traffic_, schedule_, frame_);
}

AdjustmentReport HarpEngine::request_demand(NodeId child, Direction dir,
                                            int new_cells) {
  const EngineObs eobs = engine_obs();
  eobs.requests->inc();
  HARP_OBS_EVENT({.type = obs::EventType::kAdjustStart,
                  .aux = static_cast<std::uint8_t>(dir),
                  .a = child,
                  .value = static_cast<std::uint64_t>(
                      new_cells < 0 ? 0 : new_cells)});
  AdjustmentReport report;
  {
    HARP_OBS_SCOPE("harp.engine.adjust_ns");
    report = request_demand_impl(child, dir, new_cells);
  }
  eobs.by_kind[static_cast<int>(report.kind)]->inc();
  eobs.hops->record(static_cast<std::uint64_t>(report.hops_up));
  HARP_OBS_EVENT({.type = obs::EventType::kAdjustEnd,
                  .aux = static_cast<std::uint8_t>(report.kind),
                  .a = child,
                  .value = report.messages.size()});
  return report;
}

AdjustmentReport HarpEngine::request_demand_impl(NodeId child, Direction dir,
                                                 int new_cells) {
  if (child == net::Topology::gateway() || child >= topo_.size()) {
    throw InvalidArgument("demand requests address a non-gateway node");
  }
  if (new_cells < 0) throw InvalidArgument("demand must be non-negative");

  AdjustmentReport report;
  const int old_cells = traffic_.demand(child, dir);
  if (new_cells == old_cells) {
    report.kind = AdjustmentKind::kNoChange;
    report.satisfied = true;
    return report;
  }

  const NodeId q = topo_.parent(child);
  const int layer = topo_.node_layer(child);  // layer of this link

  if (new_cells < old_cells) {
    // Sec. V: on decrease the parent releases cells; partitions (and the
    // reported interfaces) stay, keeping the reservation for later grabs.
    set_demand(child, dir, new_cells);
    rebuild_links(dir, {q});
    report.kind = AdjustmentKind::kLocalRelease;
    report.satisfied = true;
    HARP_ENGINE_AUDIT("engine.adjust_release");
    return report;
  }

  set_demand(child, dir, new_cells);
  const ResourceComponent raw = own_layer_component(topo_, traffic_, dir, q);
  const Partition current = parts_.get(dir, q, layer);
  if (raw.slots <= current.comp.slots && !current.empty()) {
    // Case 1 (Fig. 5a): idle cells inside the partition absorb the change.
    rebuild_links(dir, {q});
    report.kind = AdjustmentKind::kLocalSchedule;
    report.satisfied = true;
    report.resolved_at = q;
    HARP_ENGINE_AUDIT("engine.adjust_local");
    return report;
  }

  // Case 2: q needs a bigger own-layer partition; climb, asking for
  // exactly the new demand (headroom is a bootstrap-time property:
  // re-requesting it here would inflate every escalation).
  std::set<NodeId> dirty_parents;
#if HARP_AUDIT_ENABLED
  // Snapshot the tables the climb may touch: a rejected escalation must
  // leave them byte-identical (AdjustTxn's rollback contract).
  const InterfaceSet& live_ifs = dir == Direction::kUp ? up_ : down_;
  const InterfaceSet ifs_snapshot = live_ifs;
  const PartitionTable parts_snapshot = parts_;
  const Schedule sched_snapshot = schedule_;
#endif
  report = climb(q, layer, dir, raw, dirty_parents);
  if (!report.satisfied) {
    set_demand(child, dir, old_cells);  // admission denied
#if HARP_AUDIT_ENABLED
    HARP_AUDIT("engine.climb_rollback",
               audit::check_restored(ifs_snapshot, live_ifs, parts_snapshot,
                                     parts_, sched_snapshot, schedule_));
    HARP_ENGINE_AUDIT("engine.adjust_reject");
#endif
  } else {
    // q's demand changed even when its partition box did not move.
    dirty_parents.insert(q);
    rebuild_links(dir, dirty_parents);
    HARP_ENGINE_AUDIT("engine.adjust_commit");
  }
  return report;
}

HarpEngine::TopoChangeReport HarpEngine::attach_leaf(NodeId parent,
                                                     int up_cells,
                                                     int down_cells) {
  if (parent >= topo_.size()) throw InvalidArgument("unknown parent");
  if (up_cells < 0 || down_cells < 0) {
    throw InvalidArgument("demands must be non-negative");
  }
  engine_obs().joins->inc();
  topo_ = topo_.with_leaf(parent);
  const NodeId node = static_cast<NodeId>(topo_.size() - 1);
  if (memo_) {
    // The parent's child list changed (its fingerprint mixes child ids,
    // and it may just have stopped being a leaf), so its whole ancestor
    // chain is stale in both directions.
    memo_->resize(topo_.size());
    memo_->invalidate_chain(topo_, Direction::kUp, parent);
    memo_->invalidate_chain(topo_, Direction::kDown, parent);
  }
  traffic_.resize(topo_.size());
  up_.resize(topo_.size());
  down_.resize(topo_.size());
  parts_.resize(topo_.size());
  schedule_.resize(topo_.size());
  periods_.up.push_back(~0u);
  periods_.down.push_back(~0u);

  TopoChangeReport report;
  report.node = node;
  report.up = request_demand(node, Direction::kUp, up_cells);
  report.down = request_demand(node, Direction::kDown, down_cells);
  if (!report.satisfied()) {
    // Leave the device joined but unprovisioned.
    request_demand(node, Direction::kUp, 0);
    request_demand(node, Direction::kDown, 0);
  }
  HARP_ENGINE_AUDIT("engine.attach_leaf");
  return report;
}

HarpEngine::TopoChangeReport HarpEngine::detach_leaf(NodeId leaf) {
  if (leaf == net::Topology::gateway() || leaf >= topo_.size()) {
    throw InvalidArgument("unknown leaf");
  }
  if (!topo_.is_leaf(leaf)) {
    throw InvalidArgument("node " + std::to_string(leaf) +
                          " still relays for children");
  }
  engine_obs().leaves->inc();
  TopoChangeReport report;
  report.node = leaf;
  report.up = request_demand(leaf, Direction::kUp, 0);
  report.down = request_demand(leaf, Direction::kDown, 0);
  HARP_ENGINE_AUDIT("engine.detach_leaf");
  return report;
}

HarpEngine::TopoChangeReport HarpEngine::reparent_leaf(NodeId leaf,
                                                       NodeId new_parent) {
  if (leaf == net::Topology::gateway() || leaf >= topo_.size()) {
    throw InvalidArgument("unknown leaf");
  }
  if (!topo_.is_leaf(leaf)) {
    throw InvalidArgument("only leaf devices can roam");
  }
  const NodeId old_parent = topo_.parent(leaf);
  if (new_parent == old_parent) return {leaf, {}, {}};
  engine_obs().roams->inc();

  const int old_up = traffic_.uplink(leaf);
  const int old_down = traffic_.downlink(leaf);

  TopoChangeReport report;
  report.node = leaf;
  // Release at the old location (local, reservation kept)...
  request_demand(leaf, Direction::kUp, 0);
  request_demand(leaf, Direction::kDown, 0);
  // ...scrub any residual relay-era reservations the roamer still holds
  // (a node whose children all left keeps its components as reservations;
  // they must not travel to the new parent unnegotiated) and free its
  // rectangle inside the old parent's composite layouts...
  for (Direction dir : {Direction::kUp, Direction::kDown}) {
    InterfaceSet& ifs = dir == Direction::kUp ? up_ : down_;
    for (int layer : ifs.layers(leaf)) {
      parts_.erase(dir, leaf, layer);
    }
    for (int layer : ifs.layers(leaf)) {
      ifs.set_component(leaf, layer, {});
    }
    for (int layer : ifs.layers(old_parent)) {
      auto layout = ifs.layout(old_parent, layer);
      std::erase_if(layout, [&](const packing::Placement& p) {
        return p.id == static_cast<std::uint64_t>(leaf);
      });
      ifs.set_layout(old_parent, layer, std::move(layout));
    }
  }
  // ...rewire (with_parent validates against cycles), refreshing the RM
  // priorities whose paths changed. Priorities feed every parent's RM
  // order, so this is one of the few spots that needs a full rebuild.
  topo_ = topo_.with_parent(leaf, new_parent);
  if (memo_) {
    // Both endpoints' child lists changed; their ancestor chains (in the
    // rewired tree) are stale in both directions.
    for (Direction d : {Direction::kUp, Direction::kDown}) {
      memo_->invalidate_chain(topo_, d, old_parent);
      memo_->invalidate_chain(topo_, d, new_parent);
    }
  }
  periods_ = link_periods(topo_, tasks_);
  rebuild_schedule();
  // ...and request the same demands at the new location.
  report.up = request_demand(leaf, Direction::kUp, old_up);
  report.down = request_demand(leaf, Direction::kDown, old_down);

  if (!report.satisfied()) {
    // Fall back to the old relay: its reservation was kept, so the old
    // demands are guaranteed to fit locally.
    request_demand(leaf, Direction::kUp, 0);
    request_demand(leaf, Direction::kDown, 0);
    topo_ = topo_.with_parent(leaf, old_parent);
    if (memo_) {
      for (Direction d : {Direction::kUp, Direction::kDown}) {
        memo_->invalidate_chain(topo_, d, old_parent);
        memo_->invalidate_chain(topo_, d, new_parent);
      }
    }
    periods_ = link_periods(topo_, tasks_);
    rebuild_schedule();
    const auto up_back = request_demand(leaf, Direction::kUp, old_up);
    const auto down_back = request_demand(leaf, Direction::kDown, old_down);
    HARP_ASSERT(up_back.satisfied && down_back.satisfied);
  }
  HARP_ENGINE_AUDIT("engine.reparent_leaf");
  return report;
}

namespace {

/// Scoped undo log for one adjustment. climb() used to copy the whole
/// InterfaceSet and PartitionTable so a rejected escalation could discard
/// them — the dominant cost of every request_demand. Instead the live
/// tables are now mutated in place through this transaction, which
/// snapshots each (node, layer) entry on first touch and restores the
/// snapshots unless commit() was called (including when an escalation
/// throws, e.g. InfeasibleError out of compose_components).
///
/// The transaction also collects the nodes whose own-layer (scheduling)
/// partition actually changed — exactly the dirty-parent set
/// rebuild_links() must re-derive afterwards.
class AdjustTxn {
 public:
  AdjustTxn(const net::Topology& topo, InterfaceSet& ifs,
            PartitionTable& parts, Direction dir)
      : topo_(topo), ifs_(ifs), parts_(parts), dir_(dir) {}
  AdjustTxn(const AdjustTxn&) = delete;
  AdjustTxn& operator=(const AdjustTxn&) = delete;

  ~AdjustTxn() {
    if (committed_) return;
    for (auto it = intf_log_.rbegin(); it != intf_log_.rend(); ++it) {
      // An empty snapshot means the entry did not exist: set_component({})
      // erases it (together with any layout written meanwhile).
      ifs_.set_component(it->node, it->layer, it->comp);
      if (!it->comp.empty()) {
        ifs_.set_layout(it->node, it->layer, std::move(it->layout));
      }
    }
    for (auto it = part_log_.rbegin(); it != part_log_.rend(); ++it) {
      parts_.set(dir_, it->node, it->layer, it->part);
    }
  }

  void set_component(NodeId node, int layer, ResourceComponent c) {
    touch_intf(node, layer);
    ifs_.set_component(node, layer, c);
  }
  void set_layout(NodeId node, int layer,
                  std::vector<packing::Placement> layout) {
    touch_intf(node, layer);
    ifs_.set_layout(node, layer, std::move(layout));
  }
  /// No-op (no undo entry, no dirty mark) when the value is unchanged.
  void set_partition(NodeId node, int layer, const Partition& p) {
    if (parts_.get(dir_, node, layer) == p) return;
    touch_part(node, layer);
    parts_.set(dir_, node, layer, p);
    if (layer == topo_.link_layer(node)) dirty_parents_.insert(node);
  }

  void commit() { committed_ = true; }
  const std::set<NodeId>& dirty_parents() const { return dirty_parents_; }

 private:
  struct IntfUndo {
    NodeId node;
    int layer;
    ResourceComponent comp;
    std::vector<packing::Placement> layout;
  };
  struct PartUndo {
    NodeId node;
    int layer;
    Partition part;
  };

  void touch_intf(NodeId node, int layer) {
    if (!seen_intf_.insert({node, layer}).second) return;
    intf_log_.push_back(
        {node, layer, ifs_.component(node, layer), ifs_.layout(node, layer)});
  }
  void touch_part(NodeId node, int layer) {
    if (!seen_part_.insert({node, layer}).second) return;
    part_log_.push_back({node, layer, parts_.get(dir_, node, layer)});
  }

  const net::Topology& topo_;
  InterfaceSet& ifs_;
  PartitionTable& parts_;
  Direction dir_;
  std::vector<IntfUndo> intf_log_;
  std::vector<PartUndo> part_log_;
  std::set<std::pair<NodeId, int>> seen_intf_;
  std::set<std::pair<NodeId, int>> seen_part_;
  std::set<NodeId> dirty_parents_;
  bool committed_ = false;
};

/// Recursively re-derives the partitions of `node`'s children at `layer`
/// from node's (already updated) partition and layout, emitting one
/// PUT-part per child whose partition changed. The recursion continues
/// through unchanged children too: a node on the escalation chain can keep
/// its partition box while its interior layout was recomposed, so its
/// descendants may still need repositioning. Reads go straight to the live
/// tables (the transaction mutates them in place); writes go through `txn`.
void place_children(const InterfaceSet& ifs, Direction dir, NodeId node,
                    int layer, const PartitionTable& parts, AdjustTxn& txn,
                    std::vector<ProtocolMessage>& msgs,
                    std::set<NodeId>& changed) {
  const Partition base = parts.get(dir, node, layer);
  for (const packing::Placement& pl : ifs.layout(node, layer)) {
    const auto child = static_cast<NodeId>(pl.id);
    const Partition next{ifs.component(child, layer),
                         base.slot + static_cast<SlotId>(pl.x),
                         base.channel + static_cast<ChannelId>(pl.y)};
    HARP_ASSERT(next.comp.slots == pl.w && next.comp.channels == pl.h);
    if (next != parts.get(dir, child, layer)) {
      txn.set_partition(child, layer, next);
      msgs.push_back({node, child, ProtocolMessage::Type::kPutPart});
      changed.insert(child);
    }
    place_children(ifs, dir, child, layer, parts, txn, msgs, changed);
  }
}

}  // namespace

AdjustmentReport HarpEngine::climb(NodeId start, int layer, Direction dir,
                                   ResourceComponent grown,
                                   std::set<NodeId>& dirty_parents) {
  HARP_OBS_SCOPE("harp.engine.climb_ns");
  AdjustmentReport report;
  report.kind = AdjustmentKind::kPartitionAdjust;

  // Mutate the live tables in place behind a scoped undo log; a rejected
  // (or throwing) escalation rolls back on scope exit, so the engine is
  // left untouched without ever copying the tables wholesale.
  InterfaceSet& ifs = (dir == Direction::kUp) ? up_ : down_;
  PartitionTable& parts = parts_;
  AdjustTxn txn(topo_, ifs, parts, dir);
  std::vector<ProtocolMessage>& msgs = report.messages;
  std::set<NodeId> changed;

  NodeId v = start;
  ResourceComponent c_req = grown;
  bool resolved = false;

  const GrowSide side =
      dir == Direction::kUp ? GrowSide::kRight : GrowSide::kLeft;
  const int max_channels = static_cast<int>(frame_.num_channels);

  txn.set_component(v, layer, c_req);
  while (v != net::Topology::gateway()) {
    const NodeId p = topo_.parent(v);
    msgs.push_back({v, p, ProtocolMessage::Type::kPutIntf});
    ++report.hops_up;

    const Partition box = parts.get(dir, p, layer);
    if (!box.empty()) {
      const AdjustOutcome outcome = adjust_partition_layout(
          box.comp, ifs.layout(p, layer), v, c_req, side);
      if (outcome.success) {
        txn.set_layout(p, layer, outcome.layout);
        place_children(ifs, dir, p, layer, parts, txn, msgs, changed);
        report.resolved_at = p;
        resolved = true;
        break;
      }

      // p's box must grow. Anchored growth keeps every sibling placement
      // fixed, so the escalation's blast radius stays on this branch.
      if (auto grown = grow_composite_anchored(
              box.comp, ifs.layout(p, layer), v, c_req, max_channels, side)) {
        txn.set_component(p, layer, grown->box);
        txn.set_layout(p, layer, std::move(grown->layout));
        c_req = ifs.component(p, layer);
        v = p;
        continue;
      }
    }

    // Last resort: recompose the layer from scratch (Alg. 1) and escalate
    // with the fresh composite (all sibling placements may change).
    std::vector<ChildComponent> parts_in;
    for (NodeId c : topo_.children(p)) {
      const ResourceComponent cc = ifs.component(c, layer);
      if (!cc.empty()) parts_in.push_back({c, cc});
    }
    Composition composed = compose_components(parts_in, max_channels);
    HARP_ASSERT(!composed.composite.empty());
    if (!box.empty() && composed.composite.slots <= box.comp.slots &&
        composed.composite.channels <= box.comp.channels) {
      // The fresh composition fits the existing box after all: adopt the
      // layout, keep the partition (and its reported size) unchanged.
      txn.set_layout(p, layer, std::move(composed.layout));
      place_children(ifs, dir, p, layer, parts, txn, msgs, changed);
      report.resolved_at = p;
      resolved = true;
      break;
    }
    txn.set_component(p, layer, composed.composite);
    txn.set_layout(p, layer, std::move(composed.layout));
    c_req = ifs.component(p, layer);
    v = p;
  }

  if (!resolved) {
    // Reached the gateway: re-place this direction's layer partitions
    // with minimal movement (untouched layers stay anchored; the grown
    // layer extends into its inter-layer gap), falling back to a compact
    // re-placement, and rejecting when even that cannot fit beside the
    // other direction's partitions.
    const NodeId gw = net::Topology::gateway();
    std::map<int, ResourceComponent> comps;
    for (int l : ifs.layers(gw)) comps[l] = ifs.component(gw, l);
    std::map<int, Partition> current_side;
    for (int l : parts.layers(dir, gw)) current_side[l] = parts.get(dir, gw, l);
    const Direction other_dir =
        dir == Direction::kUp ? Direction::kDown : Direction::kUp;
    std::map<int, Partition> other_side;
    for (int l : parts.layers(other_dir, gw)) {
      other_side[l] = parts.get(other_dir, gw, l);
    }
    const auto placed =
        replace_gateway_side(comps, dir, frame_, current_side, other_side);
    if (!placed) {
      report.kind = AdjustmentKind::kRejected;
      report.satisfied = false;
      return report;  // txn rolls back on scope exit
    }
    for (const auto& [l, next] : *placed) {
      txn.set_partition(gw, l, next);
      // Recurse even when the gateway partition itself is unchanged: the
      // escalation recomposed this layer's interior layout.
      place_children(ifs, dir, gw, l, parts, txn, msgs, changed);
    }
    report.resolved_at = gw;
  }

  txn.commit();
  dirty_parents = txn.dirty_parents();
  report.satisfied = true;
  // Moved partitions: nodes whose placement changed, minus the requester
  // itself (its change is the point of the exercise).
  report.partitions_moved =
      static_cast<int>(changed.size()) - (changed.contains(start) ? 1 : 0);
  return report;
}

}  // namespace harp::core
