#include "proto/agent.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "obs/obs.hpp"

namespace harp::proto {
namespace {

int dir_index(Direction dir) { return dir == Direction::kUp ? 0 : 1; }

IntfItem make_intf_item(int layer, Direction dir,
                        const core::ResourceComponent& c) {
  return IntfItem{static_cast<std::uint8_t>(layer), dir,
                  static_cast<std::uint16_t>(c.slots),
                  static_cast<std::uint8_t>(c.channels)};
}

core::ResourceComponent comp_from(const IntfItem& item) {
  return core::ResourceComponent{item.slots, item.channels};
}

}  // namespace

HarpAgent::HarpAgent(AgentConfig cfg, core::PartitionTable& parts,
                     core::Schedule& schedule)
    : cfg_(std::move(cfg)), parts_(parts), schedule_(schedule) {
  cfg_.frame.validate();
  if (cfg_.id == kNoNode) throw InvalidArgument("agent needs a node id");
}

ChildLink& HarpAgent::link(NodeId child) {
  for (ChildLink& l : cfg_.children) {
    if (l.child == child) return l;
  }
  throw InvalidArgument("node " + std::to_string(cfg_.id) +
                        " has no child " + std::to_string(child));
}

int HarpAgent::child_demand(NodeId child, Direction dir) const {
  for (const ChildLink& l : cfg_.children) {
    if (l.child == child) {
      return dir == Direction::kUp ? l.up_demand : l.down_demand;
    }
  }
  throw InvalidArgument("unknown child");
}

// --------------------------------------------------------------- phase 1-2

void HarpAgent::start(Transport& t) {
  if (is_leaf()) {
    // Leaves hold no partitions; they are operational immediately (and
    // may later become parents when a roaming device attaches).
    ready_ = true;
    return;
  }
  awaiting_children_ = 0;
  for (const ChildLink& l : cfg_.children) {
    if (!l.is_leaf) ++awaiting_children_;
  }
  if (awaiting_children_ == 0) {
    compose_own_interfaces();
    if (is_gateway()) {
      gateway_allocate(t);
    } else {
      report_interface(t);
    }
  }
}

void HarpAgent::compose_own_interfaces() {
  for (Direction dir : {Direction::kUp, Direction::kDown}) {
    PerDir& s = side(dir);
    s.comp.clear();
    s.layout.clear();
    // Case 1: own links share this node -> one slot row (plus the
    // per-link provisioning headroom, when configured).
    int sum = 0;
    int active = 0;
    for (const ChildLink& l : cfg_.children) {
      const int d = dir == Direction::kUp ? l.up_demand : l.down_demand;
      sum += d;
      if (d > 0) ++active;
    }
    if (sum > 0) {
      s.comp[cfg_.link_layer] =
          core::ResourceComponent{sum + cfg_.own_slack * active, 1};
      s.layout[cfg_.link_layer] = {};
    }
    // Case 2: compose whatever the children reported, layer by layer.
    std::vector<int> layers;
    for (const auto& [child, per_layer] : child_comp_[dir_index(dir)]) {
      for (const auto& [layer, comp] : per_layer) layers.push_back(layer);
    }
    std::sort(layers.begin(), layers.end());
    layers.erase(std::unique(layers.begin(), layers.end()), layers.end());
    for (int layer : layers) {
      std::vector<core::ChildComponent> parts;
      for (const auto& [child, per_layer] : child_comp_[dir_index(dir)]) {
        const auto it = per_layer.find(layer);
        if (it != per_layer.end() && !it->second.empty()) {
          parts.push_back({child, it->second});
        }
      }
      core::Composition composed = core::compose_components(
          parts, static_cast<int>(cfg_.frame.num_channels));
      if (composed.composite.empty()) continue;
      s.comp[layer] = composed.composite;
      s.layout[layer] = std::move(composed.layout);
    }
  }
}

void HarpAgent::report_interface(Transport& t) {
  Message msg;
  msg.type = MsgType::kPostIntf;
  msg.src = cfg_.id;
  msg.dst = cfg_.parent;
  IntfPayload payload;
  for (Direction dir : {Direction::kUp, Direction::kDown}) {
    for (const auto& [layer, comp] : side(dir).comp) {
      payload.items.push_back(make_intf_item(layer, dir, comp));
    }
  }
  msg.payload = std::move(payload);
  t.send(std::move(msg));
}

void HarpAgent::gateway_allocate(Transport& t) {
  // Exactly the engine's initial layout (shared helper), so a distributed
  // bootstrap reproduces the oracle bit for bit.
  auto [up_parts, down_parts] = core::initial_gateway_layout(
      side(Direction::kUp).comp, side(Direction::kDown).comp, cfg_.frame);
  parts_.assign(Direction::kUp, cfg_.id, std::move(up_parts));
  parts_.assign(Direction::kDown, cfg_.id, std::move(down_parts));
  send_initial_grants(t);
  reassign_cells(Direction::kUp, t);
  reassign_cells(Direction::kDown, t);
  ready_ = true;
}

void HarpAgent::send_initial_grants(Transport& t) {
  for (const ChildLink& l : cfg_.children) {
    if (l.is_leaf) continue;
    PartPayload payload;
    for (Direction dir : {Direction::kUp, Direction::kDown}) {
      PerDir& s = side(dir);
      for (const auto& [layer, placements] : s.layout) {
        const core::Partition base = partition(dir, layer);
        if (base.empty()) continue;
        for (const packing::Placement& pl : placements) {
          if (pl.id != l.child) continue;
          const core::Partition child_part{
              child_comp_[dir_index(dir)][l.child][layer],
              base.slot + static_cast<SlotId>(pl.x),
              base.channel + static_cast<ChannelId>(pl.y)};
          payload.items.push_back(to_part_item(layer, dir, child_part));
          granted_[dir_index(dir)][l.child][layer] = child_part;
        }
      }
    }
    Message msg;
    msg.type = MsgType::kPostPart;
    msg.src = cfg_.id;
    msg.dst = l.child;
    msg.payload = std::move(payload);
    t.send(std::move(msg));
  }
}

void HarpAgent::reassign_cells(Direction dir, Transport& t) {
  std::vector<core::LinkRequest> requests;
  for (const ChildLink& l : cfg_.children) {
    const int demand = dir == Direction::kUp ? l.up_demand : l.down_demand;
    if (demand > 0) {
      requests.push_back(
          {l.child, demand,
           dir == Direction::kUp ? l.up_period : l.down_period});
    }
  }
  std::map<NodeId, std::vector<Cell>> next;
  if (!requests.empty()) {
    const core::Partition part = partition(dir, cfg_.link_layer);
    HARP_ASSERT(!part.empty());
    for (auto& [child, cells] :
         core::assign_cells_rm(part, requests, /*distribute_leftover=*/true)) {
      next[child] = std::move(cells);
    }
  }
  // Tell every child whose cells changed (data-plane message, not counted
  // as HARP overhead) and install its fresh row.
  for (const ChildLink& l : cfg_.children) {
    const auto it = next.find(l.child);
    std::vector<Cell> fresh =
        it == next.end() ? std::vector<Cell>{} : std::move(it->second);
    if (fresh == schedule_.cells(l.child, dir)) continue;
    Message msg;
    msg.type = MsgType::kCellAssign;
    msg.src = cfg_.id;
    msg.dst = l.child;
    CellAssignPayload payload;
    payload.dirs_replaced = dir == Direction::kUp ? 1 : 2;
    for (Cell c : fresh) {
      payload.items.push_back(CellItem{dir,
                                       static_cast<std::uint16_t>(c.slot),
                                       static_cast<std::uint8_t>(c.channel)});
    }
    msg.payload = std::move(payload);
    t.send(std::move(msg));
    schedule_.set_cells(l.child, dir, std::move(fresh));
  }
}

// ----------------------------------------------------------- message pump

void HarpAgent::on_message(const Message& msg, Transport& t) {
  HARP_OBS_SCOPE("harp.agent.on_message_ns");
  static const obs::InstrumentId kProcessed =
      obs::intern_counter("harp.agent.msgs_processed");
  obs::MetricsRegistry::global().counter(kProcessed).inc();
  switch (msg.type) {
    case MsgType::kPostIntf: {
      const auto& payload = std::get<IntfPayload>(msg.payload);
      for (const IntfItem& item : payload.items) {
        child_comp_[dir_index(item.dir)][msg.src][item.layer] =
            comp_from(item);
      }
      HARP_ASSERT(awaiting_children_ > 0);
      if (--awaiting_children_ == 0) {
        compose_own_interfaces();
        if (is_gateway()) {
          gateway_allocate(t);
        } else {
          report_interface(t);
        }
      }
      break;
    }
    case MsgType::kPostPart: {
      const auto& payload = std::get<PartPayload>(msg.payload);
      for (const PartItem& item : payload.items) {
        parts_.set(item.dir, cfg_.id, item.layer, from_part_item(item));
      }
      send_initial_grants(t);
      reassign_cells(Direction::kUp, t);
      reassign_cells(Direction::kDown, t);
      ready_ = true;
      break;
    }
    case MsgType::kPutIntf:
      handle_put_intf(msg, t);
      break;
    case MsgType::kPutPart:
      handle_put_part(msg, t);
      break;
    case MsgType::kReject:
      handle_reject(msg, t);
      break;
    case MsgType::kCellAssign:
      // Consumed by the data plane (the simulator reads cell assignments
      // from the parent agent); nothing to update here.
      break;
  }
}

// ------------------------------------------------------------- dynamic

namespace {

Message put_part_message(NodeId src, NodeId dst, int layer, Direction dir,
                         const core::Partition& p) {
  Message msg;
  msg.type = MsgType::kPutPart;
  msg.src = src;
  msg.dst = dst;
  PartPayload payload;
  payload.items.push_back(to_part_item(layer, dir, p));
  msg.payload = std::move(payload);
  return msg;
}

}  // namespace

/// Re-derives the children's partitions at `layer` from the current box +
/// layout and sends PUT-part where they changed.
void HarpAgent::carve_and_grant(Direction dir, int layer, Transport& t) {
  PerDir& s = side(dir);
  const auto layout_it = s.layout.find(layer);
  if (layout_it == s.layout.end() || layout_it->second.empty()) return;
  const core::Partition base = partition(dir, layer);
  HARP_ASSERT(!base.empty());
  for (const packing::Placement& pl : layout_it->second) {
    const auto child = static_cast<NodeId>(pl.id);
    const core::Partition next{child_comp_[dir_index(dir)][child][layer],
                               base.slot + static_cast<SlotId>(pl.x),
                               base.channel + static_cast<ChannelId>(pl.y)};
    HARP_ASSERT(next.comp.slots == pl.w && next.comp.channels == pl.h);
    core::Partition& granted = granted_[dir_index(dir)][child][layer];
    if (granted == next) continue;
    granted = next;
    t.send(put_part_message(cfg_.id, child, layer, dir, next));
  }
}

void HarpAgent::change_demand(NodeId child, Direction dir, int cells,
                              Transport& t) {
  HARP_ASSERT(ready_);
  static const obs::InstrumentId kChanges =
      obs::intern_counter("harp.agent.demand_changes");
  obs::MetricsRegistry::global().counter(kChanges).inc();
  ChildLink& l = link(child);
  const int old = demand(l, dir);
  if (cells == old) return;
  demand(l, dir) = cells;

  if (cells < old) {
    // Decrease: release cells, keep the partition reservation (Sec. V).
    reassign_cells(dir, t);
    return;
  }

  int sum = 0;
  for (const ChildLink& c : cfg_.children) {
    sum += dir == Direction::kUp ? c.up_demand : c.down_demand;
  }
  const core::Partition current = partition(dir, cfg_.link_layer);
  if (!current.empty() && sum <= current.comp.slots) {
    reassign_cells(dir, t);  // Case 1: absorbed locally (idle cells)
    return;
  }
  // Case 2: grow the own-layer component to exactly the new demand and
  // escalate (headroom is a bootstrap-time property: re-requesting it
  // here would inflate every escalation).
  const core::ResourceComponent grown{sum, 1};
  PerDir& s = side(dir);
  Pending pending;
  pending.requester = kNoNode;  // self
  pending.prev_own_comp = s.comp.count(cfg_.link_layer)
                              ? s.comp[cfg_.link_layer]
                              : core::ResourceComponent{};
  pending.prev_layout = {};
  pending.demand_rollback = {{child, old}};
  s.comp[cfg_.link_layer] = grown;
  s.layout[cfg_.link_layer] = {};

  if (is_gateway()) {
    // The gateway resolves its own growth by re-placing its layers.
    pending_.insert({{cfg_.link_layer, dir_index(dir)}, std::move(pending)});
    gateway_replace(dir, t);
    return;
  }
  escalate(dir, cfg_.link_layer, std::move(pending), t);
}

void HarpAgent::add_child(const ChildLink& link, Transport& t) {
  HARP_ASSERT(ready_);
  if (!link.is_leaf) {
    throw InvalidArgument("only leaf devices can join dynamically");
  }
  for (const ChildLink& l : cfg_.children) {
    if (l.child == link.child) {
      throw InvalidArgument("child already attached");
    }
  }
  // Register with zero demand, then negotiate the requested reservation
  // through the ordinary dynamic path.
  ChildLink fresh = link;
  const int want_up = fresh.up_demand;
  const int want_down = fresh.down_demand;
  fresh.up_demand = 0;
  fresh.down_demand = 0;
  cfg_.children.push_back(fresh);
  if (want_up > 0) change_demand(link.child, Direction::kUp, want_up, t);
  if (want_down > 0) change_demand(link.child, Direction::kDown, want_down, t);
}

void HarpAgent::remove_child(NodeId child, Transport& t) {
  HARP_ASSERT(ready_);
  ChildLink& l = link(child);
  if (!l.is_leaf) {
    throw InvalidArgument("only leaf devices can leave dynamically");
  }
  // Release the link's cells (reservation kept), then scrub bookkeeping.
  l.up_demand = 0;
  l.down_demand = 0;
  const core::Partition up_part = partition(Direction::kUp, cfg_.link_layer);
  const core::Partition down_part =
      partition(Direction::kDown, cfg_.link_layer);
  if (!up_part.empty()) reassign_cells(Direction::kUp, t);
  if (!down_part.empty()) reassign_cells(Direction::kDown, t);

  std::erase_if(cfg_.children,
                [&](const ChildLink& c) { return c.child == child; });
  for (Direction dir : {Direction::kUp, Direction::kDown}) {
    child_comp_[dir_index(dir)].erase(child);
    granted_[dir_index(dir)].erase(child);
    schedule_.clear_link(child, dir);
    for (auto& [layer, layout] : side(dir).layout) {
      std::erase_if(layout, [&](const packing::Placement& p) {
        return p.id == static_cast<std::uint64_t>(child);
      });
    }
  }
}

void HarpAgent::rehome(NodeId new_parent, int new_link_layer) {
  if (!cfg_.children.empty()) {
    throw InvalidArgument("only childless devices can roam");
  }
  if (new_parent == cfg_.id) throw InvalidArgument("cannot parent oneself");
  cfg_.parent = new_parent;
  cfg_.link_layer = new_link_layer;
  // Residual relay-era state (a node whose children all left keeps its
  // reservations) must not survive the move. Its children's cell rows are
  // already empty: remove_child cleared each one.
  for (Direction dir : {Direction::kUp, Direction::kDown}) {
    side(dir) = PerDir{};
    child_comp_[dir_index(dir)].clear();
    granted_[dir_index(dir)].clear();
    parts_.assign(dir, cfg_.id, {});
  }
  pending_.clear();
}

void HarpAgent::escalate(Direction dir, int layer, Pending pending,
                         Transport& t) {
  pending_.insert({{layer, dir_index(dir)}, std::move(pending)});
  Message msg;
  msg.type = MsgType::kPutIntf;
  msg.src = cfg_.id;
  msg.dst = cfg_.parent;
  IntfPayload payload;
  payload.items.push_back(
      make_intf_item(layer, dir, side(dir).comp[layer]));
  msg.payload = std::move(payload);
  t.send(std::move(msg));
}

void HarpAgent::handle_put_intf(const Message& msg, Transport& t) {
  const auto& payload = std::get<IntfPayload>(msg.payload);
  HARP_ASSERT(payload.items.size() == 1);
  const IntfItem& item = payload.items[0];
  const Direction dir = item.dir;
  const int layer = item.layer;
  const NodeId child = msg.src;
  const core::ResourceComponent updated = comp_from(item);

  auto& stored = child_comp_[dir_index(dir)][child][layer];
  const core::ResourceComponent prev_child = stored;
  stored = updated;

  PerDir& s = side(dir);
  const core::Partition box = partition(dir, layer);
  const std::vector<packing::Placement> prev_layout =
      s.layout.count(layer) ? s.layout[layer]
                            : std::vector<packing::Placement>{};
  const core::GrowSide grow_side = dir == Direction::kUp
                                       ? core::GrowSide::kRight
                                       : core::GrowSide::kLeft;
  const int max_channels = static_cast<int>(cfg_.frame.num_channels);
  const core::ResourceComponent prev_own =
      s.comp.count(layer) ? s.comp[layer] : core::ResourceComponent{};

  if (!box.empty()) {
    const core::AdjustOutcome outcome = core::adjust_partition_layout(
        box.comp, prev_layout, child, updated, grow_side);
    if (outcome.success) {
      s.layout[layer] = outcome.layout;
      carve_and_grant(dir, layer, t);
      return;
    }

    // The box must grow: anchored growth keeps the siblings in place so
    // only the requester's branch is disturbed by the escalation.
    if (auto grown = core::grow_composite_anchored(
            box.comp, prev_layout, child, updated, max_channels, grow_side)) {
      Pending pending;
      pending.requester = child;
      pending.prev_requester_comp = prev_child;
      pending.prev_own_comp = prev_own;
      pending.prev_layout = prev_layout;
      s.comp[layer] = grown->box;
      s.layout[layer] = std::move(grown->layout);
      if (is_gateway()) {
        pending_.insert({{layer, dir_index(dir)}, std::move(pending)});
        gateway_replace(dir, t);
        return;
      }
      escalate(dir, layer, std::move(pending), t);
      return;
    }
  }

  // Recompose this layer with the grown child component (Alg. 1).
  std::vector<core::ChildComponent> parts;
  for (const auto& [c, per_layer] : child_comp_[dir_index(dir)]) {
    const auto it = per_layer.find(layer);
    if (it != per_layer.end() && !it->second.empty()) {
      parts.push_back({c, it->second});
    }
  }
  core::Composition composed =
      core::compose_components(parts, max_channels);
  HARP_ASSERT(!composed.composite.empty());

  if (!box.empty() && composed.composite.slots <= box.comp.slots &&
      composed.composite.channels <= box.comp.channels) {
    // The fresh composition happens to fit the existing box even though
    // the incremental adjustment failed: adopt the layout, keep the
    // partition (and its reported size) unchanged.
    s.layout[layer] = std::move(composed.layout);
    carve_and_grant(dir, layer, t);
    return;
  }

  Pending pending;
  pending.requester = child;
  pending.prev_requester_comp = prev_child;
  pending.prev_own_comp = prev_own;
  pending.prev_layout = prev_layout;
  s.comp[layer] = composed.composite;
  s.layout[layer] = std::move(composed.layout);

  if (is_gateway()) {
    pending_.insert({{layer, dir_index(dir)}, std::move(pending)});
    gateway_replace(dir, t);
    return;
  }
  escalate(dir, layer, std::move(pending), t);
}

void HarpAgent::gateway_replace(Direction dir, Transport& t) {
  const Direction other =
      dir == Direction::kUp ? Direction::kDown : Direction::kUp;

  // Anchored-then-compact re-placement (shared with the engine).
  const auto placed =
      core::replace_gateway_side(side(dir).comp, dir, cfg_.frame,
                                 parts_.of(dir, cfg_.id),
                                 parts_.of(other, cfg_.id));

  // The pending entry for the layer under adjustment (there is exactly
  // one in our serialized-request model).
  const auto pending_it = std::find_if(
      pending_.begin(), pending_.end(), [&](const auto& kv) {
        return kv.first.second == dir_index(dir);
      });
  HARP_ASSERT(pending_it != pending_.end());
  const int layer = pending_it->first.first;
  const Pending pending = std::move(pending_it->second);
  pending_.erase(pending_it);

  if (!placed) {
    unwind(layer, dir, pending, t);  // deny
    return;
  }

  // Adopt the new layout and regrant whatever moved (carve_and_grant only
  // messages children whose partition actually changed).
  parts_.assign(dir, cfg_.id, *placed);
  for (const auto& [l, p] : *placed) {
    carve_and_grant(dir, l, t);
    if (l == cfg_.link_layer) reassign_cells(dir, t);
  }
}

void HarpAgent::handle_put_part(const Message& msg, Transport& t) {
  const auto& payload = std::get<PartPayload>(msg.payload);
  for (const PartItem& item : payload.items) {
    const Direction dir = item.dir;
    const int layer = item.layer;
    parts_.set(dir, cfg_.id, layer, from_part_item(item));
    pending_.erase({layer, dir_index(dir)});  // grant commits the tentative
    carve_and_grant(dir, layer, t);
    if (layer == cfg_.link_layer) reassign_cells(dir, t);
  }
}

void HarpAgent::handle_reject(const Message& msg, Transport& t) {
  const auto& payload = std::get<RejectPayload>(msg.payload);
  // An agent only receives kReject for an escalation it has in flight.
  HARP_ASSERT(abort_pending(payload.layer, payload.dir, t));
}

bool HarpAgent::abort_pending(int layer, Direction dir, Transport& t) {
  const auto it = pending_.find({layer, dir_index(dir)});
  if (it == pending_.end()) return false;
  const Pending pending = std::move(it->second);
  pending_.erase(it);
  unwind(layer, dir, pending, t);
  return true;
}

void HarpAgent::unwind(int layer, Direction dir, const Pending& pending,
                       Transport& t) {
  PerDir& s = side(dir);
  if (pending.prev_own_comp.empty()) {
    s.comp.erase(layer);
    s.layout.erase(layer);
  } else {
    s.comp[layer] = pending.prev_own_comp;
    s.layout[layer] = pending.prev_layout;
  }
  if (pending.requester != kNoNode) {
    child_comp_[dir_index(dir)][pending.requester][layer] =
        pending.prev_requester_comp;
    Message reject;
    reject.type = MsgType::kReject;
    reject.src = cfg_.id;
    reject.dst = pending.requester;
    reject.payload = RejectPayload{static_cast<std::uint8_t>(layer), dir};
    t.send(std::move(reject));
  } else if (pending.demand_rollback) {
    demand(link(pending.demand_rollback->first), dir) =
        pending.demand_rollback->second;
  }
}

}  // namespace harp::proto
