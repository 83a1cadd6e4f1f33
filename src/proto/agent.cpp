#include "proto/agent.hpp"

#include <algorithm>
#include <set>
#include <utility>

#include "common/error.hpp"
#include "harp/adjustment.hpp"
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

HarpAgent::HarpAgent(AgentConfig cfg, NetworkTables& tables)
    : cfg_(std::move(cfg)), tables_(tables) {
  cfg_.frame.validate();
  if (cfg_.id == kNoNode) throw InvalidArgument("agent needs a node id");
}

const ChildLink& HarpAgent::link(NodeId child) const {
  for (const ChildLink& l : cfg_.children) {
    if (l.child == child) return l;
  }
  throw InvalidArgument("node " + std::to_string(cfg_.id) +
                        " has no child " + std::to_string(child));
}

ChildLink& HarpAgent::link(NodeId child) {
  return const_cast<ChildLink&>(std::as_const(*this).link(child));
}

bool HarpAgent::has_child(NodeId child) const {
  return std::any_of(cfg_.children.begin(), cfg_.children.end(),
                     [child](const ChildLink& l) { return l.child == child; });
}

int HarpAgent::child_demand(NodeId child, Direction dir) const {
  return link(child).demand(dir);
}

std::vector<core::ChildComponent> HarpAgent::child_components(
    Direction dir, int layer) const {
  std::vector<core::ChildComponent> out;
  for (const auto& [child, per_layer] : child_comp_[dir_index(dir)]) {
    const auto it = per_layer.find(layer);
    if (it != per_layer.end() && !it->second.empty()) {
      out.push_back({child, it->second});
    }
  }
  return out;
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
  if (awaiting_children_ == 0) report_interface(t);
}

void HarpAgent::compose_own_interfaces() {
  for (Direction dir : {Direction::kUp, Direction::kDown}) {
    core::InterfaceSet& ifs = own(dir);
    ifs.clear_node(cfg_.id);
    // Case 1: own links share this node -> one slot row (plus the
    // per-link provisioning headroom, when configured).
    int sum = 0;
    int active = 0;
    for (const ChildLink& l : cfg_.children) {
      sum += l.demand(dir);
      if (l.demand(dir) > 0) ++active;
    }
    if (sum > 0) {
      ifs.set_component(cfg_.id, cfg_.link_layer,
                        {sum + cfg_.own_slack * active, 1});
    }
    // Case 2: compose whatever the children reported, layer by layer.
    std::set<int> layers;
    for (const auto& [child, per_layer] : child_comp_[dir_index(dir)]) {
      for (const auto& [layer, comp] : per_layer) layers.insert(layer);
    }
    for (int layer : layers) {
      core::Composition composed = core::compose_components(
          child_components(dir, layer),
          static_cast<int>(cfg_.frame.num_channels));
      if (composed.composite.empty()) continue;
      ifs.set_component(cfg_.id, layer, composed.composite);
      ifs.set_layout(cfg_.id, layer, std::move(composed.layout));
    }
  }
}

void HarpAgent::report_interface(Transport& t) {
  compose_own_interfaces();
  if (is_gateway()) {
    gateway_allocate(t);
    return;
  }
  IntfPayload payload;
  for (Direction dir : {Direction::kUp, Direction::kDown}) {
    if (const auto* rows = own(dir).peek(cfg_.id)) {
      for (const auto& [layer, entry] : *rows) {
        payload.items.push_back(make_intf_item(layer, dir, entry.comp));
      }
    }
  }
  t.send({MsgType::kPostIntf, cfg_.id, cfg_.parent, std::move(payload)});
}

void HarpAgent::gateway_allocate(Transport& t) {
  // Exactly the engine's initial layout (shared helper), so a distributed
  // bootstrap reproduces the oracle bit for bit.
  auto [up_parts, down_parts] = core::initial_gateway_layout(
      core::gateway_components(tables_.up),
      core::gateway_components(tables_.down), cfg_.frame);
  tables_.parts.assign(Direction::kUp, cfg_.id, std::move(up_parts));
  tables_.parts.assign(Direction::kDown, cfg_.id, std::move(down_parts));
  grant_initial(t);
}

void HarpAgent::grant_initial(Transport& t) {
  for (const ChildLink& l : cfg_.children) {
    if (l.is_leaf) continue;
    PartPayload payload;
    for (Direction dir : {Direction::kUp, Direction::kDown}) {
      const auto* rows = own(dir).peek(cfg_.id);
      if (rows == nullptr) continue;
      for (const auto& [layer, entry] : *rows) {
        const core::Partition base = partition(dir, layer);
        if (base.empty()) continue;
        for (const packing::Placement& pl : entry.layout) {
          if (pl.id != l.child) continue;
          const core::Partition child_part = core::child_partition(
              base, pl, child_comp_[dir_index(dir)][l.child][layer]);
          payload.items.push_back(to_part_item(layer, dir, child_part));
          granted_[dir_index(dir)][l.child][layer] = child_part;
        }
      }
    }
    t.send({MsgType::kPostPart, cfg_.id, l.child, std::move(payload)});
  }
  reassign_cells(Direction::kUp, t);
  reassign_cells(Direction::kDown, t);
  ready_ = true;
}

void HarpAgent::reassign_cells(Direction dir, Transport& t) {
  std::vector<core::LinkRequest> requests;
  for (const ChildLink& l : cfg_.children) {
    if (l.demand(dir) > 0) {
      requests.push_back({l.child, l.demand(dir), l.period(dir)});
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
    if (fresh == tables_.schedule.cells(l.child, dir)) continue;
    CellAssignPayload payload;
    payload.dirs_replaced = dir == Direction::kUp ? 1 : 2;
    for (Cell c : fresh) {
      payload.items.push_back(CellItem{dir,
                                       static_cast<std::uint16_t>(c.slot),
                                       static_cast<std::uint8_t>(c.channel)});
    }
    t.send({MsgType::kCellAssign, cfg_.id, l.child, std::move(payload)});
    tables_.schedule.set_cells(l.child, dir, std::move(fresh));
  }
}

// ----------------------------------------------------------- message pump

void HarpAgent::on_message(const Message& msg, Transport& t) {
  HARP_OBS_SCOPE("harp.agent.on_message_ns");
  static const obs::InstrumentId kProcessed =
      obs::intern_counter("harp.agent.msgs_processed");
  obs::MetricsRegistry::global().counter(kProcessed).inc();
  if (!accepts(msg)) {
    // Counted only here: the runner's behaviour fingerprint hashes every
    // counter a trial touches.
    static const obs::InstrumentId kRejected =
        obs::intern_counter("harp.agent.msgs_rejected");
    obs::MetricsRegistry::global().counter(kRejected).inc();
    return;
  }
  switch (msg.type) {
    case MsgType::kPostIntf: {
      const auto& payload = std::get<IntfPayload>(msg.payload);
      for (const IntfItem& item : payload.items) {
        child_comp_[dir_index(item.dir)][msg.src][item.layer] =
            comp_from(item);
      }
      if (--awaiting_children_ == 0) report_interface(t);
      break;
    }
    case MsgType::kPostPart: {
      const auto& payload = std::get<PartPayload>(msg.payload);
      for (const PartItem& item : payload.items) {
        tables_.parts.set(item.dir, cfg_.id, item.layer, from_part_item(item));
      }
      grant_initial(t);
      break;
    }
    case MsgType::kPutIntf:
      handle_put_intf(msg, t);
      break;
    case MsgType::kPutPart:
      handle_put_part(msg, t);
      break;
    case MsgType::kReject: {
      const auto& payload = std::get<RejectPayload>(msg.payload);
      abort_pending(payload.layer, payload.dir, t);
      break;
    }
    case MsgType::kCellAssign:
      // Consumed by the data plane (the simulator reads cell assignments
      // from the parent agent); nothing to update here.
      break;
  }
}

bool HarpAgent::accepts(const Message& msg) const {
  // A child's interface lies at the layers below this node's own links,
  // a grant at this node's layers, and both inside the frame.
  const auto in_subtree = [this](const IntfItem& item) {
    return item.layer > cfg_.link_layer && !comp_from(item).empty() &&
           item.channels <= cfg_.frame.num_channels;
  };
  const auto in_frame = [this](const PartItem& item) {
    const core::Partition p = from_part_item(item);
    return item.layer >= cfg_.link_layer && !p.empty() &&
           p.end_slot() <= cfg_.frame.data_slots &&
           p.end_channel() <= cfg_.frame.num_channels;
  };
  switch (msg.type) {
    case MsgType::kPostIntf:
    case MsgType::kPutIntf: {
      const auto& items = std::get<IntfPayload>(msg.payload).items;
      if (msg.type == MsgType::kPostIntf ? awaiting_children_ == 0
                                         : items.size() != 1) {
        return false;
      }
      if (!has_child(msg.src)) return false;
      // Only relay children report at bootstrap: a leaf holds no
      // interface, and one that relays later reports by PUT-intf.
      if (msg.type == MsgType::kPostIntf && link(msg.src).is_leaf) {
        return false;
      }
      return std::all_of(items.begin(), items.end(), in_subtree);
    }
    case MsgType::kPostPart:
    case MsgType::kPutPart: {
      const auto& items = std::get<PartPayload>(msg.payload).items;
      return !is_gateway() && msg.src == cfg_.parent &&
             std::all_of(items.begin(), items.end(), in_frame);
    }
    case MsgType::kReject: {
      const auto& payload = std::get<RejectPayload>(msg.payload);
      return pending_.contains({payload.layer, dir_index(payload.dir)});
    }
    case MsgType::kCellAssign:
      return true;
  }
  return false;
}

// ------------------------------------------------------------- dynamic

/// Re-derives the children's partitions at `layer` from the current box +
/// layout and sends PUT-part where they changed.
void HarpAgent::carve_and_grant(Direction dir, int layer, Transport& t) {
  const std::vector<packing::Placement>& layout =
      own(dir).layout(cfg_.id, layer);
  if (layout.empty()) return;
  const core::Partition base = partition(dir, layer);
  HARP_ASSERT(!base.empty());
  for (const packing::Placement& pl : layout) {
    const auto child = static_cast<NodeId>(pl.id);
    const core::Partition next = core::child_partition(
        base, pl, child_comp_[dir_index(dir)][child][layer]);
    core::Partition& granted = granted_[dir_index(dir)][child][layer];
    if (granted == next) continue;
    granted = next;
    t.send({MsgType::kPutPart, cfg_.id, child,
            PartPayload{{to_part_item(layer, dir, next)}}});
  }
}

void HarpAgent::change_demand(NodeId child, Direction dir, int cells,
                              Transport& t) {
  HARP_ASSERT(ready_);
  static const obs::InstrumentId kChanges =
      obs::intern_counter("harp.agent.demand_changes");
  obs::MetricsRegistry::global().counter(kChanges).inc();
  int& demand = link(child).demand(dir);
  const int old = demand;
  if (cells == old) return;
  demand = cells;

  if (cells < old) {
    // Decrease: release cells, keep the partition reservation (Sec. V).
    reassign_cells(dir, t);
    return;
  }

  int sum = 0;
  for (const ChildLink& c : cfg_.children) sum += c.demand(dir);
  const core::Partition current = partition(dir, cfg_.link_layer);
  if (!current.empty() && sum <= current.comp.slots) {
    reassign_cells(dir, t);  // Case 1: absorbed locally (idle cells)
    return;
  }
  // Case 2: grow the own-layer component to exactly the new demand and
  // escalate (headroom is a bootstrap-time property: re-requesting it
  // here would inflate every escalation).
  Pending pending;
  pending.requester = kNoNode;  // self
  pending.prev_own_comp = own(dir).component(cfg_.id, cfg_.link_layer);
  pending.demand_rollback = {{child, old}};
  own(dir).set_component(cfg_.id, cfg_.link_layer, {sum, 1});
  escalate(dir, cfg_.link_layer, std::move(pending), t);
}

void HarpAgent::add_child(const ChildLink& link, Transport& t) {
  HARP_ASSERT(ready_);
  if (!link.is_leaf) {
    throw InvalidArgument("only leaf devices can join dynamically");
  }
  if (has_child(link.child)) throw InvalidArgument("child already attached");
  // Register with zero demand, then negotiate the requested reservation
  // through the ordinary dynamic path.
  cfg_.children.push_back(link);
  cfg_.children.back().up_demand = cfg_.children.back().down_demand = 0;
  for (Direction dir : {Direction::kUp, Direction::kDown}) {
    if (link.demand(dir) > 0) {
      change_demand(link.child, dir, link.demand(dir), t);
    }
  }
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
  for (Direction dir : {Direction::kUp, Direction::kDown}) {
    if (!partition(dir, cfg_.link_layer).empty()) reassign_cells(dir, t);
  }

  std::erase_if(cfg_.children,
                [&](const ChildLink& c) { return c.child == child; });
  for (Direction dir : {Direction::kUp, Direction::kDown}) {
    child_comp_[dir_index(dir)].erase(child);
    granted_[dir_index(dir)].erase(child);
    tables_.schedule.clear_link(child, dir);
    own(dir).erase_placement(cfg_.id, child);
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
    own(dir).clear_node(cfg_.id);
    child_comp_[dir_index(dir)].clear();
    granted_[dir_index(dir)].clear();
    tables_.parts.assign(dir, cfg_.id, {});
  }
  pending_.clear();
}

void HarpAgent::escalate(Direction dir, int layer, Pending pending,
                         Transport& t) {
  if (is_gateway()) {
    // The gateway resolves the growth itself by re-placing its layers.
    gateway_replace(dir, layer, pending, t);
    return;
  }
  pending_.insert({{layer, dir_index(dir)}, std::move(pending)});
  t.send({MsgType::kPutIntf, cfg_.id, cfg_.parent,
          IntfPayload{{make_intf_item(
              layer, dir, own(dir).component(cfg_.id, layer))}}});
}

void HarpAgent::handle_put_intf(const Message& msg, Transport& t) {
  const IntfItem& item = std::get<IntfPayload>(msg.payload).items[0];
  const Direction dir = item.dir;
  const int layer = item.layer;
  const NodeId child = msg.src;
  const core::ResourceComponent updated = comp_from(item);

  auto& stored = child_comp_[dir_index(dir)][child][layer];
  const core::ResourceComponent prev_child = stored;
  stored = updated;

  core::InterfaceSet& ifs = own(dir);
  const core::ResourceComponent box = partition(dir, layer).comp;
  const int max_channels = static_cast<int>(cfg_.frame.num_channels);
  std::optional<core::HopStep> step =
      core::adjust_hop(box, ifs.layout(cfg_.id, layer), child, updated,
                       core::grow_side(dir), max_channels);
  if (!step) {
    step = core::recompose_hop(child_components(dir, layer), max_channels);
  }
  if (step->absorbed) {
    ifs.set_layout(cfg_.id, layer, std::move(step->layout));
    carve_and_grant(dir, layer, t);
    return;
  }
  Pending pending{child, prev_child, ifs.component(cfg_.id, layer),
                  ifs.layout(cfg_.id, layer), std::nullopt};
  ifs.set_component(cfg_.id, layer, step->comp);
  ifs.set_layout(cfg_.id, layer, std::move(step->layout));
  escalate(dir, layer, std::move(pending), t);
}

void HarpAgent::gateway_replace(Direction dir, int layer,
                                const Pending& pending, Transport& t) {
  // Anchored-then-compact re-placement (shared with the engine).
  const auto placed =
      core::replace_gateway_side(own(dir), tables_.parts, dir, cfg_.frame);
  if (!placed) {
    unwind(layer, dir, pending, t);  // deny
    return;
  }

  // Adopt the new layout and regrant whatever moved (carve_and_grant only
  // messages children whose partition actually changed).
  tables_.parts.assign(dir, cfg_.id, *placed);
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
    tables_.parts.set(dir, cfg_.id, layer, from_part_item(item));
    pending_.erase({layer, dir_index(dir)});  // grant commits the tentative
    carve_and_grant(dir, layer, t);
    if (layer == cfg_.link_layer) reassign_cells(dir, t);
  }
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
  // An empty component erases the layer, layout included.
  own(dir).set_component(cfg_.id, layer, pending.prev_own_comp);
  if (!pending.prev_own_comp.empty()) {
    own(dir).set_layout(cfg_.id, layer, pending.prev_layout);
  }
  if (pending.requester != kNoNode) {
    child_comp_[dir_index(dir)][pending.requester][layer] =
        pending.prev_requester_comp;
    t.send({MsgType::kReject, cfg_.id, pending.requester,
            RejectPayload{static_cast<std::uint8_t>(layer), dir}});
  } else if (pending.demand_rollback) {
    link(pending.demand_rollback->first).demand(dir) =
        pending.demand_rollback->second;
  }
}

}  // namespace harp::proto
