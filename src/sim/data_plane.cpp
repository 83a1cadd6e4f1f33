#include "sim/data_plane.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "obs/obs.hpp"

namespace harp::sim {

DataPlane::ObsCounters DataPlane::resolve_obs_counters() {
  auto& reg = obs::MetricsRegistry::global();
  return {
      .slots = &reg.counter("harp.sim.slots"),
      .generated = &reg.counter("harp.sim.packets_generated"),
      .delivered = &reg.counter("harp.sim.packets_delivered"),
      .dropped = &reg.counter("harp.sim.packets_dropped"),
      .deadline_misses = &reg.counter("harp.sim.deadline_misses"),
      .tx_attempts = &reg.counter("harp.sim.tx_attempts"),
      .tx_success = &reg.counter("harp.sim.tx_success"),
      .collisions = &reg.counter("harp.sim.tx_collisions"),
      .link_loss = &reg.counter("harp.sim.tx_link_loss"),
  };
}

DataPlane::DataPlane(const net::Topology& topo, std::vector<net::Task> tasks,
                     SimConfig config, std::uint64_t seed)
    : topo_(topo),
      config_(config),
      rng_(seed),
      metrics_(topo.size()),
      up_queue_(topo.size()),
      down_queue_(topo.size()),
      by_slot_(config.frame.length) {
  config_.frame.validate();
  if (config_.pdr < 0.0 || config_.pdr > 1.0) {
    throw InvalidArgument("pdr must be in [0,1]");
  }
  tasks_.reserve(tasks.size());
  for (net::Task& t : tasks) {
    if (t.period_slots == 0) throw InvalidArgument("task period must be > 0");
    if (t.source == kNoNode || t.source >= topo.size() ||
        t.source == net::Topology::gateway()) {
      throw InvalidArgument("task source invalid");
    }
    tasks_.push_back({t, t.phase_slots, next_task_seq_++});
    calendar_.push({t.phase_slots, tasks_.back().seq});
  }
  reindex_tasks();
  interference_.resize(config_.frame.num_channels);
  cell_stamp_.assign(static_cast<std::size_t>(config_.frame.length) *
                         config_.frame.num_channels,
                     0);
  cell_count_.assign(cell_stamp_.size(), 0);
  node_stamp_.assign(topo.size(), 0);
  node_count_.assign(topo.size(), 0);
}

void DataPlane::reindex_tasks() {
  index_by_id_.clear();
  index_by_seq_.clear();
  for (std::uint32_t i = 0; i < tasks_.size(); ++i) {
    index_by_id_.emplace(tasks_[i].spec.id, i);  // first insertion wins
    index_by_seq_.emplace(tasks_[i].seq, i);
  }
}

const net::Task* DataPlane::find_spec(TaskId task) const {
  const auto it = index_by_id_.find(task);
  return it == index_by_id_.end() ? nullptr : &tasks_[it->second].spec;
}

void DataPlane::set_schedule(const core::Schedule& schedule) {
  for (auto& v : by_slot_) v.clear();
  // Child-major, uplink before downlink: the per-slot entry order the
  // transmit loop (and so every pinned digest) depends on.
  for (NodeId child = 0; child < schedule.num_nodes(); ++child) {
    for (const Direction dir : {Direction::kUp, Direction::kDown}) {
      for (const Cell c : schedule.cells(child, dir)) {
        HARP_ASSERT(c.slot < config_.frame.length);
        HARP_ASSERT(c.channel < config_.frame.num_channels);
        by_slot_[c.slot].push_back({child, dir, c});
      }
    }
  }
}

void DataPlane::run_slots(AbsoluteSlot n) {
  obs_.slots->inc(n);
  for (AbsoluteSlot i = 0; i < n; ++i) {
    HARP_OBS_EVENT({.type = obs::EventType::kSlotTick, .slot = now_});
    generate(now_);
    transmit(now_);
    ++now_;
#if HARP_AUDIT_ENABLED
    if (now_ % config_.frame.length == 0) {
      HARP_AUDIT("sim.queue_conservation",
                 audit::check_queue_conservation(audit_generated_,
                                                 audit_delivered_,
                                                 audit_dropped_, backlog()));
    }
#endif
  }
}

void DataPlane::resize_for_topology() {
  const std::size_t n = topo_.size();
  HARP_ASSERT(n >= up_queue_.size());
  up_queue_.resize(n);
  down_queue_.resize(n);
  metrics_.resize(n);
  node_stamp_.resize(n, 0);
  node_count_.resize(n, 0);
}

void DataPlane::add_task(net::Task task) {
  if (task.period_slots == 0) throw InvalidArgument("task period must be > 0");
  if (task.source == kNoNode || task.source >= topo_.size() ||
      task.source == net::Topology::gateway()) {
    throw InvalidArgument("task source invalid");
  }
  // First release at the next on-grid point from now.
  AbsoluteSlot release = task.phase_slots;
  while (release < now_) release += task.period_slots;
  const std::uint32_t index = static_cast<std::uint32_t>(tasks_.size());
  tasks_.push_back({task, release, next_task_seq_++});
  index_by_id_.emplace(tasks_.back().spec.id, index);  // first wins
  index_by_seq_.emplace(tasks_.back().seq, index);
  calendar_.push({release, tasks_.back().seq});
}

void DataPlane::remove_tasks_from(NodeId node) {
  std::vector<TaskId> removed;
  std::erase_if(tasks_, [&](const TaskState& t) {
    if (t.spec.source == node) {
      removed.push_back(t.spec.id);
      return true;
    }
    return false;
  });
  if (removed.empty()) return;
  reindex_tasks();  // indices shifted; stale calendar entries skip lazily
  std::sort(removed.begin(), removed.end());
  const auto gone = [&](const Packet& p) {
    return std::binary_search(removed.begin(), removed.end(), p.task);
  };
  for (auto& q : up_queue_) {
    HARP_AUDIT_ONLY(audit_dropped_ += static_cast<std::uint64_t>(
                        std::count_if(q.begin(), q.end(), gone));)
    std::erase_if(q, gone);
  }
  for (auto& q : down_queue_) {
    HARP_AUDIT_ONLY(audit_dropped_ += static_cast<std::uint64_t>(
                        std::count_if(q.begin(), q.end(), gone));)
    std::erase_if(q, gone);
  }
}

void DataPlane::add_interference(ChannelId channel, AbsoluteSlot from,
                                 AbsoluteSlot until, double success_factor) {
  if (channel >= config_.frame.num_channels) {
    throw InvalidArgument("interference channel out of range");
  }
  if (success_factor < 0.0 || success_factor > 1.0) {
    throw InvalidArgument("success factor must be in [0,1]");
  }
  if (until <= from) throw InvalidArgument("empty interference window");
  interference_[channel].push_back({from, until, success_factor});
}

double DataPlane::success_probability(ChannelId channel, AbsoluteSlot t) {
  auto& bursts = interference_[channel];
  double p = config_.pdr;
  // Compact in place, preserving insertion order: overlapping bursts
  // multiply and float products are order-sensitive, so pruning must not
  // reorder the survivors.
  std::size_t keep = 0;
  for (std::size_t i = 0; i < bursts.size(); ++i) {
    const Interference burst = bursts[i];
    if (burst.until <= t) continue;  // expired for good (t is monotonic)
    if (burst.from <= t) p *= burst.factor;
    bursts[keep++] = burst;
  }
  bursts.resize(keep);
  return p;
}

void DataPlane::set_task_period(TaskId task, std::uint32_t period_slots) {
  if (period_slots == 0) throw InvalidArgument("task period must be > 0");
  const auto it = index_by_id_.find(task);
  if (it == index_by_id_.end()) {
    throw InvalidArgument("unknown task " + std::to_string(task));
  }
  // Keep the already-scheduled next release (the calendar entry for it
  // stays valid); subsequent releases follow the new period from there.
  tasks_[it->second].spec.period_slots = period_slots;
}

std::size_t DataPlane::backlog() const {
  std::size_t total = 0;
  for (const auto& q : up_queue_) total += q.size();
  for (const auto& q : down_queue_) total += q.size();
  return total;
}

std::size_t DataPlane::backlog_of_task(TaskId task) const {
  std::size_t total = 0;
  for (const auto& q : up_queue_) {
    total += static_cast<std::size_t>(
        std::count_if(q.begin(), q.end(),
                      [&](const Packet& p) { return p.task == task; }));
  }
  for (const auto& q : down_queue_) {
    total += static_cast<std::size_t>(
        std::count_if(q.begin(), q.end(),
                      [&](const Packet& p) { return p.task == task; }));
  }
  return total;
}

void DataPlane::generate(AbsoluteSlot t) {
  // Pop due calendar entries instead of scanning every task every slot.
  // Same-slot ties pop in seq (= insertion) order, matching the old full
  // scan's iteration order so the enqueue sequence is identical.
  while (!calendar_.empty() && calendar_.top().at <= t) {
    const Release r = calendar_.top();
    calendar_.pop();
    const auto it = index_by_seq_.find(r.seq);
    if (it == index_by_seq_.end()) continue;  // task removed; stale entry
    TaskState& task = tasks_[it->second];
    if (task.next_release != r.at) continue;  // rescheduled; stale entry
    if (r.at == t) {
      metrics_.on_generated(task.spec.source);
      obs_.generated->inc();
      HARP_AUDIT_ONLY(++audit_generated_;)
      enqueue(up_queue_[task.spec.source],
              Packet{task.spec.id, task.spec.source,
                     net::Topology::gateway(), t},
              task.spec.source, Direction::kUp);
    }
    task.next_release += task.spec.period_slots;
    calendar_.push({task.next_release, task.seq});
  }
}

// `at` and `dir` only feed trace events (unused under HARP_OBS=OFF).
void DataPlane::enqueue(std::deque<Packet>& queue, Packet pkt,
                        [[maybe_unused]] NodeId at,
                        [[maybe_unused]] Direction dir) {
  if (queue.size() >= config_.queue_capacity) {
    metrics_.on_dropped(pkt.source);
    obs_.dropped->inc();
    HARP_AUDIT_ONLY(++audit_dropped_;)
    HARP_OBS_EVENT({.type = obs::EventType::kQueueDrop,
                    .a = pkt.source,
                    .slot = now_});
    return;
  }
  queue.push_back(pkt);
  HARP_OBS_EVENT({.type = obs::EventType::kQueueDepth,
                  .aux = static_cast<std::uint8_t>(dir),
                  .a = at,
                  .slot = now_,
                  .value = queue.size()});
}

NodeId DataPlane::next_hop_down(NodeId from, NodeId destination) const {
  // kNoNode: `from` is no longer on the path (the destination roamed
  // while this packet was in flight); the caller drops the packet.
  return topo_.next_hop_toward(from, destination);
}

void DataPlane::record_delivery(const Packet& pkt, AbsoluteSlot t,
                                std::uint32_t deadline) {
  const AbsoluteSlot latency_slots = t - pkt.created + 1;
  const bool met = latency_slots <= deadline;
  metrics_.record({pkt.task, pkt.source, pkt.created, t,
                   static_cast<double>(latency_slots) *
                       config_.frame.slot_seconds,
                   met});
  obs_.delivered->inc();
  HARP_AUDIT_ONLY(++audit_delivered_;)
  if (!met) obs_.deadline_misses->inc();
  HARP_OBS_EVENT({.type = obs::EventType::kDeliver,
                  .aux = static_cast<std::uint8_t>(met ? 1 : 0),
                  .a = pkt.source,
                  .slot = t,
                  .value = latency_slots});
}

void DataPlane::deliver_up(Packet pkt, AbsoluteSlot t) {
  // Reached the gateway. Echo tasks turn around and descend to their
  // source; collect-only tasks complete here.
  const net::Task* spec = find_spec(pkt.task);
  HARP_ASSERT(spec != nullptr);
  if (spec->echo) {
    pkt.destination = pkt.source;
    const NodeId hop =
        next_hop_down(net::Topology::gateway(), pkt.destination);
    if (hop == kNoNode) {
      metrics_.on_dropped(pkt.source);  // destination roamed mid-flight
      obs_.dropped->inc();
      HARP_AUDIT_ONLY(++audit_dropped_;)
      HARP_OBS_EVENT({.type = obs::EventType::kRouteDrop,
                      .a = pkt.source,
                      .b = pkt.destination,
                      .slot = t});
      return;
    }
    enqueue(down_queue_[hop], pkt, hop, Direction::kDown);
    return;
  }
  record_delivery(pkt, t, spec->effective_deadline());
}

void DataPlane::deliver_down(NodeId at, Packet pkt, AbsoluteSlot t) {
  if (at == pkt.destination) {
    const net::Task* spec = find_spec(pkt.task);
    record_delivery(pkt, t, spec ? spec->effective_deadline() : ~0u);
    return;
  }
  const NodeId hop = next_hop_down(at, pkt.destination);
  if (hop == kNoNode) {
    metrics_.on_dropped(pkt.source);  // destination roamed mid-flight
    obs_.dropped->inc();
    HARP_AUDIT_ONLY(++audit_dropped_;)
    HARP_OBS_EVENT({.type = obs::EventType::kRouteDrop,
                    .a = pkt.source,
                    .b = pkt.destination,
                    .slot = t});
    return;
  }
  enqueue(down_queue_[hop], pkt, hop, Direction::kDown);
}

void DataPlane::transmit(AbsoluteSlot t) {
  const SlotId slot = static_cast<SlotId>(t % config_.frame.length);
  const auto& entries = by_slot_[slot];
  if (entries.empty()) return;

  // Identify which entries actually have a packet to send, then detect
  // conflicts among the ACTIVE transmissions only (an idle cell cannot
  // collide). `active_` and the flat conflict counters are preallocated
  // members so the steady-state loop performs no heap allocation; the
  // counters are epoch-stamped with t+1 (stamps start at 0) instead of
  // being cleared between slots.
  active_.clear();
  for (const Entry& e : entries) {
    const NodeId parent = topo_.parent(e.child);
    if (e.dir == Direction::kUp) {
      if (!up_queue_[e.child].empty()) {
        active_.push_back({&e, e.child, parent});
      }
    } else {
      if (!down_queue_[e.child].empty()) {
        active_.push_back({&e, parent, e.child});
      }
    }
  }
  if (active_.empty()) return;

  const AbsoluteSlot epoch = t + 1;
  const auto cell_index = [this](Cell c) {
    return static_cast<std::size_t>(c.slot) * config_.frame.num_channels +
           c.channel;
  };
  const auto bump = [epoch](std::vector<AbsoluteSlot>& stamp,
                            std::vector<std::uint16_t>& count,
                            std::size_t i) {
    if (stamp[i] != epoch) {
      stamp[i] = epoch;
      count[i] = 0;
    }
    ++count[i];
  };
  for (const Active& a : active_) {
    bump(cell_stamp_, cell_count_, cell_index(a.entry->cell));
    bump(node_stamp_, node_count_, a.sender);
    bump(node_stamp_, node_count_, a.receiver);
  }

  for (const Active& a : active_) {
    obs_.tx_attempts->inc();
    [[maybe_unused]] const auto dir_aux =
        static_cast<std::uint8_t>(a.entry->dir);
    [[maybe_unused]] const auto channel =
        static_cast<std::uint16_t>(a.entry->cell.channel);
    const bool collided = cell_count_[cell_index(a.entry->cell)] > 1 ||
                          node_count_[a.sender] > 1 ||
                          node_count_[a.receiver] > 1;
    if (collided) {
      obs_.collisions->inc();
      HARP_OBS_EVENT({.type = obs::EventType::kCollision,
                      .aux = dir_aux,
                      .channel = channel,
                      .a = a.sender,
                      .b = a.receiver,
                      .slot = t});
      continue;  // retry in the link's next cell
    }
    if (!rng_.chance(success_probability(a.entry->cell.channel, t))) {
      obs_.link_loss->inc();
      HARP_OBS_EVENT({.type = obs::EventType::kLinkLoss,
                      .aux = dir_aux,
                      .channel = channel,
                      .a = a.sender,
                      .b = a.receiver,
                      .slot = t});
      continue;  // retry in the link's next cell
    }
    obs_.tx_success->inc();
    HARP_OBS_EVENT({.type = obs::EventType::kTxSuccess,
                    .aux = dir_aux,
                    .channel = channel,
                    .a = a.sender,
                    .b = a.receiver,
                    .slot = t});

    if (a.entry->dir == Direction::kUp) {
      Packet pkt = up_queue_[a.entry->child].front();
      up_queue_[a.entry->child].pop_front();
      if (a.receiver == net::Topology::gateway()) {
        deliver_up(pkt, t);
      } else {
        enqueue(up_queue_[a.receiver], pkt, a.receiver, Direction::kUp);
      }
    } else {
      Packet pkt = down_queue_[a.entry->child].front();
      down_queue_[a.entry->child].pop_front();
      deliver_down(a.entry->child, pkt, t);
    }
  }
}

}  // namespace harp::sim
