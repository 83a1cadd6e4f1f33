// Slot-stepped TSCH data-plane simulator.
//
// Substitutes for the paper's CC2650 testbed radios (see DESIGN.md): time
// advances one slot at a time; in every slot the installed schedule says
// which links may transmit on which channels. A transmission succeeds iff
//   * no other transmission uses the same (slot, channel) cell,
//   * neither endpoint is engaged by another transmission in the slot
//     (half-duplex), and
//   * the Bernoulli link-quality draw succeeds (configurable PDR,
//     modelling the environmental interference the paper reports).
// Failed packets stay at the head of their queue and retry in the link's
// next cell, exactly like TSCH retransmissions.
//
// Routing follows the tree: uplink packets climb to the gateway; packets
// of echo tasks then descend to their source, and end-to-end latency is
// measured from generation to final delivery.
#pragma once

#include <queue>
#include <unordered_map>
#include <vector>

#include "audit/audit.hpp"
#include "common/ring.hpp"
#include "common/rng.hpp"
#include "harp/schedule.hpp"
#include "net/task.hpp"
#include "net/topology.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/metrics.hpp"

namespace harp::sim {

struct SimConfig {
  net::SlotframeConfig frame;
  /// Per-transmission delivery probability (1.0 = clean channel).
  double pdr = 1.0;
  /// Per-queue capacity; packets arriving at a full queue are dropped.
  std::size_t queue_capacity = 128;
};

class DataPlane {
 public:
  DataPlane(const net::Topology& topo, std::vector<net::Task> tasks,
            SimConfig config, std::uint64_t seed);

  /// Installs (or replaces) the cell assignment; takes effect next slot.
  /// A full rebuild of the slot table: callers install only when the
  /// schedule changed (HarpSimulation checks core::Schedule::version()).
  void set_schedule(const core::Schedule& schedule);

  /// Runs `n` slots of network time.
  void run_slots(AbsoluteSlot n);
  void run_frames(AbsoluteSlot frames) {
    run_slots(frames * config_.frame.length);
  }

  AbsoluteSlot now() const { return now_; }
  double now_seconds() const {
    return static_cast<double>(now_) * config_.frame.slot_seconds;
  }

  /// Changes a task's period at runtime (takes effect immediately);
  /// the next release keeps the task's phase grid.
  void set_task_period(TaskId task, std::uint32_t period_slots);

  /// Topology dynamics: extends the per-node queues/metrics after nodes
  /// joined (the facade keeps the Topology object it handed us updated).
  void resize_for_topology();

  /// Registers a task at runtime (releases start from the current slot's
  /// phase grid).
  void add_task(net::Task task);

  /// Drops every task sourced at `node` (device left the network). Any
  /// queued packets of those tasks are discarded from the queues.
  void remove_tasks_from(NodeId node);

  /// Injects narrowband interference: transmissions on `channel` during
  /// absolute slots [from, until) have their success probability scaled
  /// by `success_factor` (0 = fully jammed). Multiple overlapping bursts
  /// multiply. Models the paper's "environmental interference".
  void add_interference(ChannelId channel, AbsoluteSlot from,
                        AbsoluteSlot until, double success_factor);

  const LatencyRecorder& metrics() const { return metrics_; }
  LatencyRecorder& metrics() { return metrics_; }

  /// Total packets currently queued anywhere in the network (backlog).
  std::size_t backlog() const;
  /// Backlog attributable to a single task.
  std::size_t backlog_of_task(TaskId task) const;

 private:
  struct Packet {
    TaskId task{0};
    NodeId source{kNoNode};
    NodeId destination{kNoNode};
    AbsoluteSlot created{0};
  };
  struct TaskState {
    net::Task spec;
    AbsoluteSlot next_release{0};
    /// Monotonic insertion sequence: calendar tie-break (same-slot
    /// releases fire in task insertion order, as the old full scan did)
    /// and staleness token for lazily-invalidated calendar entries.
    std::uint64_t seq{0};
  };

  /// Pending release-calendar entry. Stale (skipped on pop) when the task
  /// is gone or `at` no longer matches its authoritative next_release.
  struct Release {
    AbsoluteSlot at;
    std::uint64_t seq;
  };
  struct ReleaseAfter {
    bool operator()(const Release& a, const Release& b) const {
      return a.at > b.at || (a.at == b.at && a.seq > b.seq);
    }
  };

  struct Interference {
    AbsoluteSlot from;
    AbsoluteSlot until;
    double factor;
  };
  /// Non-const: prunes expired bursts from the channel's bucket (callers
  /// pass monotonically increasing `t`, so expiry is permanent).
  double success_probability(ChannelId channel, AbsoluteSlot t);

  /// Releases the packets due at `t`.
  void generate(AbsoluteSlot t);
  /// Fires slot `t`'s cells; `slot` is t's slot-in-frame.
  void transmit(AbsoluteSlot t, SlotId slot);
  void deliver_up(Packet pkt, AbsoluteSlot t);
  void deliver_down(NodeId at, Packet pkt, AbsoluteSlot t);
  void record_delivery(const Packet& pkt, AbsoluteSlot t,
                       std::uint32_t deadline);
  NodeId next_hop_down(NodeId from, NodeId destination) const;
  void enqueue(RingQueue<Packet>& queue, Packet pkt, NodeId at,
               Direction dir);
  /// First task (insertion order) with this id, or nullptr. O(1).
  const net::Task* find_spec(TaskId task) const;
  /// Rebuilds both task indexes after tasks_ indices shifted.
  void reindex_tasks();

  /// Global observability counters (docs/OBSERVABILITY.md `harp.sim.*`),
  /// resolved once so hot-path updates are plain integer adds.
  struct ObsCounters {
    obs::Counter* slots;
    obs::Counter* generated;
    obs::Counter* delivered;
    obs::Counter* dropped;
    obs::Counter* deadline_misses;
    obs::Counter* tx_attempts;
    obs::Counter* tx_success;
    obs::Counter* collisions;
    obs::Counter* link_loss;
  };
  static ObsCounters resolve_obs_counters();
  /// The slot loop's counts, added into obs_ in bulk when run_slots
  /// returns (and zeroed), so per-packet bookkeeping is a local add.
  struct Tally {
    std::uint64_t generated{0};
    std::uint64_t delivered{0};
    std::uint64_t dropped{0};
    std::uint64_t deadline_misses{0};
    std::uint64_t tx_attempts{0};
    std::uint64_t tx_success{0};
    std::uint64_t collisions{0};
    std::uint64_t link_loss{0};
  };
  void flush_tally(AbsoluteSlot slots);

  const net::Topology& topo_;
  SimConfig config_;
  Rng rng_;
  std::vector<TaskState> tasks_;
  LatencyRecorder metrics_;
  AbsoluteSlot now_{0};

  /// Uplink FIFO per node (next hop is always the parent).
  std::vector<RingQueue<Packet>> up_queue_;
  /// Downlink FIFO per link, keyed by the child endpoint: packets waiting
  /// at the parent to cross that link.
  std::vector<RingQueue<Packet>> down_queue_;

  /// Transmission opportunities per slot-in-frame, as one CSR table: the
  /// entries of slot s are slot_entries_[slot_begin_[s] ..
  /// slot_begin_[s + 1]), child-major and uplink before downlink within
  /// the slot (the order the transmit loop, and so every pinned digest,
  /// depends on). An entry's slot is its row, so only the channel is kept.
  struct Entry {
    NodeId child;
    ChannelId channel;
    Direction dir;
  };
  std::vector<Entry> slot_entries_;
  std::vector<std::uint32_t> slot_begin_;  // frame.length + 1 offsets
  /// Interference bursts bucketed by channel; expired bursts are pruned
  /// lazily by success_probability().
  std::vector<std::vector<Interference>> interference_;

  /// Task indexes so deliver/generate/set_task_period stop scanning
  /// tasks_: first task per id (duplicate-id lookups resolve to the first
  /// insertion, as the old linear scans did) and the unique task per seq.
  /// Seqs are dense and monotonic, so the seq index is a flat vector
  /// (kNoTask for removed tasks).
  std::unordered_map<TaskId, std::uint32_t> index_by_id_;
  std::vector<std::uint32_t> index_by_seq_;
  static constexpr std::uint32_t kNoTask = ~0u;
  std::uint64_t next_task_seq_{0};
  /// Min-heap release calendar: generate() pops due entries instead of
  /// scanning every task every slot. Entries are lazily invalidated.
  std::priority_queue<Release, std::vector<Release>, ReleaseAfter> calendar_;

  /// transmit() scratch, reused across slots so the steady-state loop is
  /// allocation-free. The flat conflict counters are epoch-stamped with
  /// the current slot instead of being cleared.
  struct Active {
    const Entry* entry;
    NodeId sender;
    NodeId receiver;
  };
  std::vector<Active> active_;
  std::vector<AbsoluteSlot> cell_stamp_;   // frame.length * num_channels
  std::vector<std::uint16_t> cell_count_;
  std::vector<AbsoluteSlot> node_stamp_;   // topo_.size()
  std::vector<std::uint16_t> node_count_;

  ObsCounters obs_{resolve_obs_counters()};
  Tally tally_;
  /// The sink the slot loop's trace events go to: the calling context's,
  /// bound once per run_slots call.
  obs::TraceSink* trace_{nullptr};

#if HARP_AUDIT_ENABLED
  /// Audit-only conservation ledger, independent of LatencyRecorder (which
  /// callers may clear() mid-run): every generated packet must end up
  /// delivered, dropped (overflow / route loss / purged with a departing
  /// device) or queued. Checked at every slotframe boundary.
  std::uint64_t audit_generated_{0};
  std::uint64_t audit_delivered_{0};
  std::uint64_t audit_dropped_{0};
#endif
};

}  // namespace harp::sim
