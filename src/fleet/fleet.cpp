#include "fleet/fleet.hpp"

#include <algorithm>
#include <unordered_map>
#include <utility>

#include "common/error.hpp"
#include "common/hash.hpp"
#include "common/ring.hpp"
#include "common/sync.hpp"
#include "common/thread_annotations.hpp"
#include "obs/context.hpp"

namespace harp::fleet {
namespace {

/// Fleet execution counters (docs/OBSERVABILITY.md `harp.fleet.*`).
/// Interned once per process; resolved against the calling shard
/// thread's context so every shard records lock-free into its own
/// registry.
struct FleetObsIds {
  obs::InstrumentId ops_executed;
  obs::InstrumentId ops_rejected;
  obs::InstrumentId op_failures;
  obs::InstrumentId op_batches;
  obs::InstrumentId bootstraps;
  obs::InstrumentId bootstrap_failures;
  obs::InstrumentId teardowns;
};

struct FleetObs {
  obs::Counter* ops_executed;
  obs::Counter* ops_rejected;
  obs::Counter* op_failures;
  obs::Counter* op_batches;
  obs::Counter* bootstraps;
  obs::Counter* bootstrap_failures;
  obs::Counter* teardowns;
};

FleetObs fleet_obs() {
  static const FleetObsIds ids = {
      obs::intern_counter("harp.fleet.ops_executed"),
      obs::intern_counter("harp.fleet.ops_rejected"),
      obs::intern_counter("harp.fleet.op_failures"),
      obs::intern_counter("harp.fleet.op_batches"),
      obs::intern_counter("harp.fleet.bootstraps"),
      obs::intern_counter("harp.fleet.bootstrap_failures"),
      obs::intern_counter("harp.fleet.teardowns"),
  };
  auto& reg = obs::MetricsRegistry::global();
  return FleetObs{
      &reg.counter(ids.ops_executed),     &reg.counter(ids.ops_rejected),
      &reg.counter(ids.op_failures),      &reg.counter(ids.op_batches),
      &reg.counter(ids.bootstraps),       &reg.counter(ids.bootstrap_failures),
      &reg.counter(ids.teardowns),
  };
}

/// Mixed into the fleet fingerprint in place of a state fingerprint for
/// tenants whose bootstrap failed ("HARPDEAD") — distinct from any real
/// engine digest and from the absence of the tenant.
constexpr std::uint64_t kDeadTenantTag = 0x4841525044454144ULL;

}  // namespace

/// One shard: a worker thread, its op queue, and the engines pinned to
/// it. The mutex guards only the queue and the progress counters (stated
/// per field below, enforced by Clang thread-safety analysis); engines
/// are touched exclusively by the shard thread, and the obs context by
/// the shard thread while work is in flight and by the control thread
/// only between quiesce() and the next enqueue (the wait handshake under
/// `mu` gives that read its happens-before edge — a contract the analysis
/// cannot see, so those fields are deliberately unannotated and
/// documented instead).
struct Fleet::Shard {
  struct Task {
    /// kFingerprint writes the state fingerprint of every engine the
    /// shard owns into `digests` (the output travels through the shard,
    /// not the task, so Task stays as small as the op hot path needs).
    enum class Kind { kBootstrap, kOp, kTeardown, kFingerprint };
    Kind kind{Kind::kOp};
    TenantId tenant{0};
    std::unique_ptr<TenantSpec> spec;  ///< kBootstrap only
    Op op;                             ///< kOp only
  };

  Mutex mu{LockRank::kFleetShard, "fleet.Shard.mu"};
  CondVar work_cv;  ///< control -> worker: queue non-empty
  CondVar idle_cv;  ///< worker -> control: progress
  RingQueue<Task> queue HARP_GUARDED_BY(mu);
  bool stop HARP_GUARDED_BY(mu){false};
  std::uint64_t enqueued HARP_GUARDED_BY(mu){0};
  std::uint64_t executed HARP_GUARDED_BY(mu){0};

  /// Shard-thread state (see struct comment for the access contract).
  std::unordered_map<TenantId, std::unique_ptr<core::HarpEngine>> engines;
  obs::Context ctx;
  /// kFingerprint output, indexed by TenantId - 1: the fleet's scratch
  /// vector, sized by the control thread before it enqueues the task
  /// (the enqueue under `mu` orders that write before the shard's). Each
  /// shard writes only the slots of its own tenants.
  std::vector<std::uint64_t>* digests{nullptr};

  Thread thread;

  void enqueue(Task task) HARP_EXCLUDES(mu) {
    {
      MutexLock lock(mu);
      queue.push_back(std::move(task));
      ++enqueued;
    }
    work_cv.notify_one();
  }
};

Fleet::Fleet(const Options& options)
    : placement_(options.placement), limits_(options.limits) {
  const std::size_t shards = std::max<std::size_t>(options.num_shards, 1);
  shard_nodes_.assign(shards, 0);
  shards_.reserve(shards);
  for (std::size_t i = 0; i < shards; ++i) {
    auto shard = std::make_unique<Shard>();
    Shard* s = shard.get();
    s->digests = &digests_;
    s->thread = Thread(
        [s, quota = limits_.tenant_node_quota] { shard_main(*s, quota); });
    shards_.push_back(std::move(shard));
  }
}

Fleet::~Fleet() {
  for (auto& shard : shards_) {
    {
      MutexLock lock(shard->mu);
      shard->stop = true;
    }
    shard->work_cv.notify_one();
  }
  for (auto& shard : shards_) shard->thread.join();
}

std::size_t Fleet::place(TenantId id) const {
  if (placement_ == PlacementPolicy::kHash) {
    return fnv1a_value(kFnvOffset, id) % shards_.size();
  }
  // Least loaded by admitted nodes, ties to the lowest index. The load a
  // tenant ADDS must not influence where it lands, or two same-size
  // tenants could swap shards between runs.
  std::size_t best = 0;
  for (std::size_t i = 1; i < shard_nodes_.size(); ++i) {
    if (shard_nodes_[i] < shard_nodes_[best]) best = i;
  }
  return best;
}

Admission Fleet::create_tenant(TenantSpec spec) {
  Admission result;
  result.id = static_cast<TenantId>(tenants_.size() + 1);
  if (live_tenants_ >= limits_.max_tenants) {
    result.reason = "max_tenants";
  } else if (nodes_admitted_ + spec.topo.size() > limits_.node_budget) {
    result.reason = "node_budget";
  } else {
    const std::uint64_t spectrum = spec.frame.data_cells();
    if (spectrum_admitted_ + spectrum > limits_.spectrum_budget) {
      result.reason = "spectrum_budget";
    } else {
      result.admitted = true;
      result.shard = place(result.id);

      TenantInfo info;
      info.shard = result.shard;
      info.nodes = spec.topo.size();
      info.spectrum = spectrum;
      nodes_admitted_ += info.nodes;
      spectrum_admitted_ += info.spectrum;
      shard_nodes_[info.shard] += info.nodes;
      tenants_.push_back(info);
      live_.push_back(true);
      ++live_tenants_;
      ++tenants_admitted_;

      Shard::Task task;
      task.kind = Shard::Task::Kind::kBootstrap;
      task.tenant = result.id;
      task.spec = std::make_unique<TenantSpec>(std::move(spec));
      shards_[result.shard]->enqueue(std::move(task));
      return result;
    }
  }
  ++tenants_rejected_;
  // Rejected ids are burned, not reused: the id space stays append-only
  // so the directory stays an index.
  tenants_.push_back(TenantInfo{});
  live_.push_back(false);
  return result;
}

bool Fleet::destroy_tenant(TenantId id) {
  if (id == 0 || id > tenants_.size() || !live_[id - 1]) return false;
  TenantInfo& info = tenants_[id - 1];
  live_[id - 1] = false;
  --live_tenants_;
  ++tenants_destroyed_;
  nodes_admitted_ -= info.nodes;
  spectrum_admitted_ -= info.spectrum;
  shard_nodes_[info.shard] -= info.nodes;

  Shard::Task task;
  task.kind = Shard::Task::Kind::kTeardown;
  task.tenant = id;
  shards_[info.shard]->enqueue(std::move(task));
  return true;
}

bool Fleet::submit(TenantId id, const Op& op) {
  if (id == 0 || id > tenants_.size() || !live_[id - 1]) return false;
  Shard::Task task;
  task.kind = Shard::Task::Kind::kOp;
  task.tenant = id;
  task.op = op;
  shards_[tenants_[id - 1].shard]->enqueue(std::move(task));
  ++ops_enqueued_;
  return true;
}

void Fleet::quiesce() {
  for (auto& shard : shards_) {
    MutexLock lock(shard->mu);
    while (shard->executed != shard->enqueued) shard->idle_cv.wait(shard->mu);
  }
}

std::uint64_t Fleet::fleet_fingerprint() {
  // Each shard digests its own engines on its own thread, after every
  // task already queued there (FIFO), into its tenants' slots. A live
  // tenant without an engine — a failed bootstrap — keeps the dead tag.
  digests_.assign(tenants_.size(), kDeadTenantTag);
  for (auto& shard : shards_) {
    Shard::Task task;
    task.kind = Shard::Task::Kind::kFingerprint;
    shard->enqueue(std::move(task));
  }
  fingerprint_tasks_ += shards_.size();
  quiesce();
  // The directory is already sorted by id (it IS the id order), so one
  // forward walk gives the canonical fold, whatever the placement.
  std::uint64_t h = kFnvOffset;
  for (std::size_t i = 0; i < tenants_.size(); ++i) {
    if (!live_[i]) continue;
    h = fnv1a_u64(h, static_cast<TenantId>(i + 1));
    h = fnv1a_u64(h, digests_[i]);
  }
  return h;
}

obs::MetricsRegistry Fleet::merged_metrics() {
  quiesce();
  obs::MetricsRegistry merged;
  for (const auto& shard : shards_) merged.merge(shard->ctx.metrics);
  merged.counter("harp.fleet.tenants_admitted").inc(tenants_admitted_);
  merged.counter("harp.fleet.tenants_rejected").inc(tenants_rejected_);
  merged.counter("harp.fleet.tenants_destroyed").inc(tenants_destroyed_);
  merged.counter("harp.fleet.ops_enqueued").inc(ops_enqueued_);
  return merged;
}

FleetStats Fleet::stats() const {
  FleetStats s;
  s.shards = shards_.size();
  s.tenants_live = live_tenants_;
  s.tenants_admitted = tenants_admitted_;
  s.tenants_rejected = tenants_rejected_;
  s.tenants_destroyed = tenants_destroyed_;
  s.ops_enqueued = ops_enqueued_;
  s.nodes_admitted = nodes_admitted_;
  s.spectrum_admitted = spectrum_admitted_;
  s.shard_tenants.assign(shards_.size(), 0);
  for (std::size_t i = 0; i < tenants_.size(); ++i) {
    if (live_[i]) ++s.shard_tenants[tenants_[i].shard];
  }
  for (const auto& shard : shards_) {
    MutexLock lock(shard->mu);
    s.ops_executed += shard->executed;
  }
  // fleet_fingerprint()'s tasks are retired before it returns; they are
  // not ops.
  s.ops_executed -= fingerprint_tasks_;
  return s;
}

void Fleet::shard_main(Shard& shard, std::size_t tenant_node_quota) {
  // The shard's whole lifetime runs under its own obs context: engine
  // counters and the fleet counters below all land in shard.ctx.metrics.
  obs::ScopedContext scoped(shard.ctx);
  const FleetObs obs = fleet_obs();

  const auto execute = [&](Shard::Task& task) {
    switch (task.kind) {
      case Shard::Task::Kind::kBootstrap:
        try {
          auto engine = std::make_unique<core::HarpEngine>(
              std::move(task.spec->topo), std::move(task.spec->tasks),
              task.spec->frame, task.spec->engine);
          shard.engines.emplace(task.tenant, std::move(engine));
          obs.bootstraps->inc();
        } catch (const Error&) {
          // Admission cannot know feasibility (that is the bootstrap's
          // job); the tenant stays directory-live but has no engine —
          // its ops are dropped, its budget is held until destroyed.
          obs.bootstrap_failures->inc();
        }
        return;
      case Shard::Task::Kind::kTeardown:
        shard.engines.erase(task.tenant);
        obs.teardowns->inc();
        return;
      case Shard::Task::Kind::kFingerprint:
        for (const auto& [id, engine] : shard.engines) {
          (*shard.digests)[id - 1] = engine->state_fingerprint();
        }
        return;
      case Shard::Task::Kind::kOp:
        break;
    }
    const auto it = shard.engines.find(task.tenant);
    if (it == shard.engines.end()) {
      obs.ops_rejected->inc();
      return;
    }
    core::HarpEngine& engine = *it->second;
    try {
      switch (task.op.type) {
        case OpType::kDemand:
          engine.request_demand(task.op.node, task.op.dir, task.op.cells);
          break;
        case OpType::kAttach:
          // Tenant-layer quota (fleet-layer budgets were settled at
          // admission): attach is the only op that grows a tenant.
          if (engine.topology().size() >= tenant_node_quota) {
            obs.ops_rejected->inc();
            return;
          }
          engine.attach_leaf(task.op.parent, task.op.cells,
                             task.op.down_cells);
          break;
        case OpType::kDetach:
          engine.detach_leaf(task.op.node);
          break;
        case OpType::kReparent:
          engine.reparent_leaf(task.op.node, task.op.parent);
          break;
        case OpType::kRecompact:
          engine.recompact();
          break;
      }
      obs.ops_executed->inc();
    } catch (const Error&) {
      // Engine contracts keep state unchanged on rejection paths that
      // throw (invalid node, inadmissible change); the tenant stays
      // serviceable.
      obs.op_failures->inc();
    }
  };

  // One scratch ring for the whole shard lifetime: each swap hands the
  // producer side our drained (but grown) buffer and takes its full one,
  // so after warm-up neither side allocates again.
  RingQueue<Shard::Task> batch;
  for (;;) {
    {
      MutexLock lock(shard.mu);
      while (!shard.stop && shard.queue.empty()) shard.work_cv.wait(shard.mu);
      if (shard.queue.empty()) return;  // stop requested and drained
      batch.swap(shard.queue);
    }
    // Batched drain: ops admitted while this batch executes pile up for
    // the next swap — one lock round-trip amortized over the whole tick.
    obs.op_batches->inc();
    const std::size_t batch_size = batch.size();
    while (!batch.empty()) {
      Shard::Task task = batch.pop_front();
      execute(task);
    }
    {
      MutexLock lock(shard.mu);
      shard.executed += batch_size;
    }
    shard.idle_cv.notify_all();
  }
}

}  // namespace harp::fleet
