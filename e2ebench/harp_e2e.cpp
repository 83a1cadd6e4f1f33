// harp_e2e — the end-to-end benchmark harness (README.md in this directory).
//
//   harp_e2e --workload <testbed50|plant220|scale1k|scale10k|fleet1k>
//            --seed <n> --seconds <s> --trace <0|1>
//
// Every workload is a closed loop over the public API of sim, proto, harp
// and fleet: each call waits for the previous one. Work is organised in
// epochs; an epoch builds fresh state from the seeded inputs (timed as
// set-up) and then runs a fixed number of rounds. The deadline is checked
// only between epochs, so every run covers whole epochs and per-epoch
// counts (ops attempted, refusals) stay exact.
//
// --trace 0 prints the end-to-end metrics; their timings are divided by
// the host's slowdown at the time, which a fixed Reference computation
// timed between epochs measures. --trace 1 alternates untraced
// and traced epochs; the traced ones put a span around every public call
// the harness makes and switch the program's own phase timers on. It
// prints the per-layer metrics plus a self-time table.
//
// Correctness is checked outside the timed loop: the Table II message
// counts, validate() == "", zero data-plane collisions, a replay of epoch
// 0 that must reproduce its checksum, and (fleet1k) the fleet fingerprint
// at 3 shards against 1 shard on a small slice. The last line of stdout
// is one JSON object: {"correct", "attempted", "failed", "metrics"}.
#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <new>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/hash.hpp"
#include "common/rng.hpp"
#include "fleet/fleet.hpp"
#include "harp/engine.hpp"
#include "net/topology_gen.hpp"
#include "net/traffic.hpp"
#include "obs/obs.hpp"
#include "sim/data_plane.hpp"
#include "sim/harp_sim.hpp"

namespace {

using namespace harp;

// ------------------------------------------------------------------ util

std::uint64_t wall_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Nearest-rank percentile (q in [0, 1]) of an unsorted sample.
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[rank == 0 ? 0 : rank - 1];
}

double median(std::vector<double> v) { return percentile(std::move(v), 0.5); }

std::uint64_t fold(std::uint64_t h, std::uint64_t v) {
  return fnv1a_value(h, v);
}

std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Allocator of the Reference's containers. It calls malloc directly, so
/// a change to the program's operator new cannot move the Reference.
template <class T>
struct MallocAllocator {
  using value_type = T;
  MallocAllocator() = default;
  template <class U>
  MallocAllocator(const MallocAllocator<U>&) {}
  T* allocate(std::size_t n) {
    if (void* p = std::malloc(n * sizeof(T))) return static_cast<T*>(p);
    throw std::bad_alloc();
  }
  void deallocate(T* p, std::size_t) { std::free(p); }
  template <class U>
  bool operator==(const MallocAllocator<U>&) const {
    return true;
  }
};

/// Fixed reference work that gauges how fast the host runs at the moment
/// (README.md, Noise). It shares no code with the program. The alloc unit
/// builds and thins an ordered map of 1024 entries: allocation and pointer
/// chasing, which slow down with the host the way the program's control
/// paths do. The hash unit folds a 4 KiB array into four FNV lanes 512
/// times over, like a state fingerprint of data in cache, and tracks the
/// fingerprint digests.
class Reference {
 public:
  /// One reading: the mean time of each unit over kRepeats runs.
  struct Reading {
    double alloc_ns, hash_ns;
  };
  static constexpr int kRepeats = 4;
  /// Unit times on the reference host at its usual speed; the end-to-end
  /// timings are scaled to them.
  static constexpr double kAllocNs = 130000.0;
  static constexpr double kHashNs = 110000.0;

  Reference() {
    for (std::uint32_t i = 0; i < kWords; ++i) words_[i] = key(i);
  }

  /// Runs each unit once untimed, then kRepeats times timed.
  Reading read() {
    sink_ = mix(mix(sink_, alloc_unit()), hash_unit());
    const std::uint64_t t0 = wall_ns();
    for (int i = 0; i < kRepeats; ++i) sink_ = mix(sink_, alloc_unit());
    const std::uint64_t t1 = wall_ns();
    for (int i = 0; i < kRepeats; ++i) sink_ = mix(sink_, hash_unit());
    const std::uint64_t t2 = wall_ns();
    return {static_cast<double>(t1 - t0) / kRepeats,
            static_cast<double>(t2 - t1) / kRepeats};
  }

 private:
  static constexpr std::uint32_t kWords = 512;
  static std::uint32_t key(std::uint32_t i) { return i * 2654435761u; }
  /// One FNV-style step, kept here so the program's hash is not timed.
  static std::uint64_t mix(std::uint64_t h, std::uint64_t v) {
    return (h ^ v) * 0x100000001b3ULL;
  }

  std::uint64_t alloc_unit() const {
    std::map<std::uint32_t, std::uint32_t, std::less<>,
             MallocAllocator<std::pair<const std::uint32_t, std::uint32_t>>>
        m;
    for (std::uint32_t i = 0; i < 1024; ++i) m[key(i) >> 8] = i;
    for (std::uint32_t i = 0; i < 1024; i += 2) m.erase(key(i) >> 8);
    std::uint64_t h = kFnvOffset;
    for (const auto& [k, v] : m) h = mix(h, k ^ v);
    return h;
  }

  std::uint64_t hash_unit() const {
    std::array<std::uint64_t, 4> lane{sink_, 2, 3, 4};
    for (int pass = 0; pass < 512; ++pass) {
      for (std::uint32_t i = 0; i < kWords; i += 4) {
        for (std::uint32_t j = 0; j < 4; ++j) {
          lane[j] = mix(lane[j], words_[i + j]);
        }
      }
    }
    return lane[0] ^ lane[1] ^ lane[2] ^ lane[3];
  }

  std::array<std::uint64_t, kWords> words_{};
  std::uint64_t sink_{kFnvOffset};
};

/// A benchmark-level correctness failure (reported, never timed).
struct CheckFailure {
  std::string what;
};

void require(bool ok, const std::string& what) {
  if (!ok) throw CheckFailure{what};
}

// ------------------------------------------------------------- tracing

/// The program's phase timers read by the traced run. Nesting (from the
/// call sites): compose runs inside interface_gen, climb or the agents'
/// message handler; layout inside climb or the agents' handler; the other
/// five never nest inside one another.
enum Phase : int {
  kIfGen,
  kPartAlloc,
  kSched,
  kClimb,
  kCompose,
  kLayout,
  kOnMsg,
  kNumPhases
};
constexpr const char* kPhaseTimer[kNumPhases] = {
    "harp.engine.interface_gen_ns", "harp.engine.partition_alloc_ns",
    "harp.engine.schedule_gen_ns",  "harp.engine.climb_ns",
    "harp.engine.compose_ns",       "harp.adjust.layout_ns",
    "harp.agent.on_message_ns"};
constexpr const char* kPhaseLayer[kNumPhases] = {
    "harp.interface_gen",  "harp.partition_alloc", "harp.rm_scheduler",
    "harp.adjustment.climb", "harp.compose",       "harp.adjustment.layout",
    "proto.agent.on_message"};

using PhaseSums = std::array<std::uint64_t, kNumPhases>;

struct SpanStats {
  std::uint64_t calls{0};
  std::uint64_t total_ns{0};
  PhaseSums phase_ns{};
  PhaseSums phase_calls{};
};

struct IgnoreTime {
  void operator()(std::uint64_t) const {}
};

/// Spans around the harness's public calls. Off: `call` only times the
/// call for the caller's latency sample. On: it also snapshots the phase
/// timer sums around the call so each span knows which of its nanoseconds
/// the program's phases account for.
class Tracer {
 public:
  void set_enabled(bool on) {
    on_ = on;
    obs::set_timing_enabled(on);
    if (on && hist_[0] == nullptr) {
      obs::MetricsRegistry& reg = obs::MetricsRegistry::global();
      for (int p = 0; p < kNumPhases; ++p) {
        hist_[p] = &reg.histogram(kPhaseTimer[p]);
      }
    }
  }
  bool enabled() const { return on_; }

  /// Runs `fn` as span `layer` and returns its result; `done` receives
  /// the call's wall time in nanoseconds.
  template <class F, class Done = IgnoreTime>
  decltype(auto) call(const char* layer, F&& fn, Done done = {}) {
    PhaseSums before{}, before_calls{};
    if (on_) snapshot(before, before_calls);
    const std::uint64_t t0 = wall_ns();
    auto finish = [&] {
      const std::uint64_t dt = wall_ns() - t0;
      done(dt);
      if (!on_) return;
      PhaseSums after{}, after_calls{};
      snapshot(after, after_calls);
      SpanStats& s = spans_[layer];
      ++s.calls;
      s.total_ns += dt;
      for (int p = 0; p < kNumPhases; ++p) {
        s.phase_ns[p] += after[p] - before[p];
        s.phase_calls[p] += after_calls[p] - before_calls[p];
      }
    };
    if constexpr (std::is_void_v<decltype(fn())>) {
      fn();
      finish();
    } else {
      decltype(auto) result = fn();
      finish();
      return result;
    }
  }

  const std::map<std::string, SpanStats>& spans() const { return spans_; }

 private:
  void snapshot(PhaseSums& sums, PhaseSums& calls) const {
    for (int p = 0; p < kNumPhases; ++p) {
      sums[p] = hist_[p]->sum();
      calls[p] = hist_[p]->count();
    }
  }

  bool on_{false};
  std::array<obs::Histogram*, kNumPhases> hist_{};
  std::map<std::string, SpanStats> spans_;
};

// ------------------------------------------------------------ recording

/// What one run measures (untraced and traced phases keep separate
/// instances).
struct Measure {
  std::vector<double> setup_s;
  std::vector<double> op_us;      // synchronous control-call latency
  std::vector<double> wave_ms;    // one closed-loop round, digest excluded
  std::vector<double> digest_ms;  // end-of-round state digest
  /// Where each block starts in the four vectors above. A block is the
  /// stretch of work between two Reference readings: one epoch, or part
  /// of one when its rounds are long (kReadingGapNs).
  struct BlockStart {
    std::size_t setup, op, wave, digest;
  };
  std::vector<BlockStart> block_at;
  /// The host's slowdown while each block ran, from the Reference
  /// readings around it: by the alloc unit (scales set-up, op and wave
  /// times and most digests) and by the hash unit (scales digests of
  /// state in cache).
  std::vector<double> alloc_slowdown;
  std::vector<double> hash_slowdown;
  /// Workload-specific latencies, printed with their sample counts.
  std::map<std::string, std::vector<double>> detail;
  double loop_s{0.0};  // wall time inside rounds, digests excluded
  /// Control ops per second of each epoch's rounds; the median is robust
  /// to a slow stretch of the machine inside one run.
  std::vector<double> epoch_ops_per_s;
  std::uint64_t rounds{0};
  std::uint64_t epochs{0};
  std::uint64_t attempted{0};
  std::uint64_t slots{0};  // simulated slots run inside rounds
  /// Refusals the workload provokes on purpose (correct answers of the
  /// program) and unplanned failures, by class.
  std::map<std::string, std::uint64_t> refused;
  std::map<std::string, std::uint64_t> unexpected;

  std::uint64_t refused_total() const {
    std::uint64_t n = 0;
    for (const auto& [k, v] : refused) n += v;
    return n;
  }
  std::uint64_t unexpected_total() const {
    std::uint64_t n = 0;
    for (const auto& [k, v] : unexpected) n += v;
    return n;
  }
};

/// Counter snapshot of one registry (deltas give per-phase counts).
using Counters = std::map<std::string, double>;

constexpr const char* kCounterNames[] = {
    "harp.sim.slots",           "harp.sim.tx_attempts",
    "harp.sim.tx_success",      "harp.sim.tx_collisions",
    "harp.sim.packets_dropped", "harp.sim.packets_delivered",
    "harp.mgmt.msgs_delivered", "harp.mgmt.bytes_delivered",
    "harp.agent.msgs_processed",
    "harp.engine.adjust_no_change",
    "harp.engine.adjust_local_release",
    "harp.engine.adjust_local_schedule",
    "harp.engine.adjust_partition",
    "harp.engine.adjust_rejected",
    "harp.adjust.layout_calls",
    "harp.compose_cache.hits",  "harp.compose_cache.misses",
    "harp.compose_cache.invalidations",
    "harp.fleet.ops_executed",  "harp.fleet.op_batches",
    "harp.fleet.ops_rejected",  "harp.fleet.op_failures",
    "harp.fleet.bootstrap_failures",
};

Counters read_counters(const obs::MetricsRegistry& reg) {
  Counters c;
  for (const char* name : kCounterNames) {
    const obs::Counter* ctr = reg.find_counter(name);
    c[name] = ctr == nullptr ? 0.0 : static_cast<double>(ctr->value());
  }
  for (const char* name : {"harp.engine.adjust_hops"}) {
    const obs::Histogram* h = reg.find_histogram(name);
    c[std::string(name) + ".sum"] = h == nullptr ? 0.0 : double(h->sum());
    c[std::string(name) + ".count"] = h == nullptr ? 0.0 : double(h->count());
  }
  return c;
}

void add_counters(Counters& into, const Counters& after,
                  const Counters& before) {
  for (const auto& [k, v] : after) {
    const auto it = before.find(k);
    into[k] += v - (it == before.end() ? 0.0 : it->second);
  }
}

/// Everything a workload needs from the harness inside a round.
struct Ctx {
  Tracer& tracer;
  Measure& m;
  /// Counters of fleet shard registries (the serial workloads read the
  /// thread's own registry instead).
  Counters fleet_counters;
  std::map<std::string, double> extra;  // workload-specific per-layer sums

  /// One synchronous control call: a span, a latency sample, one attempt.
  template <class F>
  decltype(auto) op(const char* layer, const char* detail, F&& fn) {
    ++m.attempted;
    return tracer.call(layer, std::forward<F>(fn), [&](std::uint64_t ns) {
      m.op_us.push_back(static_cast<double>(ns) * 1e-3);
      if (detail != nullptr) {
        m.detail[detail].push_back(static_cast<double>(ns) * 1e-3);
      }
    });
  }

  /// The end-of-round state digest: a span and a digest sample.
  template <class F>
  std::uint64_t digest(const char* layer, F&& fn) {
    return tracer.call(layer, std::forward<F>(fn), [&](std::uint64_t ns) {
      m.digest_ms.push_back(static_cast<double>(ns) * 1e-6);
    });
  }

  /// A sink that appends a call's wall time in ms to detail `name`.
  auto detail_ms(const char* name) {
    return [this, name](std::uint64_t ns) {
      m.detail[name].push_back(static_cast<double>(ns) * 1e-6);
    };
  }

  /// Slots run by an explicit slot-loop span (traced runs only; the
  /// slots a dynamics call advances belong to that call's span).
  void count_loop_slots(AbsoluteSlot slots) {
    if (tracer.enabled()) extra["loop_slots"] += static_cast<double>(slots);
  }

  void refuse(const char* cls) { ++m.refused[cls]; }
  void fail(const char* cls) { ++m.unexpected[cls]; }
};

// ------------------------------------------------------------ workloads

class Workload {
 public:
  virtual ~Workload() = default;
  /// Builds fresh state for `epoch` (the caller times it as set-up).
  virtual void setup(std::uint64_t epoch, Ctx& ctx) = 0;
  /// Drops the epoch's state.
  virtual void teardown(Ctx& ctx) = 0;
  virtual int rounds_per_epoch() const = 0;
  /// One closed-loop round; returns the round's state digest.
  virtual std::uint64_t round(int r, Ctx& ctx) = 0;
  /// Untimed end-of-epoch checks; returns extra checksum material.
  virtual std::uint64_t check_epoch(Ctx& ctx) = 0;
  /// Untimed whole-run checks that need their own state (fleet slice);
  /// returns extra checksum material.
  virtual std::uint64_t check_run() { return kFnvOffset; }
  /// Whether the round digest only hashes state that stays in cache;
  /// picks the Reference unit that scales it (README.md, Noise).
  virtual bool digest_in_cache() const { return false; }
};

AbsoluteSlot sim_slots_counter() {
  const obs::Counter* c =
      obs::MetricsRegistry::global().find_counter("harp.sim.slots");
  return c == nullptr ? 0 : c->value();
}

std::uint64_t collisions_counter() {
  const obs::Counter* c =
      obs::MetricsRegistry::global().find_counter("harp.sim.tx_collisions");
  return c == nullptr ? 0 : c->value();
}

/// Data-plane outcome counters of one epoch, folded into its checksum.
class DataPlaneTally {
 public:
  void start() { at_start_ = read(); }
  std::uint64_t digest() const {
    const std::array<std::uint64_t, 4> now = read();
    std::uint64_t h = kFnvOffset;
    for (std::size_t i = 0; i < now.size(); ++i) {
      h = fold(h, now[i] - at_start_[i]);
    }
    return h;
  }

 private:
  static std::array<std::uint64_t, 4> read() {
    const obs::MetricsRegistry& reg = obs::MetricsRegistry::global();
    std::array<std::uint64_t, 4> v{};
    const char* names[] = {"harp.sim.tx_attempts", "harp.sim.tx_success",
                           "harp.sim.packets_delivered",
                           "harp.sim.packets_dropped"};
    for (std::size_t i = 0; i < v.size(); ++i) {
      const obs::Counter* c = reg.find_counter(names[i]);
      v[i] = c == nullptr ? 0 : c->value();
    }
    return v;
  }

  std::array<std::uint64_t, 4> at_start_{};
};

/// Two distinct relays, uniformly.
std::pair<NodeId, NodeId> two_relays(Rng& rng,
                                     const std::vector<NodeId>& relays) {
  const std::size_t i = rng.below(relays.size());
  const std::size_t j = (i + 1 + rng.below(relays.size() - 1)) % relays.size();
  return {relays[i], relays[j]};
}

// ---------------------------------------------------------- testbed50

/// The paper's 50-node testbed (§VI) driven through HarpSimulation: the
/// Table II events grow then shrink, one task-rate change (Fig. 10) and
/// its revert, a join -> roam -> leave, one request the gateway must
/// refuse, then data-plane slotframes. Data-plane PDR 0.95 plus seeded
/// narrowband interference bursts.
class Testbed50 final : public Workload {
 public:
  explicit Testbed50(std::uint64_t seed) : seed_(seed) {
    frame_.data_slots = 190;
    tasks_ = net::uniform_echo_tasks(topo_, frame_.length);
    for (NodeId v = 1; v < topo_.size(); ++v) {
      if (!topo_.is_leaf(v)) relays_.push_back(v);
    }
  }

  int rounds_per_epoch() const override { return kRounds; }

  void setup(std::uint64_t epoch, Ctx& ctx) override {
    rng_ = Rng(derive_seed(seed_, epoch));
    quiet_collisions_ = 0;
    tally_.start();
    sim::HarpSimulation::Options options{frame_};
    options.own_slack = 1;
    options.pdr = 0.95;
    options.seed = rng_();
    ctx.tracer.call("sim.setup", [&] {
      sim_ = std::make_unique<sim::HarpSimulation>(topo_, tasks_, options);
      sim_->bootstrap();
    });
    // Narrowband interference over the epoch's expected span.
    for (int k = 0; k < kBursts; ++k) {
      const auto ch = static_cast<ChannelId>(rng_.below(frame_.num_channels));
      const AbsoluteSlot from = sim_->now() + rng_.below(kBurstHorizon);
      sim_->data().add_interference(ch, from, from + 4 * frame_.length, 0.7);
    }
    data_frames(ctx, 5);  // Table II warm-up
    sim_->data().metrics().clear();
  }

  void teardown(Ctx& ctx) override {
    ctx.tracer.call("teardown", [&] { sim_.reset(); });
  }

  std::uint64_t round(int r, Ctx& ctx) override {
    sim::HarpSimulation& s = *sim_;
    const AbsoluteSlot slots0 = sim_slots_counter();
    // Table II events (bench/table2_adjustment_overhead.cpp), grow...
    std::array<int, 6> before{};
    for (std::size_t i = 0; i < kEvents.size(); ++i) {
      const Event& e = kEvents[i];
      const NodeId child = topo_.children(e.node).front();
      before[i] = s.agent(e.node).child_demand(child, e.dir);
      const auto sum =
          event(ctx, "sim.harp_simulation.change_link_demand", [&] {
            return s.change_link_demand(child, e.dir, before[i] + e.delta);
          });
      if (r == 0) table2_[i] = sum.harp_messages;
      require(s.agent(e.node).child_demand(child, e.dir) ==
                  before[i] + e.delta,
              "testbed50: Table II event was not granted");
      if (r == 0) data_frames(ctx, 3);
    }
    // ...then shrink back (local releases).
    for (std::size_t i = 0; i < kEvents.size(); ++i) {
      const Event& e = kEvents[i];
      const NodeId child = topo_.children(e.node).front();
      event(ctx, "sim.harp_simulation.change_link_demand", [&] {
        return s.change_link_demand(child, e.dir, before[i]);
      });
    }
    // Task-rate change (Fig. 10): double one task's rate, then revert.
    const auto task = static_cast<TaskId>(1 + rng_.below(topo_.size() - 1));
    event(ctx, "sim.harp_simulation.change_task_rate",
          [&] { return s.change_task_rate(task, frame_.length / 2); });
    event(ctx, "sim.harp_simulation.change_task_rate",
          [&] { return s.change_task_rate(task, frame_.length); });
    // Join -> roam -> leave of one echo device.
    const auto [at, to] = two_relays(rng_, relays_);
    NodeId joined = kNoNode;
    event(ctx, "sim.harp_simulation.join_node", [&] {
      auto j = s.join_node(at, 1, 1, frame_.length);
      joined = j.node;
      return j.summary;
    });
    require(s.agent(at).child_demand(joined, Direction::kUp) == 1,
            "testbed50: join was not provisioned");
    event(
        ctx, "sim.harp_simulation.roam_node",
        [&] { return s.roam_node(joined, to); }, "roam_us");
    require(s.agent(to).child_demand(joined, Direction::kUp) == 1,
            "testbed50: roam was not provisioned");
    event(ctx, "sim.harp_simulation.leave_node",
          [&] { return s.leave_node(joined); });
    // One request no partition can hold: the gateway must refuse it.
    {
      const NodeId leaf = leaf_of(relays_[rng_.below(relays_.size())]);
      const NodeId parent = s.topology().parent(leaf);
      const int cur = s.agent(parent).child_demand(leaf, Direction::kUp);
      event(ctx, "sim.harp_simulation.change_link_demand", [&] {
        return s.change_link_demand(leaf, Direction::kUp, kHugeCells);
      });
      if (s.agent(parent).child_demand(leaf, Direction::kUp) == cur) {
        ctx.refuse("rejected_by_gateway");
      } else {
        ctx.fail("oversized_request_granted");
      }
    }
    // Data plane between rounds.
    data_frames(ctx, kDataFrames);
    ctx.m.slots += sim_slots_counter() - slots0;
    s.data().metrics().clear();
    return ctx.digest("sim.testbed_digest", [&] { return digest(s); });
  }

  std::uint64_t check_epoch(Ctx&) override {
    const std::array<std::size_t, 6> want{4, 9, 2, 2, 8, 8};
    require(table2_ == want, "testbed50: Table II message counts differ");
    require(quiet_collisions_ == 0,
            "testbed50: data-plane collisions under quiesced HARP schedules");
    return tally_.digest();
  }

 private:
  /// Data-plane slotframes at management quiescence. Collisions here
  /// would mean the converged schedule is wrong. Collisions while an
  /// adjustment is still propagating hop by hop are outside this check.
  void data_frames(Ctx& ctx, AbsoluteSlot frames) {
    const std::uint64_t c0 = collisions_counter();
    ctx.tracer.call("sim.harp_simulation.run_frames",
                    [&] { sim_->run_frames(frames); });
    quiet_collisions_ += collisions_counter() - c0;
    ctx.count_loop_slots(frames * frame_.length);
  }

  struct Event {
    NodeId node;
    Direction dir;
    int delta;
  };
  static constexpr std::array<Event, 6> kEvents{{{5, Direction::kUp, 3},
                                                 {22, Direction::kUp, 2},
                                                 {3, Direction::kUp, 6},
                                                 {10, Direction::kDown, 2},
                                                 {40, Direction::kUp, 2},
                                                 {30, Direction::kUp, 2}}};
  static constexpr int kRounds = 8;
  static constexpr int kDataFrames = 4;
  static constexpr int kBursts = 12;
  static constexpr AbsoluteSlot kBurstHorizon = 40000;
  static constexpr int kHugeCells = 4000;

  /// One HarpSimulation dynamics call, timed from the call to management
  /// quiescence (the call returns there).
  template <class F>
  sim::MgmtPlane::Summary event(Ctx& ctx, const char* layer, F&& fn,
                                const char* detail = nullptr) {
    const AbsoluteSlot t0 = sim_->now();
    sim::MgmtPlane::Summary sum;
    try {
      sum = ctx.op(layer, detail, std::forward<F>(fn));
    } catch (const Error&) {
      ctx.fail("mgmt_timeout");
      return sum;
    }
    ctx.m.detail["event_us"].push_back(ctx.m.op_us.back());
    ctx.extra["events"] += 1;
    ctx.extra["event_slots"] += static_cast<double>(sim_->now() - t0);
    return sum;
  }

  NodeId leaf_of(NodeId relay) const {
    NodeId v = relay;
    while (!topo_.is_leaf(v)) v = topo_.children(v).front();
    return v;
  }

  static std::uint64_t digest(sim::HarpSimulation& s) {
    std::uint64_t h = kFnvOffset;
    for (NodeId v = 0; v < s.topology().size(); ++v) {
      const proto::HarpAgent& a = s.agent(v);
      for (Direction d : {Direction::kUp, Direction::kDown}) {
        for (int layer : a.partition_layers(d)) {
          const core::Partition p = a.partition(d, layer);
          h = fold(h, v);
          h = fold(h, static_cast<std::uint64_t>(layer));
          h = fold(h, static_cast<std::uint64_t>(p.comp.slots));
          h = fold(h, static_cast<std::uint64_t>(p.comp.channels));
          h = fold(h, p.slot);
          h = fold(h, p.channel);
        }
      }
    }
    const core::Schedule sched = s.current_schedule();
    for (NodeId v = 1; v < sched.num_nodes(); ++v) {
      for (Direction d : {Direction::kUp, Direction::kDown}) {
        for (const Cell& c : sched.cells(v, d)) {
          h = fold(h, v);
          h = fold(h, (std::uint64_t{c.slot} << 16) | c.channel);
        }
      }
    }
    return h;
  }

  std::uint64_t seed_;
  const net::Topology topo_ = net::testbed_tree();
  net::SlotframeConfig frame_;
  std::vector<net::Task> tasks_;
  std::vector<NodeId> relays_;
  Rng rng_;
  std::unique_ptr<sim::HarpSimulation> sim_;
  std::array<std::size_t, 6> table2_{};
  std::uint64_t quiet_collisions_{0};
  DataPlaneTally tally_;
};

// ------------------------------------------------------- engine rounds

/// Grow-then-revert demand churn on one engine: each round grows fresh
/// links by two cells after stepping the links the previous round grew
/// back down in two one-cell releases, so demand stays near the task
/// set's own and the workload is stationary. Releases are two thirds of
/// the churn ops, which keeps the op-latency median inside one kind of
/// op instead of on the border between two.
class DemandChurn {
 public:
  void reset(const net::TrafficMatrix& base) {
    base_ = &base;
    grown_.clear();
    marked_.assign(2 * base.num_nodes(), 0);
  }

  void revert(core::HarpEngine& engine, Ctx& ctx, const char* detail) {
    for (const auto& [child, dir] : grown_) {
      request(engine, ctx, detail, child, dir, base_->demand(child, dir) + 1);
      request(engine, ctx, detail, child, dir, base_->demand(child, dir));
      marked_[slot(child, dir)] = 0;
    }
    grown_.clear();
  }

  void grow(core::HarpEngine& engine, Ctx& ctx, Rng& rng, std::size_t links,
            std::size_t nodes, const char* detail) {
    while (grown_.size() < links) {
      const auto child = static_cast<NodeId>(1 + rng.below(nodes - 1));
      const Direction dir = rng.chance(0.5) ? Direction::kUp : Direction::kDown;
      if (marked_[slot(child, dir)] != 0) {
        continue;  // each round grows exactly `links` distinct links
      }
      marked_[slot(child, dir)] = 1;
      request(engine, ctx, detail, child, dir, base_->demand(child, dir) + 2);
      grown_.emplace_back(child, dir);
    }
  }

  static void request(core::HarpEngine& engine, Ctx& ctx, const char* detail,
                      NodeId child, Direction dir, int cells) {
    const core::AdjustmentReport rep = ctx.op(
        "harp.engine.request_demand", detail,
        [&] { return engine.request_demand(child, dir, cells); });
    if (!rep.satisfied) ctx.fail("demand_rejected");
  }

 private:
  static std::size_t slot(NodeId child, Direction dir) {
    return 2 * std::size_t{child} + (dir == Direction::kUp ? 0 : 1);
  }

  const net::TrafficMatrix* base_{nullptr};
  std::vector<std::pair<NodeId, Direction>> grown_;
  std::vector<std::uint8_t> marked_;  // by slot(): grown this round
};

/// The oversized request every engine round makes: more cells than the
/// whole data sub-frame holds, so the gateway must refuse it and leave
/// the state unchanged.
void refused_request(core::HarpEngine& engine, Ctx& ctx, NodeId leaf) {
  const int cells = static_cast<int>(engine.frame().data_slots) + 1;
  const core::AdjustmentReport rep =
      ctx.op("harp.engine.request_demand", "adjust_us", [&] {
        return engine.request_demand(leaf, Direction::kUp, cells);
      });
  if (rep.kind == core::AdjustmentKind::kRejected) {
    ctx.refuse("rejected_by_gateway");
  } else {
    ctx.fail("oversized_request_granted");
  }
}

std::uint64_t fingerprint(core::HarpEngine& engine, Ctx& ctx) {
  return ctx.digest("harp.engine.state_fingerprint",
                    [&] { return engine.state_fingerprint(); });
}

/// The repository's 7-layer, fan-out-4 random tree (perf benches).
net::Topology seven_layer_tree(std::size_t nodes, std::uint64_t seed) {
  Rng rng(seed);
  return net::random_tree(
      {.num_nodes = nodes, .num_layers = 7, .max_children = 4}, rng);
}

/// Echo tasks for `topo`, doubling `frame`'s length until an engine can
/// bootstrap them. The topologies are fixed, so every run settles on the
/// same frame.
std::vector<net::Task> feasible_echo_tasks(const net::Topology& topo,
                                           net::SlotframeConfig& frame) {
  for (int attempt = 0;; ++attempt) {
    std::vector<net::Task> tasks = net::uniform_echo_tasks(topo, frame.length);
    try {
      core::HarpEngine probe(topo, tasks, frame, {.compose_cache = false});
      return tasks;
    } catch (const InfeasibleError&) {
      if (attempt == 8) throw;
      frame.length *= 2;
      frame.data_slots = frame.length - 64;
    }
  }
}

NodeId first_leaf(const net::Topology& topo) {
  for (NodeId v = 1; v < topo.size(); ++v) {
    if (topo.is_leaf(v)) return v;
  }
  return 1;
}

// ------------------------------------------------------------ plant220

/// One HarpEngine on a 220-node, 7-layer plant (random_tree seed 42) in a
/// 1999x16 frame with one echo packet per node and slotframe, and a
/// DataPlane that follows the engine's topology and schedule.
class Plant220 final : public Workload {
 public:
  explicit Plant220(std::uint64_t seed)
      : seed_(seed), topo_(seven_layer_tree(220, 42)) {
    frame_.length = 1999;
    frame_.num_channels = 16;
    frame_.data_slots = frame_.length - 64;
    tasks_ = net::uniform_echo_tasks(topo_, frame_.length);
    for (NodeId v = 1; v < topo_.size(); ++v) {
      if (!topo_.is_leaf(v) && topo_.node_layer(v) <= 4) relays_.push_back(v);
    }
  }

  int rounds_per_epoch() const override { return kRounds; }
  /// state_fingerprint hashes one engine, whose state stays in cache.
  bool digest_in_cache() const override { return true; }

  void setup(std::uint64_t epoch, Ctx& ctx) override {
    rng_ = Rng(derive_seed(seed_, epoch));
    tally_.start();
    ctx.tracer.call("setup", [&] {
      engine_ = std::make_unique<core::HarpEngine>(topo_, tasks_, frame_);
      data_ = std::make_unique<sim::DataPlane>(
          engine_->topology(), tasks_,
          sim::SimConfig{frame_, /*pdr=*/0.97, 128}, rng_());
      data_->set_schedule(engine_->schedule());
    });
    base_ = engine_->traffic();
    churn_.reset(base_);
    for (int k = 0; k < 16; ++k) {
      const auto ch = static_cast<ChannelId>(rng_.below(frame_.num_channels));
      const AbsoluteSlot from = rng_.below(kRounds * kDataFrames *
                                           AbsoluteSlot{frame_.length});
      data_->add_interference(ch, from, from + 2 * frame_.length, 0.8);
    }
    collisions_at_setup_ = collisions_counter();
  }

  void teardown(Ctx& ctx) override {
    ctx.tracer.call("teardown", [&] {
      data_.reset();
      engine_.reset();
    });
  }

  std::uint64_t round(int r, Ctx& ctx) override {
    core::HarpEngine& e = *engine_;
    churn_.revert(e, ctx, "adjust_us");
    churn_.grow(e, ctx, rng_, kBatch, topo_.size(), "adjust_us");
    if (r % kCycleEvery == 0) roam_cycle(ctx);
    if (r % kRecompactEvery == kRecompactEvery - 1) {
      ++ctx.m.attempted;
      const auto rep = ctx.tracer.call(
          "harp.engine.recompact", [&] { return e.recompact(); },
          ctx.detail_ms("recompact_ms"));
      if (!rep.performed) ctx.fail("recompact_failed");
    }
    refused_request(e, ctx, first_leaf(topo_));
    ctx.tracer.call("sim.data_plane.set_schedule", [&] {
      data_->resize_for_topology();
      data_->set_schedule(e.schedule());
    });
    const AbsoluteSlot slots0 = sim_slots_counter();
    ctx.tracer.call("sim.data_plane.run_slots",
                    [&] { data_->run_frames(kDataFrames); });
    ctx.m.slots += sim_slots_counter() - slots0;
    ctx.count_loop_slots(kDataFrames * frame_.length);
    data_->metrics().clear();
    return fingerprint(e, ctx);
  }

  std::uint64_t check_epoch(Ctx&) override {
    require(engine_->validate().empty(), "plant220: validate() failed");
    require(collisions_counter() == collisions_at_setup_,
            "plant220: data-plane collisions under HARP schedules");
    return tally_.digest();
  }

 private:
  static constexpr int kRounds = 64;
  static constexpr std::size_t kBatch = 8;
  /// Every second round: reparents are then about 2% of the ops, so the
  /// op-latency p99 sits inside their population, not on its edge.
  static constexpr int kCycleEvery = 2;
  static constexpr int kRecompactEvery = 16;
  static constexpr int kDataFrames = 2;

  /// attach -> reparent -> detach of one leaf device.
  void roam_cycle(Ctx& ctx) {
    core::HarpEngine& e = *engine_;
    const auto [at, to] = two_relays(rng_, relays_);
    const auto joined = ctx.op("harp.engine.attach_leaf", "attach_us",
                               [&] { return e.attach_leaf(at, 1, 1); });
    if (!joined.satisfied()) ctx.fail("attach_rejected");
    const auto roamed =
        ctx.op("harp.engine.reparent_leaf", "roam_us",
               [&] { return e.reparent_leaf(joined.node, to); });
    if (!roamed.satisfied()) ctx.fail("roam_rejected");
    ctx.op("harp.engine.detach_leaf", "detach_us",
           [&] { return e.detach_leaf(joined.node); });
  }

  std::uint64_t seed_;
  net::Topology topo_;
  net::SlotframeConfig frame_;
  std::vector<net::Task> tasks_;
  std::vector<NodeId> relays_;
  Rng rng_;
  std::unique_ptr<core::HarpEngine> engine_;
  std::unique_ptr<sim::DataPlane> data_;
  net::TrafficMatrix base_;
  DemandChurn churn_;
  std::uint64_t collisions_at_setup_{0};
  DataPlaneTally tally_;
};

// ------------------------------------------------------ scale1k, scale10k

/// One serial HarpEngine on a 7-layer tree of `nodes` nodes with
/// perf_bootstrap_scale's tree seed and slotframe rule. Local rounds: tens
/// of request_demand -> recompact -> state_fingerprint. The last round of
/// each epoch is wide churn: a demand change on a fifth of all links ->
/// recompact. Both sizes are above ComposeMemo's full-mode threshold (512
/// nodes), so interface generation consults the compose cache.
class ScaleTree final : public Workload {
 public:
  ScaleTree(std::uint64_t seed, std::size_t nodes)
      : seed_(seed),
        nodes_(nodes),
        topo_(seven_layer_tree(nodes, derive_seed(42, nodes))) {
    std::int64_t sum_depth = 0;
    for (NodeId v = 1; v < topo_.size(); ++v) sum_depth += topo_.node_layer(v);
    frame_.num_channels = 16;
    const std::int64_t per_dir =
        (sum_depth + frame_.num_channels - 1) / frame_.num_channels;
    frame_.length = static_cast<std::uint32_t>(3 * per_dir + 256);
    frame_.data_slots = frame_.length - 64;
    tasks_ = feasible_echo_tasks(topo_, frame_);
  }

  int rounds_per_epoch() const override { return kRounds; }
  /// state_fingerprint hashes one engine, whose state stays in cache.
  bool digest_in_cache() const override { return true; }

  void setup(std::uint64_t epoch, Ctx& ctx) override {
    rng_ = Rng(derive_seed(seed_, epoch));
    ctx.tracer.call("setup", [&] {
      engine_ = std::make_unique<core::HarpEngine>(topo_, tasks_, frame_);
    });
    base_ = engine_->traffic();
    churn_.reset(base_);
  }

  void teardown(Ctx& ctx) override {
    ctx.tracer.call("teardown", [&] { engine_.reset(); });
  }

  std::uint64_t round(int r, Ctx& ctx) override {
    core::HarpEngine& e = *engine_;
    const bool wide = r == kRounds - 1;
    churn_.revert(e, ctx, "adjust_us");
    churn_.grow(e, ctx, rng_, wide ? nodes_ / 5 : kLocalLinks, topo_.size(),
                "adjust_us");
    refused_request(e, ctx, first_leaf(topo_));
    ++ctx.m.attempted;
    const auto rep = ctx.tracer.call(
        "harp.engine.recompact", [&] { return e.recompact(); },
        ctx.detail_ms(wide ? "recompact_wide_ms" : "recompact_ms"));
    if (!rep.performed) ctx.fail("recompact_failed");
    return fingerprint(e, ctx);
  }

  std::uint64_t check_epoch(Ctx&) override {
    require(engine_->validate().empty(), "scale: validate() failed");
    return kFnvOffset;
  }

 private:
  static constexpr int kRounds = 12;
  static constexpr std::size_t kLocalLinks = 24;

  std::uint64_t seed_;
  std::size_t nodes_;
  net::Topology topo_;
  net::SlotframeConfig frame_;
  std::vector<net::Task> tasks_;
  Rng rng_;
  std::unique_ptr<core::HarpEngine> engine_;
  net::TrafficMatrix base_;
  DemandChurn churn_;
};

// ------------------------------------------------------------- fleet1k

/// fleet::Fleet with 3 shards and 1000 tenants of 220 nodes drawn from
/// perf_fleet_scale's 8 variants, with a tenant node quota of two extra
/// nodes. Waves of per-tenant seeded ops then quiesce(); the fleet
/// fingerprint after every eighth wave, so writes dominate.
class Fleet1k final : public Workload {
 public:
  explicit Fleet1k(std::uint64_t seed, std::size_t tenants = 1000)
      : seed_(seed), tenants_(tenants) {
    for (std::uint64_t i = 0; i < kVariants; ++i) {
      Variant v{seven_layer_tree(kTenantNodes, derive_seed(42, i)), {}, {}, {}};
      v.frame.length = 1840;
      v.frame.data_slots = v.frame.length - 64;
      v.tasks = feasible_echo_tasks(v.topo, v.frame);
      v.base = net::derive_traffic(v.topo, v.tasks, v.frame);
      variants_.push_back(std::move(v));
    }
  }

  int rounds_per_epoch() const override { return kWaves; }

  void setup(std::uint64_t epoch, Ctx& ctx) override {
    setup_with(epoch, ctx, kShards);
  }

  void teardown(Ctx& ctx) override {
    const Counters c = read_counters(ctx.tracer.call(
        "fleet.merged_metrics", [&] { return fleet_->merged_metrics(); }));
    add_counters(ctx.fleet_counters, c, {});
    auto count = [&](const char* k) {
      return static_cast<std::uint64_t>(c.at(k));
    };
    // The quota admits kQuota - kTenantNodes attaches per tenant (a
    // detached leaf keeps its node id, so the topology never shrinks);
    // every later attach bounces. Those are the deliberate refusals. Any
    // other rejection, e.g. an op sent to a tenant whose bootstrap
    // failed, is unplanned, and so is a missing bounce.
    const std::uint64_t planned =
        ids_.size() * (kWaves - (kQuota - kTenantNodes));
    const std::uint64_t rejected = count("harp.fleet.ops_rejected");
    ctx.m.refused["quota_bounce"] += std::min(rejected, planned);
    if (rejected != planned) {
      ctx.m.unexpected["unplanned_reject_or_missing_bounce"] +=
          rejected > planned ? rejected - planned : planned - rejected;
    }
    ctx.m.unexpected["bootstrap_failure"] +=
        count("harp.fleet.bootstrap_failures");
    ctx.m.unexpected["op_failure"] += count("harp.fleet.op_failures");
    ctx.m.unexpected["demand_rejected"] +=
        count("harp.engine.adjust_rejected");
    const fleet::FleetStats st = fleet_->stats();
    const std::size_t most =
        *std::max_element(st.shard_tenants.begin(), st.shard_tenants.end());
    ctx.extra["shard_imbalance"] +=
        ratio(static_cast<double>(most), static_cast<double>(st.tenants_live) /
                                             static_cast<double>(st.shards));
    ctx.extra["shard_imbalance_n"] += 1;
    ctx.tracer.call("teardown", [&] { fleet_.reset(); });
  }

  std::uint64_t round(int w, Ctx& ctx) override {
    fleet::Fleet& f = *fleet_;
    std::uint64_t ops = 0;
    for (std::size_t t = 0; t < ids_.size(); ++t) {
      const std::vector<fleet::Op> batch = ctx.tracer.call(
          "harness.generate_ops", [&] { return wave_ops(t, w); });
      // Each submit is its own sample. Submits that wake a sleeping shard
      // thread (three per wave) or meet a host stall take microseconds;
      // among ~9000 samples per wave they stay well under 1 %, so
      // op_p99_us does not sit on the knee they form.
      for (const fleet::Op& op : batch) {
        if (!ctx.op("fleet.submit", nullptr,
                    [&] { return f.submit(ids_[t], op); })) {
          ctx.fail("submit_unknown_tenant");
        }
      }
      ops += batch.size();
    }
    ctx.tracer.call("fleet.quiesce", [&] { f.quiesce(); },
                    [&](std::uint64_t ns) {
                      ctx.extra["quiesce_ns"] += static_cast<double>(ns);
                    });
    ctx.extra["wave_ops"] += static_cast<double>(ops);
    if (w % kDigestEvery != kDigestEvery - 1) return last_fp_;
    last_fp_ = ctx.digest("fleet.fleet_fingerprint",
                          [&] { return f.fleet_fingerprint(); });
    return last_fp_;
  }

  /// The epoch's last wave computed the fleet fingerprint.
  std::uint64_t check_epoch(Ctx&) override { return last_fp_; }

  /// The fleet fingerprint must not depend on the shard count: a small
  /// slice of the workload at 3 shards against 1 shard.
  std::uint64_t check_run() override {
    Fleet1k slice(seed_, kSliceTenants);
    std::uint64_t fp[2] = {0, 0};
    const std::size_t shards[2] = {kShards, 1};
    for (int i = 0; i < 2; ++i) {
      Measure scratch;
      Tracer quiet;
      Ctx c{quiet, scratch, {}, {}};
      slice.setup_with(0, c, shards[i]);
      for (int w = 0; w < kWaves; ++w) slice.round(w, c);
      fp[i] = slice.fleet_->fleet_fingerprint();
      slice.fleet_.reset();
    }
    require(fp[0] == fp[1],
            "fleet1k: fingerprint differs between 3 shards and 1 shard");
    return fp[0];
  }

 private:
  static constexpr std::size_t kTenantNodes = 220;
  static constexpr std::size_t kVariants = 8;
  static constexpr std::size_t kShards = 3;
  static constexpr std::size_t kQuota = kTenantNodes + 2;
  static constexpr int kWaves = 8;
  static constexpr int kDigestEvery = 8;
  static constexpr std::size_t kDemandOps = 4;
  static constexpr std::size_t kSliceTenants = 24;

  struct Variant {
    net::Topology topo;
    std::vector<net::Task> tasks;
    net::SlotframeConfig frame;
    net::TrafficMatrix base;
  };

  void setup_with(std::uint64_t epoch, Ctx& ctx, std::size_t shards) {
    epoch_seed_ = derive_seed(seed_, epoch);
    fleet::Fleet::Options opts;
    opts.num_shards = shards;
    opts.placement = fleet::PlacementPolicy::kLeastLoaded;
    opts.limits.tenant_node_quota = kQuota;
    ids_.clear();
    ctx.tracer.call("fleet.construct",
                    [&] { fleet_ = std::make_unique<fleet::Fleet>(opts); });
    for (std::size_t t = 0; t < tenants_; ++t) {
      const Variant& v = variants_[t % kVariants];
      const fleet::Admission a = ctx.tracer.call("fleet.create_tenant", [&] {
        return fleet_->create_tenant({v.topo, v.tasks, v.frame, {}});
      });
      require(a.admitted, "fleet1k: tenant rejected: " + a.reason);
      ids_.push_back(a.id);
    }
    // Bootstraps run on the shard threads; set-up ends when all are done.
    ctx.tracer.call("fleet.quiesce_bootstrap", [&] { fleet_->quiesce(); });
    last_fp_ = 0;
  }

  /// Tenant t's ops in wave w: pure function of (seed, epoch, t, w).
  /// Demand ops grow links by one cell and revert them the next wave;
  /// every wave attaches one leaf, which the quota admits twice per
  /// epoch and bounces afterwards; waves 1 and 3 detach the leaves;
  /// a quarter of the tenants recompact each wave.
  std::vector<fleet::Op> wave_ops(std::size_t t, int w) const {
    const Variant& v = variants_[t % kVariants];
    std::vector<fleet::Op> ops;
    auto picks = [&](int wave) {
      Rng rng(derive_seed(derive_seed(epoch_seed_, t),
                          static_cast<std::uint64_t>(wave)));
      std::vector<std::pair<NodeId, Direction>> p;
      for (std::size_t i = 0; i < kDemandOps; ++i) {
        p.emplace_back(static_cast<NodeId>(1 + rng.below(kTenantNodes - 1)),
                       rng.chance(0.5) ? Direction::kUp : Direction::kDown);
      }
      return std::pair{p, rng};
    };
    if (w > 0) {
      for (const auto& [node, dir] : picks(w - 1).first) {
        ops.push_back({.type = fleet::OpType::kDemand, .node = node,
                       .dir = dir, .cells = v.base.demand(node, dir)});
      }
    }
    auto [grow, rng] = picks(w);
    for (const auto& [node, dir] : grow) {
      ops.push_back({.type = fleet::OpType::kDemand, .node = node, .dir = dir,
                     .cells = v.base.demand(node, dir) + 1});
    }
    ops.push_back({.type = fleet::OpType::kAttach,
                   .parent = static_cast<NodeId>(1 + rng.below(50)),
                   .cells = 1,
                   .down_cells = 1});
    if (w == 1 || w == 3) {
      ops.push_back({.type = fleet::OpType::kDetach,
                     .node = static_cast<NodeId>(kTenantNodes + (w - 1) / 2)});
    }
    if ((t + static_cast<std::size_t>(w)) % 4 == 0) {
      ops.push_back({.type = fleet::OpType::kRecompact});
    }
    return ops;
  }

  std::uint64_t seed_;
  std::size_t tenants_;
  std::vector<Variant> variants_;
  std::uint64_t epoch_seed_{0};
  std::unique_ptr<fleet::Fleet> fleet_;
  std::vector<fleet::TenantId> ids_;
  std::uint64_t last_fp_{0};
};

// ---------------------------------------------------------------- runner

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed) {
  if (name == "testbed50") return std::make_unique<Testbed50>(seed);
  if (name == "plant220") return std::make_unique<Plant220>(seed);
  if (name == "scale1k") return std::make_unique<ScaleTree>(seed, 1000);
  if (name == "scale10k") return std::make_unique<ScaleTree>(seed, 10000);
  if (name == "fleet1k") return std::make_unique<Fleet1k>(seed);
  return nullptr;
}

struct RunPhase {
  Measure m;
  Counters counters;  // deltas of the thread's registry (plus fleet shards)
  std::map<std::string, double> extra;
  std::uint64_t epoch0_checksum{0};
  double wall_s{0.0};
};

/// A Reference reading is also taken between two rounds once this long
/// has passed since the last one, so long epochs get more than one.
constexpr std::uint64_t kReadingGapNs = 50'000'000;

/// Runs whole epochs, starting at epoch 0, until `seconds` have passed
/// (at least one epoch). With a traced phase, odd epochs run traced and
/// even ones untraced, so both phases see the same stretch of machine
/// time and their ratio is the tracing overhead. The Reference is read
/// before the first epoch, after every epoch and between long rounds,
/// outside all spans and timings.
void run_epochs(Workload& w, Tracer& tracer, RunPhase& plain,
                RunPhase* traced, double seconds) {
  RunPhase unused;
  RunPhase* phases[2] = {&plain, traced != nullptr ? traced : &unused};
  Ctx ctxs[2] = {{tracer, phases[0]->m, {}, {}},
                 {tracer, phases[1]->m, {}, {}}};
  static Reference reference;
  std::vector<Reference::Reading> readings{reference.read()};
  std::uint64_t last_reading = wall_ns();
  std::vector<int> phase_of;  // per block
  auto start_block = [&](int t) {
    Measure& m = phases[t]->m;
    m.block_at.push_back({m.setup_s.size(), m.op_us.size(), m.wave_ms.size(),
                          m.digest_ms.size()});
    phase_of.push_back(t);
  };
  /// Takes a reading; returns the time it took.
  auto read_reference = [&] {
    const std::uint64_t t0 = wall_ns();
    readings.push_back(reference.read());
    last_reading = wall_ns();
    return last_reading - t0;
  };
  const std::uint64_t start = wall_ns();
  for (std::uint64_t epoch = 0;; ++epoch) {
    const int t = traced != nullptr && epoch % 2 == 1 ? 1 : 0;
    RunPhase& ph = *phases[t];
    Ctx& ctx = ctxs[t];
    tracer.set_enabled(t == 1);
    const Counters before = read_counters(obs::MetricsRegistry::global());
    const std::uint64_t epoch_start = wall_ns();
    std::uint64_t untimed_ns = 0;  // readings and checks inside the epoch
    start_block(t);
    w.setup(epoch, ctx);
    ph.m.setup_s.push_back(static_cast<double>(wall_ns() - epoch_start) *
                           1e-9);
    std::uint64_t digest = kFnvOffset;
    const std::uint64_t attempted0 = ph.m.attempted;
    const double loop0 = ph.m.loop_s;
    for (int r = 0; r < w.rounds_per_epoch(); ++r) {
      if (r > 0 && wall_ns() - last_reading >= kReadingGapNs) {
        untimed_ns += read_reference();
        start_block(t);
      }
      const std::uint64_t t0 = wall_ns();
      const std::size_t digests = ph.m.digest_ms.size();
      digest = fold(digest, w.round(r, ctx));
      // A round's wave time is its control and data-plane work; the
      // state digest is a metric of its own.
      double dt = static_cast<double>(wall_ns() - t0);
      for (std::size_t i = digests; i < ph.m.digest_ms.size(); ++i) {
        dt -= ph.m.digest_ms[i] * 1e6;
      }
      ph.m.wave_ms.push_back(dt * 1e-6);
      ph.m.loop_s += dt * 1e-9;
      ++ph.m.rounds;
    }
    ph.m.epoch_ops_per_s.push_back(
        ratio(static_cast<double>(ph.m.attempted - attempted0),
              ph.m.loop_s - loop0));
    // The checks are untimed: outside every span and the phase's wall.
    const std::uint64_t check_start = wall_ns();
    digest = fold(digest, w.check_epoch(ctx));
    untimed_ns += wall_ns() - check_start;
    if (epoch == 0) ph.epoch0_checksum = digest;
    w.teardown(ctx);
    ++ph.m.epochs;
    ph.wall_s +=
        static_cast<double>(wall_ns() - epoch_start - untimed_ns) * 1e-9;
    add_counters(ph.counters, read_counters(obs::MetricsRegistry::global()),
                 before);
    read_reference();
    const bool both_ran = traced == nullptr || epoch >= 1;
    if (both_ran &&
        static_cast<double>(wall_ns() - start) * 1e-9 >= seconds) {
      break;
    }
  }
  tracer.set_enabled(false);
  // Block b lies between readings b and b + 1. One reading is noisy, so
  // its slowdown comes from the medians of the six readings from two
  // blocks before it to three after it.
  for (std::size_t b = 0; b < phase_of.size(); ++b) {
    std::vector<double> alloc, hash;
    for (std::size_t i = b >= 2 ? b - 2 : 0;
         i < std::min(b + 4, readings.size()); ++i) {
      alloc.push_back(readings[i].alloc_ns);
      hash.push_back(readings[i].hash_ns);
    }
    Measure& m = phases[phase_of[b]]->m;
    m.alloc_slowdown.push_back(median(alloc) / Reference::kAllocNs);
    m.hash_slowdown.push_back(median(hash) / Reference::kHashNs);
  }
  for (int t = 0; t < 2; ++t) {
    add_counters(phases[t]->counters, ctxs[t].fleet_counters, {});
    phases[t]->extra = std::move(ctxs[t].extra);
  }
}

/// Replays epoch 0 untimed; returns its checksum.
std::uint64_t replay_epoch(Workload& w) {
  RunPhase ph;
  Tracer quiet;
  run_epochs(w, quiet, ph, nullptr, 0.0);
  return ph.epoch0_checksum;
}

// -------------------------------------------------------------- output

struct Metric {
  std::string name;
  double value;
  std::string unit;
  std::string note;  // sample count etc. for the human report
};

std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " +
           json_number(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit +
           "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

void print_metrics(const char* title, const std::vector<Metric>& metrics) {
  std::printf("%s\n", title);
  for (const Metric& m : metrics) {
    std::printf("  %-40s %16.6g %-12s %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.note.c_str());
  }
}

std::string samples(std::size_t n) { return "n=" + std::to_string(n); }

/// Percentile `q` of one sample vector over the whole run, each sample
/// divided by its block's host slowdown (README.md, Noise). The note gives
/// the sample count and the unscaled percentile.
Metric scaled(const Measure& m, const char* name, const char* unit,
              const std::vector<double> Measure::*samples_of,
              std::size_t Measure::BlockStart::*start_of,
              const std::vector<double> Measure::*slowdown_of, double q) {
  const std::vector<double>& all = m.*samples_of;
  const std::vector<double>& slowdown = m.*slowdown_of;
  std::vector<double> out;
  out.reserve(all.size());
  for (std::size_t b = 0; b < m.block_at.size(); ++b) {
    const std::size_t to =
        b + 1 < m.block_at.size() ? m.block_at[b + 1].*start_of : all.size();
    for (std::size_t k = m.block_at[b].*start_of; k < to; ++k) {
      out.push_back(all[k] / slowdown[b]);
    }
  }
  char raw[48];
  std::snprintf(raw, sizeof raw, ", unscaled %.6g", percentile(all, q));
  return {name, percentile(out, q), unit, samples(all.size()) + raw};
}

std::vector<Metric> end_to_end(const Measure& m, bool digest_in_cache) {
  using M = Measure;
  using S = Measure::BlockStart;
  const double attempted = static_cast<double>(m.attempted);
  const double failed =
      static_cast<double>(m.refused_total() + m.unexpected_total());
  return {
      scaled(m, "setup_s", "s", &M::setup_s, &S::setup, &M::alloc_slowdown,
             0.5),
      scaled(m, "op_p50_us", "us", &M::op_us, &S::op, &M::alloc_slowdown,
             0.5),
      scaled(m, "op_p99_us", "us", &M::op_us, &S::op, &M::alloc_slowdown,
             0.99),
      scaled(m, "wave_p50_ms", "ms", &M::wave_ms, &S::wave,
             &M::alloc_slowdown, 0.5),
      scaled(m, "digest_p50_ms", "ms", &M::digest_ms, &S::digest,
             digest_in_cache ? &M::hash_slowdown : &M::alloc_slowdown, 0.5),
      {"failed_ratio", ratio(failed, attempted), "ratio",
       "failed=" + std::to_string(m.refused_total() + m.unexpected_total())},
  };
}

std::vector<Metric> workload_detail(const Measure& m) {
  // Control ops per second tracks 1 / wave time (every round has a fixed
  // op count) but is a mean, so it moves more with machine noise; it is
  // reported here rather than gated.
  std::vector<Metric> out{{"ops_per_s", median(m.epoch_ops_per_s), "1/s",
                           "epochs=" + std::to_string(
                                           m.epoch_ops_per_s.size()) +
                               " ops=" + std::to_string(m.attempted)}};
  if (m.slots > 0) {
    out.push_back({"slots_per_s", ratio(double(m.slots), m.loop_s), "1/s",
                   "slots=" + std::to_string(m.slots)});
  }
  for (const auto& [name, v] : m.detail) {
    const bool ms =
        name.size() > 3 && name.compare(name.size() - 3, 3, "_ms") == 0;
    const std::string stem = name.substr(0, name.size() - 3);
    const char* unit = ms ? "ms" : "us";
    out.push_back({stem + "_p50" + (ms ? "_ms" : "_us"), percentile(v, 0.5),
                   unit, samples(v.size())});
    if (v.size() >= 1000) {
      out.push_back({stem + "_p99" + (ms ? "_ms" : "_us"),
                     percentile(v, 0.99), unit, samples(v.size())});
    }
  }
  return out;
}

/// Self-time table of the traced phase plus the per-layer metrics.
std::vector<Metric> per_layer(const RunPhase& traced, const RunPhase& plain,
                              const Tracer& tracer) {
  const Counters& c = traced.counters;
  auto ctr = [&](const char* k) {
    const auto it = c.find(k);
    return it == c.end() ? 0.0 : it->second;
  };
  const double rounds = static_cast<double>(std::max<std::uint64_t>(
      traced.m.rounds, 1));

  // Self time per layer. Within a span, compose is credited to the
  // enclosing phase (interface_gen, then climb, then the agent handler)
  // up to that phase's own time; the rest of the span is its own layer.
  std::map<std::string, double> self_ns;
  PhaseSums phase_total{}, phase_calls{};
  double spanned = 0.0;
  for (const auto& [layer, s] : tracer.spans()) {
    const PhaseSums& d = s.phase_ns;
    double compose = static_cast<double>(d[kCompose]);
    const double in_ifgen = std::min(compose, double(d[kIfGen]));
    compose -= in_ifgen;
    // Layout runs inside the engine's climb or the agents' handler.
    double layout = static_cast<double>(d[kLayout]);
    const double layout_in_climb = std::min(layout, double(d[kClimb]));
    layout -= layout_in_climb;
    const double layout_in_agent = std::min(layout, double(d[kOnMsg]));
    layout -= layout_in_agent;
    const double in_climb =
        std::min(compose, double(d[kClimb]) - layout_in_climb);
    compose -= in_climb;
    const double in_agent =
        std::min(compose, double(d[kOnMsg]) - layout_in_agent);
    compose -= in_agent;
    const double top = double(d[kIfGen]) + double(d[kPartAlloc]) +
                       double(d[kSched]) + double(d[kClimb]) +
                       double(d[kOnMsg]);
    self_ns[layer] += double(s.total_ns) - top - compose - layout;
    self_ns[kPhaseLayer[kIfGen]] += double(d[kIfGen]) - in_ifgen;
    self_ns[kPhaseLayer[kPartAlloc]] += double(d[kPartAlloc]);
    self_ns[kPhaseLayer[kSched]] += double(d[kSched]);
    self_ns[kPhaseLayer[kClimb]] +=
        double(d[kClimb]) - layout_in_climb - in_climb;
    self_ns[kPhaseLayer[kCompose]] += double(d[kCompose]);
    self_ns[kPhaseLayer[kLayout]] += double(d[kLayout]);
    self_ns[kPhaseLayer[kOnMsg]] +=
        double(d[kOnMsg]) - layout_in_agent - in_agent;
    spanned += double(s.total_ns);
    for (int p = 0; p < kNumPhases; ++p) {
      phase_total[p] += d[p];
      phase_calls[p] += s.phase_calls[p];
    }
  }
  const double wall_ns_total = traced.wall_s * 1e9;
  const double coverage = ratio(spanned, wall_ns_total);
  const double per_round_traced = ratio(traced.wall_s, rounds);
  const double per_round_plain =
      ratio(plain.wall_s,
            static_cast<double>(std::max<std::uint64_t>(plain.m.rounds, 1)));
  const double overhead = ratio(per_round_traced, per_round_plain);

  {
    std::vector<std::pair<double, std::string>> rows;
    for (const auto& [layer, ns] : self_ns) {
      if (ns != 0.0) rows.emplace_back(ns, layer);
    }
    std::sort(rows.rbegin(), rows.rend());
    std::printf("self-time table (traced phase: %.3f s wall, %llu rounds)\n",
                traced.wall_s,
                static_cast<unsigned long long>(traced.m.rounds));
    std::printf("  %-44s %12s %8s %10s\n", "layer", "self_ms", "share",
                "calls");
    for (const auto& [ns, layer] : rows) {
      const auto it = tracer.spans().find(layer);
      std::uint64_t calls = it == tracer.spans().end() ? 0 : it->second.calls;
      for (int p = 0; p < kNumPhases; ++p) {
        if (layer == kPhaseLayer[p]) calls = phase_calls[p];
      }
      std::printf("  %-44s %12.3f %7.2f%% %10llu\n", layer.c_str(), ns * 1e-6,
                  100.0 * ratio(ns, wall_ns_total),
                  static_cast<unsigned long long>(calls));
    }
    std::printf("  %-44s %12.3f %7.2f%%\n",
                "(uncovered: harness between spans)",
                (wall_ns_total - spanned) * 1e-6,
                100.0 * ratio(wall_ns_total - spanned, wall_ns_total));
    std::printf("coverage = sum(layer self) / wall = %.4f%s\n", coverage,
                coverage >= 0.9 ? "" : "  (below 0.9: see the uncovered row)");
    std::printf("tracing overhead = traced / untraced wall per round = "
                "%.4f (%.3f ms / %.3f ms)\n",
                overhead, per_round_traced * 1e3, per_round_plain * 1e3);
    std::printf("not exercised: rt (no caller on these paths until "
                "HarpSimulation runs on it; covered by perf_rt_dispatch), "
                "runner.pool (engine jobs>1 crashes today, see README)\n"
                "not traced: phase timers inside fleet shard threads (each "
                "shard's obs context keeps timing off and is not reachable "
                "from the public API); shard work shows as fleet.quiesce\n");
  }

  auto span_mean = [&](const char* layer, double scale) {
    const auto it = tracer.spans().find(layer);
    if (it == tracer.spans().end() || it->second.calls == 0) return 0.0;
    return double(it->second.total_ns) / double(it->second.calls) * scale;
  };
  auto span_total = [&](const char* layer) {
    const auto it = tracer.spans().find(layer);
    return it == tracer.spans().end() ? 0.0 : double(it->second.total_ns);
  };
  auto phase_mean = [&](Phase p, double scale) {
    return phase_calls[p] == 0
               ? 0.0
               : double(phase_total[p]) / double(phase_calls[p]) * scale;
  };
  auto self_of = [&](const char* layer) {
    const auto it = self_ns.find(layer);
    return it == self_ns.end() ? 0.0 : it->second;
  };
  auto extra = [&](const char* k) {
    const auto it = traced.extra.find(k);
    return it == traced.extra.end() ? 0.0 : it->second;
  };
  const double events = extra("events");
  const auto recompacts = [&] {
    const auto it = tracer.spans().find("harp.engine.recompact");
    return it == tracer.spans().end() ? 0.0 : double(it->second.calls);
  }();
  const double waves = extra("wave_ops") > 0 ? rounds : 0.0;
  const double slots_run = ctr("harp.sim.slots");
  const double run_slot_ns =
      [&] {
        double ns = 0;
        for (const char* l : {"sim.data_plane.run_slots",
                              "sim.harp_simulation.run_frames"}) {
          const auto it = tracer.spans().find(l);
          if (it != tracer.spans().end()) ns += double(it->second.total_ns);
        }
        return ns;
      }();
  const double hits = ctr("harp.compose_cache.hits");
  const double misses = ctr("harp.compose_cache.misses");

  return {
      {"sim.data_plane.ns_per_slot", ratio(run_slot_ns, extra("loop_slots")),
       "ns", ""},
      {"sim.data_plane.set_schedule_us",
       span_mean("sim.data_plane.set_schedule", 1e-3), "us", ""},
      {"sim.data_plane.tx_per_slot",
       ratio(ctr("harp.sim.tx_attempts"), slots_run), "count", ""},
      {"sim.data_plane.tx_success_ratio",
       ratio(ctr("harp.sim.tx_success"), ctr("harp.sim.tx_attempts")), "ratio",
       ""},
      {"sim.data_plane.packets_dropped",
       ctr("harp.sim.packets_dropped") / rounds, "count/round", ""},
      {"sim.mgmt_plane.msgs_per_event",
       ratio(ctr("harp.mgmt.msgs_delivered"), events), "count", ""},
      {"sim.mgmt_plane.bytes_per_event",
       ratio(ctr("harp.mgmt.bytes_delivered"), events), "bytes", ""},
      {"sim.mgmt_plane.slots_to_quiesce", ratio(extra("event_slots"), events),
       "slots", ""},
      {"proto.agent.msgs_processed", ratio(ctr("harp.agent.msgs_processed"),
                                           events),
       "count/event", ""},
      {"proto.agent.on_message_ns", phase_mean(kOnMsg, 1.0), "ns", ""},
      {"harp.engine.adjust_kind.no_change",
       ctr("harp.engine.adjust_no_change") / rounds, "count/round", ""},
      {"harp.engine.adjust_kind.local_release",
       ctr("harp.engine.adjust_local_release") / rounds, "count/round", ""},
      {"harp.engine.adjust_kind.local_schedule",
       ctr("harp.engine.adjust_local_schedule") / rounds, "count/round", ""},
      {"harp.engine.adjust_kind.partition",
       ctr("harp.engine.adjust_partition") / rounds, "count/round", ""},
      {"harp.engine.adjust_kind.rejected",
       ctr("harp.engine.adjust_rejected") / rounds, "count/round", ""},
      {"harp.engine.adjust_hops_mean",
       ratio(ctr("harp.engine.adjust_hops.sum"),
             ctr("harp.engine.adjust_hops.count")),
       "hops", ""},
      {"harp.engine.climb_ns", phase_mean(kClimb, 1.0), "ns", ""},
      {"harp.adjustment.layout_calls", ctr("harp.adjust.layout_calls") / rounds,
       "count/round", ""},
      {"harp.adjustment.layout_ns", phase_mean(kLayout, 1.0), "ns", ""},
      {"harp.engine.attach_us", span_mean("harp.engine.attach_leaf", 1e-3),
       "us", ""},
      {"harp.engine.reparent_us", span_mean("harp.engine.reparent_leaf", 1e-3),
       "us", ""},
      {"harp.engine.detach_us", span_mean("harp.engine.detach_leaf", 1e-3),
       "us", ""},
      {"harp.interface_gen.ms", phase_mean(kIfGen, 1e-6), "ms", ""},
      {"harp.compose.calls", double(phase_calls[kCompose]) / rounds,
       "count/round", ""},
      {"harp.compose_cache.hit_ratio", ratio(hits, hits + misses), "ratio", ""},
      {"harp.compose_cache.misses", misses / rounds, "count/round", ""},
      {"harp.compose_cache.invalidations",
       ctr("harp.compose_cache.invalidations") / rounds, "count/round", ""},
      {"harp.partition_alloc.ms", phase_mean(kPartAlloc, 1e-6), "ms", ""},
      {"harp.rm_scheduler.ms", self_of("harp.rm_scheduler") * 1e-6 / rounds,
       "ms/round", ""},
      {"harp.engine.recompact_self_ms",
       ratio(self_of("harp.engine.recompact") * 1e-6, recompacts), "ms", ""},
      {"harp.engine.state_fingerprint_ms",
       span_mean("harp.engine.state_fingerprint", 1e-6), "ms", ""},
      {"fleet.submit_us", ratio(span_total("fleet.submit") * 1e-3,
                                extra("wave_ops")),
       "us", ""},
      {"fleet.quiesce_wait_ms", ratio(extra("quiesce_ns") * 1e-6, waves), "ms",
       ""},
      {"fleet.ops_per_batch",
       ratio(ctr("harp.fleet.ops_executed"), ctr("harp.fleet.op_batches")),
       "count", ""},
      {"fleet.shard_op_imbalance",
       ratio(extra("shard_imbalance"), extra("shard_imbalance_n")), "ratio",
       ""},
      {"fleet.ops_rejected", waves > 0 ? ctr("harp.fleet.ops_rejected") / waves
                                       : 0.0,
       "count/wave", ""},
      {"fleet.op_failures",
       waves > 0 ? ctr("harp.fleet.op_failures") / waves : 0.0, "count/wave",
       ""},
      {"fleet.create_tenant_us", span_mean("fleet.create_tenant", 1e-3), "us",
       ""},
      {"fleet.fingerprint_ms", span_mean("fleet.fleet_fingerprint", 1e-6),
       "ms", ""},
      {"trace.coverage", coverage, "ratio", ""},
      {"trace.overhead", overhead, "ratio", ""},
  };
}

/// VmHWM from /proc/self/status ("?" where unavailable).
std::string peak_rss() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return "?";
  char line[256];
  std::string out = "?";
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      out = line + 6;
      out.erase(0, out.find_first_not_of(" \t"));
      out.erase(out.find_last_not_of(" \n") + 1);
    }
  }
  std::fclose(f);
  return out;
}

struct Args {
  std::string workload;
  std::uint64_t seed{1};
  double seconds{10.0};
  int trace{0};
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "harp_e2e: %s\nusage: harp_e2e --workload "
               "<testbed50|plant220|scale1k|scale10k|fleet1k> --seed <n> "
               "--seconds "
               "<s> --trace <0|1>\n",
               why);
  std::exit(2);  // NOLINT(concurrency-mt-unsafe) single-threaded here
}

Args parse(int argc, char** argv) {
  Args a;
  bool have[4] = {false, false, false, false};
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + k).c_str());
    const char* v = argv[++i];
    char* end = nullptr;
    if (k == "--workload") {
      a.workload = v;
      have[0] = true;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v, &end, 10);
      have[1] = *end == '\0';
    } else if (k == "--seconds") {
      a.seconds = std::strtod(v, &end);
      have[2] = *end == '\0' && a.seconds > 0;
    } else if (k == "--trace") {
      a.trace = static_cast<int>(std::strtol(v, &end, 10));
      have[3] = *end == '\0' && (a.trace == 0 || a.trace == 1);
    } else {
      usage(("unknown argument " + k).c_str());
    }
  }
  if (!(have[0] && have[1] && have[2] && have[3])) {
    usage("every argument needs a valid value");
  }
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  // Phase timers and the trace ring stay off in measured runs; counters
  // stay on, as in the repository's own perf benches.
  obs::disable();
  std::unique_ptr<Workload> w = make_workload(args.workload, args.seed);
  if (w == nullptr) usage(("unknown workload " + args.workload).c_str());

  std::printf("harp_e2e workload=%s seed=%llu seconds=%g trace=%d\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace);
  bool correct = true;
  RunPhase plain, traced;
  Tracer tracer;
  std::uint64_t replay = 0;
  std::uint64_t run_check = 0;
  try {
    run_epochs(*w, tracer, plain, args.trace == 1 ? &traced : nullptr,
               args.seconds);
    // Same seed, same epoch: the replay must reproduce epoch 0 exactly.
    replay = replay_epoch(*w);
    require(replay == plain.epoch0_checksum,
            "epoch 0 replay checksum differs from the timed run");
    run_check = w->check_run();
    require(plain.m.unexpected_total() + traced.m.unexpected_total() == 0,
            "unplanned failures in the run");
  } catch (const CheckFailure& f) {
    std::printf("CHECK FAILED: %s\n", f.what.c_str());
    correct = false;
  } catch (const std::exception& e) {
    std::printf("ERROR: %s\n", e.what());
    correct = false;
  }

  const Measure& m = plain.m;
  std::printf("checksum %s (folds epoch 0 %s and run check %s; "
              "epoch 0 replay %s)\n",
              hex(fold(plain.epoch0_checksum, run_check)).c_str(),
              hex(plain.epoch0_checksum).c_str(), hex(run_check).c_str(),
              hex(replay).c_str());
  std::printf("peak RSS %s\n", peak_rss().c_str());
  std::printf("epochs=%llu rounds=%llu attempted=%llu\n",
              static_cast<unsigned long long>(m.epochs),
              static_cast<unsigned long long>(m.rounds),
              static_cast<unsigned long long>(m.attempted));
  std::printf("host slowdown over %zu blocks: alloc %.3f, hash %.3f "
              "(medians)\n",
              m.alloc_slowdown.size(), median(m.alloc_slowdown),
              median(m.hash_slowdown));
  for (const auto& [k, v] : m.refused) {
    std::printf("  refused[%s] = %llu (provoked on purpose)\n", k.c_str(),
                static_cast<unsigned long long>(v));
  }
  for (const auto& [k, v] : m.unexpected) {
    std::printf("  failed[%s] = %llu\n", k.c_str(),
                static_cast<unsigned long long>(v));
  }
  const std::vector<Metric> e2e = end_to_end(m, w->digest_in_cache());
  print_metrics("end-to-end (untraced):", e2e);
  print_metrics("workload detail (untraced):", workload_detail(m));
  if (!correct) {
    print_result(false, std::max<std::uint64_t>(m.attempted, 1),
                 m.unexpected_total(), {});
    return 1;
  }
  if (args.trace == 0) {
    print_result(true, m.attempted, m.unexpected_total(), e2e);
  } else {
    const std::vector<Metric> layers = per_layer(traced, plain, tracer);
    print_metrics("per-layer (traced):", layers);
    print_result(true, m.attempted + traced.m.attempted,
                 m.unexpected_total() + traced.m.unexpected_total(), layers);
  }
  return 0;
}
