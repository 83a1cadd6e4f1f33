// Experiment P4 — rt event-loop microbench (docs/RUNTIME.md).
//
// Times the three hot paths of the src/rt runtime, each with a
// determinism checksum, so "got slower" stays apart from "changed
// behavior":
//
//   tasks    events/sec through Dispatcher::run_until_idle for chained
//            ready tasks (the post -> step -> repost cycle every
//            delivered packet rides). The checksum folds the exact
//            execution interleaving of kTaskChains concurrent chains —
//            FIFO order is the contract the loss-free fingerprint
//            parity tests depend on.
//
//   timers   timer ops/sec for a seeded schedule/cancel/fire churn on
//            the TimerWheel via the dispatcher (one op = one schedule_at,
//            cancel, or fired callback). Deadlines collide on purpose:
//            the checksum pins the (deadline, schedule-order) firing
//            rule and the clock value each callback observes.
//
//   runtime  protocol msgs/sec for a full ProtoRuntime over loopback
//            with ARQ framing enabled — bootstrap once, then seeded
//            demand-churn rounds; the rate counts delivered packets
//            (data + acks, the harp.rt.msgs_delivered counter) per
//            timed second. The runtime's converged state_fingerprint
//            folds into the report checksum.
//
// Rates are medians over kRounds identical rounds. The bench checks
// itself and exits non-zero when a check fails: every round must
// reproduce the same checksum, the combined fingerprint must equal its
// pinned literal (also pinned in rt_test), and the `harp.rt.task_allocs`
// counter must end the run at exactly zero — one boxed task on a
// steady-state path is a malloc per event at scale (docs/RUNTIME.md
// "Timer wheel & task storage"). The JSON report carries
// results.rt{events_per_sec, timer_ops_per_sec, msgs_per_sec,
// task_allocs, fingerprint}.
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench/bench_util.hpp"
#include "common/hash.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "net/topology_gen.hpp"
#include "net/traffic.hpp"
#include "obs/obs.hpp"
#include "rt/channel.hpp"
#include "rt/dispatcher.hpp"
#include "rt/runtime.hpp"

using namespace harp;

namespace {

// Workload constants. Fixed — reports are only comparable across runs of
// the identical workload.
constexpr std::uint64_t kSeed = 7;
constexpr int kRounds = 7;
constexpr int kTaskChains = 64;
constexpr std::uint64_t kTaskEvents = 1'000'000;
constexpr std::uint64_t kTimerBatch = 200'000;
constexpr int kChurnOpsPerRound = 96;

/// The combined fingerprint of the fixed workload (rt_test pins it too).
constexpr const char* kFingerprint = "4e0f8d8479a347f7";

/// Fails the bench on any cross-round checksum drift: a dispatcher whose
/// event order varies run-to-run has lost the determinism contract, and
/// no throughput number excuses that.
void expect_stable(const char* what, std::uint64_t want, std::uint64_t got,
                   int round) {
  if (want == got) return;
  std::fprintf(stderr, "CHECKSUM DRIFT (%s, round %d): %s vs %s\n", what,
               round, bench::hex64(want).c_str(), bench::hex64(got).c_str());
  std::exit(1);  // NOLINT(concurrency-mt-unsafe) single-threaded bench
}

/// kTaskChains chains of re-posting tasks racing through one ready
/// queue; each executed task absorbs (chain id, global order index) so
/// the checksum is the interleaving itself.
std::uint64_t task_round(double& seconds) {
  rt::Dispatcher d(kSeed);
  std::uint64_t executed = 0;
  std::uint64_t checksum = kFnvOffset;
  struct Chain {
    rt::Dispatcher* d;
    std::uint64_t* executed;
    std::uint64_t* checksum;
    int id;
    void run() const {
      std::uint64_t h = fnv1a_value(*checksum, id);
      *checksum = fnv1a_value(h, (*executed)++);
      if (*executed + kTaskChains <= kTaskEvents) {
        d->post([self = *this] { self.run(); });
      }
    }
  };
  for (int c = 0; c < kTaskChains; ++c) {
    d.post([chain = Chain{&d, &executed, &checksum, c}] { chain.run(); });
  }
  bench::Timer t;
  d.run_until_idle(kTaskEvents + kTaskChains);
  seconds = t.seconds();
  return checksum;
}

/// Seeded schedule/cancel/fire churn. Deadlines are drawn from a small
/// window so many collide and the (deadline, schedule-order) tiebreak is
/// actually exercised; every third timer is cancelled before the run.
std::uint64_t timer_round(double& seconds, std::uint64_t& ops) {
  rt::Dispatcher d(kSeed);
  Rng rng(derive_seed(kSeed, 1));
  std::uint64_t checksum = kFnvOffset;
  std::vector<rt::TimerId> armed;
  armed.reserve(kTimerBatch);
  ops = 0;

  bench::Timer t;
  for (std::uint64_t i = 0; i < kTimerBatch; ++i) {
    const rt::Tick deadline = 1 + rng.below(kTimerBatch / 8);
    armed.push_back(d.schedule_at(deadline, [&checksum, &d, i] {
      const std::uint64_t h = fnv1a_value(checksum, d.now());
      checksum = fnv1a_value(h, i);
    }));
    ++ops;
  }
  for (std::size_t i = 0; i < armed.size(); i += 3) {
    d.cancel(armed[i]);
    ++ops;
  }
  ops += d.run_until_idle();
  seconds = t.seconds();
  return checksum;
}

/// Full-stack round: ProtoRuntime over loopback with ARQ framing,
/// seeded demand churn after an untimed bootstrap. Returns the converged
/// fingerprint; the delivered-packet count comes from the
/// harp.rt.msgs_delivered counter delta around the timed region.
std::uint64_t runtime_round(double& seconds, std::uint64_t& msgs) {
  const net::Topology topo = net::testbed_tree();
  const net::SlotframeConfig frame{};
  const std::vector<net::Task> tasks =
      net::uniform_echo_tasks(topo, frame.length);
  const net::TrafficMatrix traffic = net::derive_traffic(topo, tasks, frame);

  rt::Dispatcher d(kSeed);
  rt::LoopbackChannel ch(d);
  rt::RuntimeOptions opt;
  opt.arq.enabled = true;
  rt::ProtoRuntime runtime(topo, traffic, frame, d, ch, tasks, 0, opt);
  runtime.bootstrap();

  obs::Counter& delivered =
      obs::MetricsRegistry::global().counter("harp.rt.msgs_delivered");
  const std::uint64_t before = delivered.value();
  Rng churn(derive_seed(kSeed, 2));
  bench::Timer t;
  for (int i = 0; i < kChurnOpsPerRound; ++i) {
    const NodeId child = 1 + static_cast<NodeId>(churn.below(topo.size() - 1));
    const Direction dir =
        churn.chance(0.5) ? Direction::kUp : Direction::kDown;
    runtime.change_demand(child, dir, 1 + static_cast<int>(churn.below(3)));
  }
  seconds = t.seconds();
  msgs = delivered.value() - before;
  if (runtime.total_retransmits() != 0 || !runtime.quiescent()) {
    std::fprintf(stderr, "runtime round not clean: retransmits on a "
                 "loss-free transport or non-quiescent end state\n");
    std::exit(1);  // NOLINT(concurrency-mt-unsafe) single-threaded bench
  }
  return runtime.fingerprint();
}

}  // namespace

int main(int argc, char** argv) {
  const bench::Args args = bench::Args::parse(argc, argv);
  bench::Checks checks;
  // Bare hot path: phase timers and trace events off, counters stay on
  // (the runtime section reads harp.rt.msgs_delivered and the
  // allocation gate reads harp.rt.task_allocs).
  obs::disable();

  Stats task_rate, timer_rate, msg_rate;
  std::uint64_t task_checksum = 0, timer_checksum = 0, runtime_fp = 0;
  std::uint64_t timer_ops = 0, runtime_msgs = 0;
  for (int round = 0; round < kRounds; ++round) {
    double s = 0.0;
    const std::uint64_t tc = task_round(s);
    if (round == 0) task_checksum = tc;
    expect_stable("tasks", task_checksum, tc, round);
    task_rate.add(static_cast<double>(kTaskEvents) / s);

    std::uint64_t ops = 0;
    const std::uint64_t wc = timer_round(s, ops);
    if (round == 0) timer_checksum = wc;
    expect_stable("timers", timer_checksum, wc, round);
    timer_ops = ops;
    timer_rate.add(static_cast<double>(ops) / s);

    std::uint64_t msgs = 0;
    const std::uint64_t fp = runtime_round(s, msgs);
    if (round == 0) runtime_fp = fp;
    expect_stable("runtime", runtime_fp, fp, round);
    runtime_msgs = msgs;
    msg_rate.add(static_cast<double>(msgs) / s);
  }

  // The allocation-free contract, gated in-process: not one task was
  // heap-boxed across every round of all three sections.
  const std::uint64_t task_allocs =
      obs::MetricsRegistry::global().counter("harp.rt.task_allocs").value();
  if (task_allocs != 0) {
    checks.fail("harp.rt.task_allocs is " + std::to_string(task_allocs) +
                ", expected 0: a fat capture reached a steady-state path");
  }

  const double events_per_sec = task_rate.median();
  const double timer_ops_per_sec = timer_rate.median();
  const double msgs_per_sec = msg_rate.median();
  // One digest for the pin: the task interleaving, the timer firing
  // order, and the converged protocol state, folded in that order.
  std::uint64_t fp = kFnvOffset;
  fp = fnv1a_value(fp, task_checksum);
  fp = fnv1a_value(fp, timer_checksum);
  fp = fnv1a_value(fp, runtime_fp);

  bench::Table table({"section", "ops", "rate/s"}, 16);
  table.row({"tasks", std::to_string(kTaskEvents),
             bench::fmt(events_per_sec, 0)});
  table.row({"timers", std::to_string(timer_ops),
             bench::fmt(timer_ops_per_sec, 0)});
  table.row({"runtime msgs", std::to_string(runtime_msgs),
             bench::fmt(msgs_per_sec, 0)});
  table.print();
  std::printf("fingerprint %s\n", bench::hex64(fp).c_str());

  bench::JsonReport report("perf_rt_dispatch", args);
  obs::Json& rt_out = report.results()["rt"];
  rt_out["rounds"] = static_cast<std::int64_t>(kRounds);
  rt_out["task_events"] = static_cast<std::int64_t>(kTaskEvents);
  rt_out["timer_ops"] = static_cast<std::int64_t>(timer_ops);
  rt_out["churn_ops_per_round"] =
      static_cast<std::int64_t>(kChurnOpsPerRound);
  rt_out["runtime_msgs"] = static_cast<std::int64_t>(runtime_msgs);
  rt_out["events_per_sec"] = events_per_sec;
  rt_out["timer_ops_per_sec"] = timer_ops_per_sec;
  rt_out["msgs_per_sec"] = msgs_per_sec;
  rt_out["task_allocs"] = static_cast<std::int64_t>(task_allocs);
  rt_out["fingerprint"] = bench::hex64(fp);
  report.write();
  checks.pin("rt fingerprint", bench::hex64(fp), kFingerprint);
  return checks.exit_code();
}
