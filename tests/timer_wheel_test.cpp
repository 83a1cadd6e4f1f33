// Tests for the allocation-free event core: the hierarchical TimerWheel
// held differentially against the reference heap TimerQueue (identical
// fire order and cancellation semantics under randomized churn), the
// InlineFunction/InlineTask SBO callable, the RingQueue FIFO, and the
// rt::boxed_task escape hatch with its harp.rt.task_allocs counter.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/inline_task.hpp"
#include "common/ring.hpp"
#include "common/rng.hpp"
#include "obs/obs.hpp"
#include "rt/task.hpp"
#include "rt/timer_wheel.hpp"
#include "timer_queue.hpp"

namespace harp {
namespace {

// ------------------------------------------------- wheel vs heap differ

/// Runs the wheel and the reference heap through one shared operation
/// stream and asserts they are observationally identical: same firing
/// sequence, same next_deadline() at every checkpoint, same cancel()
/// verdicts. Timer identities differ between the two (monotonic ids vs
/// generation-packed slots), so timers are tracked by token.
struct Differ {
  rt::TimerQueue heap;
  rt::TimerWheel wheel;
  std::vector<int> heap_fired;
  std::vector<int> wheel_fired;
  std::map<int, std::pair<rt::TimerId, rt::TimerId>> live;
  int next_token{0};
  rt::Tick now{0};

  void schedule(rt::Tick offset) {
    const rt::Tick deadline = now + offset;
    const int k = next_token++;
    const rt::TimerId h =
        heap.schedule(deadline, [this, k] { heap_fired.push_back(k); });
    const rt::TimerId w =
        wheel.schedule(deadline, [this, k] { wheel_fired.push_back(k); });
    live[k] = {h, w};
    ASSERT_EQ(heap.size(), wheel.size());
  }

  void cancel(int token) {
    const auto it = live.find(token);
    ASSERT_NE(it, live.end());
    const bool h = heap.cancel(it->second.first);
    const bool w = wheel.cancel(it->second.second);
    ASSERT_EQ(h, w) << "cancel verdict diverged for token " << token;
    ASSERT_TRUE(h);  // tokens in `live` are live by construction
    live.erase(it);
  }

  /// Advances to `t` and pops both sides in lockstep until neither has a
  /// due timer, asserting the streams stay identical pop-by-pop.
  void drain_to(rt::Tick t) {
    ASSERT_GE(t, now);
    now = t;
    for (;;) {
      auto h = heap.pop_due(now);
      auto w = wheel.pop_due(now);
      ASSERT_EQ(h.has_value(), w.has_value());
      if (!h.has_value()) break;
      (*h)();
      (std::move(*w))();
      ASSERT_FALSE(heap_fired.empty());
      ASSERT_EQ(heap_fired.back(), wheel_fired.back());
      live.erase(heap_fired.back());
    }
    ASSERT_EQ(heap_fired, wheel_fired);
    ASSERT_EQ(heap.next_deadline(), wheel.next_deadline());
    ASSERT_EQ(heap.size(), wheel.size());
  }
};

TEST(TimerWheel, MatchesHeapOnDirectedTieAndOrderCases) {
  Differ d;
  d.schedule(30);
  d.schedule(10);
  d.schedule(20);
  d.schedule(10);  // same deadline, later schedule: must fire second
  d.drain_to(100);
  EXPECT_EQ(d.heap_fired, (std::vector<int>{1, 3, 2, 0}));
}

TEST(TimerWheel, MatchesHeapAcrossAllLevelsAndOverflow) {
  Differ d;
  // One deadline per wheel level plus two beyond the 2^24-tick horizon
  // (overflow), scheduled out of order and with a duplicate far value.
  d.schedule(3);                    // level 0
  d.schedule(700);                  // level 1
  d.schedule(100'000);              // level 2
  d.schedule(9'000'000);            // level 3
  d.schedule(1ull << 30);           // overflow
  d.schedule(1ull << 30);           // overflow tie: schedule order decides
  d.schedule(40'000'000);           // past horizon at schedule time
  d.drain_to(50);                   // fires only the level-0 timer
  d.drain_to(200'000);              // cascades levels 1-2
  d.drain_to(1ull << 31);           // epoch change drains overflow
  EXPECT_EQ(d.heap_fired.size(), 7u);
}

TEST(TimerWheel, RandomizedDifferentialChurn) {
  // Mixed schedule/cancel/advance streams over several seeds. Offsets
  // are drawn from nested horizons so every wheel level, the overflow
  // list and the cascade path stay hot; roughly a third of live timers
  // get cancelled along the way (the ARQ schedule-then-ack shape).
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    Differ d;
    Rng rng(seed);
    for (int step = 0; step < 600; ++step) {
      const std::uint64_t roll = rng.below(10);
      if (roll < 5 || d.live.empty()) {
        static constexpr rt::Tick kHorizons[] = {
            1ull << 6, 1ull << 12, 1ull << 18, 1ull << 25, 1ull << 33};
        const rt::Tick horizon = kHorizons[rng.below(5)];
        d.schedule(rng.below(horizon));
      } else if (roll < 8) {
        // Cancel a pseudo-random live token.
        auto it = d.live.begin();
        std::advance(it, static_cast<long>(rng.below(d.live.size())));
        d.cancel(it->first);
      } else {
        d.drain_to(d.now + rng.below(1ull << 14));
      }
      if (testing::Test::HasFatalFailure()) return;
    }
    d.drain_to(d.now + (1ull << 40));  // flush everything incl. overflow
    if (testing::Test::HasFatalFailure()) return;
    EXPECT_GT(d.heap_fired.size(), 50u) << "seed " << seed;
    EXPECT_TRUE(d.wheel.empty());
  }
}

// ------------------------------------------------- wheel-specific edges

TEST(TimerWheel, StaleHandlesMissAfterSlotReuse) {
  rt::TimerWheel w;
  int fired = 0;
  const rt::TimerId first = w.schedule(5, [&] { ++fired; });
  ASSERT_TRUE(w.pop_due(5).has_value());
  // The slot is recycled by the next schedule; the old handle's
  // generation no longer matches, so it can only miss — never alias.
  const rt::TimerId second = w.schedule(9, [&] { ++fired; });
  EXPECT_FALSE(w.cancel(first));
  EXPECT_EQ(w.size(), 1u);
  EXPECT_TRUE(w.cancel(second));
  EXPECT_FALSE(w.cancel(second));
  EXPECT_FALSE(w.cancel(0));  // the null handle is never valid
  EXPECT_TRUE(w.empty());
}

TEST(TimerWheel, SlabStopsGrowingUnderSteadyChurn) {
  rt::TimerWheel w;
  // Schedule/fire cycles at a bounded in-flight population: the slab
  // grows to the high-water mark and then recycles slots forever.
  for (int warm = 0; warm < 8; ++warm) {
    w.schedule(static_cast<rt::Tick>(warm + 1), [] {});
  }
  const std::size_t high_water = w.slab_size();
  rt::Tick t = 0;
  for (int round = 0; round < 1000; ++round) {
    while (auto cb = w.pop_due(++t)) (*cb)();
    for (int i = 0; i < 8 && w.size() < 8; ++i) {
      w.schedule(t + 1 + static_cast<rt::Tick>(i % 3), [] {});
    }
  }
  EXPECT_EQ(w.slab_size(), high_water);
}

// --------------------------------------- reference heap compaction keep

TEST(RtTimerQueue, CancelCompactionBoundsLazyGarbage) {
  rt::TimerQueue q;
  std::vector<rt::TimerId> ids;
  for (int i = 0; i < 100; ++i) {
    ids.push_back(q.schedule(static_cast<rt::Tick>(i + 1), [] {}));
  }
  EXPECT_EQ(q.live_size(), 100u);
  EXPECT_EQ(q.heap_size(), 100u);
  for (int i = 0; i < 80; ++i) EXPECT_TRUE(q.cancel(ids[i]));
  EXPECT_EQ(q.live_size(), 20u);
  // The compaction rule: cancelled garbage never exceeds half the heap.
  EXPECT_LE(q.heap_size(), 2 * q.live_size() + 1);
  // Firing order of the survivors is untouched by the rebuild.
  std::vector<rt::Tick> order;
  rt::Tick t = 200;
  while (auto cb = q.pop_due(t)) {
    order.push_back(q.next_deadline());  // post-pop; just drive the queue
    (*cb)();
  }
  EXPECT_EQ(order.size(), 20u);
  EXPECT_TRUE(q.empty());
}

// ----------------------------------------------------------- InlineTask

/// Capture payload that counts constructions and destructions, for
/// leak/double-destroy accounting across moves.
struct Counted {
  static int alive;
  static int dtors;
  std::uint64_t payload{0};
  Counted() { ++alive; }
  Counted(const Counted& o) noexcept : payload(o.payload) { ++alive; }
  Counted(Counted&& o) noexcept : payload(o.payload) { ++alive; }
  ~Counted() {
    --alive;
    ++dtors;
  }
};
int Counted::alive = 0;
int Counted::dtors = 0;

TEST(InlineTask, InvokesCapturesAtTheSboBoundary) {
  // Exactly kInlineCaptureBytes of capture: the largest legal payload.
  struct Fat {
    std::uint64_t words[kInlineCaptureBytes / sizeof(std::uint64_t)];
  };
  static_assert(sizeof(Fat) == kInlineCaptureBytes);
  Fat fat{};
  for (std::size_t i = 0; i < std::size(fat.words); ++i) {
    fat.words[i] = i + 1;
  }
  std::uint64_t sum = 0;
  InlineFunction<std::uint64_t()> fn = [fat] {
    std::uint64_t s = 0;
    for (const std::uint64_t w : fat.words) s += w;
    return s;
  };
  static_assert(sizeof(fat) == kInlineCaptureBytes);
  sum = fn();
  EXPECT_EQ(sum, 21u);  // 1+2+...+6
}

TEST(InlineTask, MoveOnlyCapturesMoveWithTheTask) {
  auto owned = std::make_unique<int>(41);
  InlineTask a = [p = std::move(owned)] { ++*p; };
  EXPECT_TRUE(static_cast<bool>(a));
  InlineTask b = std::move(a);          // move ctor relocates the capture
  EXPECT_FALSE(static_cast<bool>(a));   // NOLINT(bugprone-use-after-move)
  InlineTask c;
  c = std::move(b);                     // move assign
  EXPECT_FALSE(static_cast<bool>(b));   // NOLINT(bugprone-use-after-move)
  c();
}

TEST(InlineTask, DestructionCountsBalanceAcrossMovesAndReset) {
  Counted::alive = 0;
  Counted::dtors = 0;
  {
    InlineTask t = [c = Counted{}] { static_cast<void>(c.payload); };
    EXPECT_EQ(Counted::alive, 1);
    InlineTask u = std::move(t);  // relocate = move-construct + destroy src
    EXPECT_EQ(Counted::alive, 1);
    u.reset();
    EXPECT_EQ(Counted::alive, 0);
    u.reset();  // idempotent
    EXPECT_EQ(Counted::alive, 0);
  }
  EXPECT_EQ(Counted::alive, 0);
  EXPECT_GE(Counted::dtors, 2);  // relocation source + reset at least
}

TEST(InlineTask, EmptyInvocationIsAContractViolation) {
  InlineTask empty;
  EXPECT_FALSE(static_cast<bool>(empty));
#ifdef HARP_ASSERT_ABORT
  GTEST_SKIP() << "assertion failures abort in this build";
#else
  EXPECT_THROW(empty(), Error);
#endif
}

TEST(InlineTask, ReturnValuesAndArgumentsPassThrough) {
  InlineFunction<int(int, int)> add = [](int a, int b) { return a + b; };
  EXPECT_EQ(add(20, 22), 42);
}

// ----------------------------------------------------------- boxed_task

TEST(BoxedTask, CountsEveryBoxInTaskAllocs) {
  obs::Counter& allocs =
      obs::MetricsRegistry::global().counter("harp.rt.task_allocs");
  const std::uint64_t before = allocs.value();
  struct TooFat {
    std::uint64_t words[16];  // 128 bytes: over any inline budget
  };
  TooFat fat{};
  fat.words[7] = 7;
  std::uint64_t seen = 0;
  InlineTask t = rt::boxed_task([fat, &seen] { seen = fat.words[7]; });
  EXPECT_EQ(allocs.value(), before + 1);
  t();
  EXPECT_EQ(seen, 7u);
  // The box travels with moves without further allocations.
  InlineTask u = std::move(t);
  u();
  EXPECT_EQ(allocs.value(), before + 1);
}

// ------------------------------------------------------------ RingQueue

TEST(RingQueue, FifoAcrossGrowthAndWraparound) {
  RingQueue<int> q;
  EXPECT_TRUE(q.empty());
  // Interleave pushes and pops so head/tail wrap the initial buffer
  // several times while the queue also grows past it.
  int next_in = 0;
  int next_out = 0;
  for (int round = 0; round < 50; ++round) {
    for (int i = 0; i < 7; ++i) q.push_back(next_in++);
    for (int i = 0; i < 5; ++i) {
      ASSERT_EQ(q.front(), next_out);
      ASSERT_EQ(q.pop_front(), next_out++);
    }
  }
  EXPECT_EQ(q.size(), static_cast<std::size_t>(next_in - next_out));
  while (!q.empty()) ASSERT_EQ(q.pop_front(), next_out++);
  EXPECT_EQ(next_in, next_out);
}

TEST(RingQueue, PopOnEmptyIsAContractViolation) {
#ifdef HARP_ASSERT_ABORT
  GTEST_SKIP() << "assertion failures abort in this build";
#else
  RingQueue<int> q;
  EXPECT_THROW(q.pop_front(), Error);
  EXPECT_THROW(q.front(), Error);
#endif
}

TEST(RingQueue, SwapExchangesBuffersAndClearReleasesElements) {
  RingQueue<std::unique_ptr<int>> produced;
  RingQueue<std::unique_ptr<int>> scratch;
  for (int i = 0; i < 20; ++i) {
    produced.push_back(std::make_unique<int>(i));
  }
  scratch.swap(produced);  // the swap-batch idiom
  EXPECT_TRUE(produced.empty());
  EXPECT_EQ(scratch.size(), 20u);
  for (int i = 0; i < 3; ++i) EXPECT_EQ(*scratch.pop_front(), i);
  const std::size_t cap = scratch.capacity();
  scratch.clear();
  EXPECT_TRUE(scratch.empty());
  EXPECT_EQ(scratch.capacity(), cap);  // buffer retained for reuse
}

TEST(RingQueue, MoveOnlyElementsSurviveGrowth) {
  RingQueue<std::unique_ptr<int>> q;
  for (int i = 0; i < 100; ++i) q.push_back(std::make_unique<int>(i));
  for (int i = 0; i < 100; ++i) {
    auto p = q.pop_front();
    ASSERT_TRUE(p);
    EXPECT_EQ(*p, i);
  }
}

}  // namespace
}  // namespace harp
