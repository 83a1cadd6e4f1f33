// Runtime lock-rank checker (common/sync.hpp): correctly-ordered nested
// acquisition is silent; an inversion fires one `lock_order_fail` trace
// event and fails through the HARP_ASSERT path (throw by default, abort
// under HARP_ASSERT_ABORT). Compiled out entirely when the build
// disables HARP_AUDIT, which gates the checker.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>

#include "common/error.hpp"
#include "common/sync.hpp"
#include "obs/obs.hpp"
#include "obs/trace.hpp"

#if HARP_LOCK_RANK_ENABLED

namespace harp {
namespace {

TEST(LockRank, NestedAcquisitionInRankOrderIsSilent) {
  auto& sink = obs::TraceSink::global();
  obs::enable(16);  // also links obs.cpp's trace reporter installer
  sink.clear();
  {
    Mutex outer{LockRank::kFleetShard, "test.outer"};
    Mutex inner{LockRank::kObsIntern, "test.inner"};
    MutexLock a(outer);
    MutexLock b(inner);
  }
  for (const obs::TraceEvent& e : sink.snapshot()) {
    EXPECT_NE(e.type, obs::EventType::kLockOrderFail);
  }
  obs::disable();
}

TEST(LockRank, TableValuesArePinned) {
  // The rank table is API (docs/STATIC_ANALYSIS.md); renumbering breaks
  // the documented hierarchy, so every slot is pinned here.
  EXPECT_EQ(static_cast<std::uint32_t>(LockRank::kFleetShard), 100u);
  EXPECT_EQ(static_cast<std::uint32_t>(LockRank::kObsIntern), 400u);
}

TEST(LockRank, ReleaseUnwindsTheHeldStack) {
  // Sequential (non-nested) acquisition carries no ordering constraint:
  // once a lock is released its rank must no longer gate anything.
  Mutex high{LockRank::kObsIntern, "test.high"};
  Mutex low{LockRank::kFleetShard, "test.low"};
  { MutexLock a(high); }
  { MutexLock b(low); }  // would violate if `high` still counted as held
  { MutexLock a(high); }
}

#ifndef HARP_ASSERT_ABORT

TEST(LockRank, InversionThrowsAndEmitsTraceEvent) {
  auto& sink = obs::TraceSink::global();
  obs::enable(16);
  sink.clear();

  Mutex inner{LockRank::kObsIntern, "test.inversion_inner"};
  Mutex outer{LockRank::kFleetShard, "test.inversion_outer"};
  {
    MutexLock hold(inner);
    // Acquiring a lower rank while a higher one is held is the seeded
    // inversion. check_lock_order fails BEFORE the mutex is locked, so
    // the throw leaves nothing to unwind for `outer`.
    EXPECT_THROW(MutexLock bad(outer), Error);
  }

  const auto events = sink.snapshot();
  ASSERT_FALSE(events.empty());
  const obs::TraceEvent& e = events.back();
  ASSERT_EQ(e.type, obs::EventType::kLockOrderFail);
  EXPECT_STREQ(sink.phase_name(static_cast<std::uint16_t>(e.a)),
               "test.inversion_outer");
  EXPECT_STREQ(sink.phase_name(static_cast<std::uint16_t>(e.b)),
               "test.inversion_inner");
  EXPECT_EQ(e.value & 0xffffffffull,
            static_cast<std::uint64_t>(LockRank::kFleetShard));
  EXPECT_EQ(e.value >> 32, static_cast<std::uint64_t>(LockRank::kObsIntern));
  obs::disable();

  // The checker state stays consistent after the failed acquisition:
  // correctly-ordered locking still works on this thread.
  MutexLock ok(inner);
}

TEST(LockRank, EqualRankIsAViolation) {
  // Strictly increasing: self-deadlock between two same-rank mutexes (or
  // a recursive acquisition) is exactly what equal rank would permit.
  Mutex a{LockRank::kFleetShard, "test.equal_a"};
  Mutex b{LockRank::kFleetShard, "test.equal_b"};
  MutexLock hold(a);
  EXPECT_THROW(MutexLock bad(b), Error);
}

#else  // HARP_ASSERT_ABORT
#if GTEST_HAS_DEATH_TEST

[[noreturn]] void seed_inversion() {
  Mutex inner{LockRank::kObsIntern, "test.abort_inner"};
  Mutex outer{LockRank::kFleetShard, "test.abort_outer"};
  MutexLock hold(inner);
  MutexLock bad(outer);  // aborts under HARP_ASSERT_ABORT
  std::abort();          // unreachable; satisfies [[noreturn]]
}

TEST(LockRankDeathTest, InversionAborts) {
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(seed_inversion(), "lock rank violation");
}

#endif  // GTEST_HAS_DEATH_TEST
#endif  // HARP_ASSERT_ABORT

}  // namespace
}  // namespace harp

#endif  // HARP_LOCK_RANK_ENABLED
