// Unit tests for src/common: RNG determinism and distribution sanity,
// statistics accumulator, error types, core value types.
#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <unordered_set>

#include "common/error.hpp"
#include "common/hash.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/types.hpp"

namespace harp {
namespace {

// fnv1a_u64 skips the absorption of zero high bytes (one multiply by P^k
// instead); it must equal the byte-wise fold of all 8 bytes everywhere.
TEST(Hash, FnvU64MatchesByteWiseFold) {
  const auto check = [](std::uint64_t h, std::uint64_t v) {
    ASSERT_EQ(fnv1a_u64(h, v), fnv1a(h, &v, 8))
        << std::hex << "h=" << h << " v=" << v;
  };
  const std::uint64_t edge[] = {0,
                                1,
                                0xff,
                                0x100,
                                0xffff,
                                0x10000,
                                0x0100000000000001ULL,
                                0x00ff0000ff000000ULL,
                                0x8000000000000000ULL,
                                UINT64_MAX};
  for (const std::uint64_t v : edge) {
    check(kFnvOffset, v);
    check(0, v);
    check(UINT64_MAX, v);
  }
  // Seeded values in every byte-length class 0..8, with interior zero
  // bytes, folded into a running state.
  Rng rng(12345);
  std::uint64_t h = kFnvOffset;
  for (int i = 0; i < 100000; ++i) {
    const int bytes = i % 9;
    std::uint64_t v = bytes == 0 ? 0 : rng() >> (64 - 8 * bytes);
    if (bytes > 0) v |= std::uint64_t{1} << (8 * bytes - 1);  // exact class
    if (i % 7 == 0) v &= ~(std::uint64_t{0xff} << (8 * (i % 8)));
    if (fnv1a_u64(h, v) != fnv1a(h, &v, 8)) {
      FAIL() << std::hex << "h=" << h << " v=" << v;
    }
    h = fnv1a_u64(h, v);
  }
  EXPECT_NE(h, kFnvOffset);
}

TEST(Rng, SameSeedSameSequence) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a() == b()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, BelowStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.below(13), 13u);
  }
}

TEST(Rng, BelowCoversAllValues) {
  Rng rng(11);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 2000; ++i) seen.insert(rng.below(7));
  EXPECT_EQ(seen.size(), 7u);
}

TEST(Rng, BelowOneAlwaysZero) {
  Rng rng(3);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(rng.below(1), 0u);
}

TEST(Rng, BelowZeroThrows) {
#ifdef HARP_ASSERT_ABORT
  GTEST_SKIP() << "assertion failures abort in this build";
#else
  Rng rng(3);
  EXPECT_THROW(rng.below(0), Error);
#endif
}

TEST(Rng, BetweenInclusiveBounds) {
  Rng rng(5);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 5000; ++i) {
    const auto v = rng.between(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= (v == -3);
    saw_hi |= (v == 3);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(9);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, ChanceExtremes) {
  Rng rng(1);
  for (int i = 0; i < 20; ++i) {
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
  }
}

TEST(Rng, ChanceApproximatesProbability) {
  Rng rng(123);
  int hits = 0;
  for (int i = 0; i < 20000; ++i) hits += rng.chance(0.3);
  EXPECT_NEAR(hits / 20000.0, 0.3, 0.02);
}

TEST(Rng, ForkProducesIndependentStream) {
  Rng parent(77);
  Rng child = parent.fork();
  // The child stream should not mirror the parent stream.
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (parent() == child()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, ShufflePreservesElements) {
  Rng rng(4);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto orig = v;
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, orig);
}

TEST(Stats, BasicMoments) {
  Stats s;
  for (double x : {1.0, 2.0, 3.0, 4.0}) s.add(x);
  EXPECT_EQ(s.count(), 4u);
  EXPECT_DOUBLE_EQ(s.mean(), 2.5);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 4.0);
  EXPECT_DOUBLE_EQ(s.sum(), 10.0);
  EXPECT_NEAR(s.stddev(), 1.11803, 1e-4);
}

TEST(Stats, Percentiles) {
  Stats s;
  for (int i = 1; i <= 100; ++i) s.add(i);
  EXPECT_DOUBLE_EQ(s.percentile(0), 1.0);
  EXPECT_DOUBLE_EQ(s.percentile(100), 100.0);
  EXPECT_NEAR(s.median(), 50.5, 1e-9);
  EXPECT_NEAR(s.percentile(90), 90.1, 1e-9);
}

TEST(Stats, SingleSample) {
  Stats s;
  s.add(42.0);
  EXPECT_DOUBLE_EQ(s.median(), 42.0);
  EXPECT_DOUBLE_EQ(s.stddev(), 0.0);
}

TEST(Stats, MergeCombines) {
  Stats a, b;
  a.add(1.0);
  a.add(2.0);
  b.add(3.0);
  a.merge(b);
  EXPECT_EQ(a.count(), 3u);
  EXPECT_DOUBLE_EQ(a.mean(), 2.0);
}

TEST(Stats, EmptyThrowsOnMoments) {
  Stats s;
  EXPECT_TRUE(s.empty());
#ifdef HARP_ASSERT_ABORT
  GTEST_SKIP() << "assertion failures abort in this build";
#else
  EXPECT_THROW(s.mean(), Error);
  EXPECT_THROW(s.percentile(50), Error);
#endif
}

TEST(Types, CellOrderingAndHash) {
  const Cell a{1, 2};
  const Cell b{1, 3};
  EXPECT_LT(a, b);
  std::unordered_set<Cell> set{a, b};
  EXPECT_EQ(set.size(), 2u);
  EXPECT_TRUE(set.contains(Cell{1, 2}));
}

TEST(Types, LinkEqualityAndHash) {
  const Link e1{1, 2};
  const Link e2{2, 1};
  EXPECT_NE(e1, e2);
  std::unordered_set<Link> set{e1, e2};
  EXPECT_EQ(set.size(), 2u);
}

TEST(Types, ToStringFormats) {
  EXPECT_EQ(to_string(Cell{3, 4}), "(3,4)");
  EXPECT_EQ(to_string(Link{1, 0}), "e(1->0)");
  EXPECT_STREQ(to_string(Direction::kUp), "up");
  EXPECT_STREQ(to_string(Direction::kDown), "down");
}

TEST(Error, AssertThrowsWithLocation) {
#ifdef HARP_ASSERT_ABORT
  GTEST_SKIP() << "assertion failures abort in this build";
#else
  try {
    HARP_ASSERT(1 == 2);
    FAIL() << "expected throw";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("1 == 2"), std::string::npos);
  }
#endif
}

TEST(Error, HierarchyIsCatchable) {
  EXPECT_THROW(throw InvalidArgument("x"), Error);
  EXPECT_THROW(throw InfeasibleError("x"), Error);
}

}  // namespace
}  // namespace harp
