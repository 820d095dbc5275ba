#include "core/perm_table.h"

#include <gtest/gtest.h>

#include <cmath>
#include <numeric>

#include "core/perm_codec.h"
#include "util/rng.h"

namespace distperm {
namespace core {
namespace {

std::vector<Permutation> RandomPerms(size_t n, size_t k, uint64_t seed,
                                     size_t distinct_pool) {
  util::Rng rng(seed);
  // Draw from a limited pool so the table actually compresses.
  std::vector<Permutation> pool;
  for (size_t i = 0; i < distinct_pool; ++i) {
    Permutation p(k);
    std::iota(p.begin(), p.end(), 0);
    rng.Shuffle(&p);
    pool.push_back(p);
  }
  std::vector<Permutation> perms;
  for (size_t i = 0; i < n; ++i) {
    perms.push_back(pool[rng.NextBounded(pool.size())]);
  }
  return perms;
}

TEST(PermTable, EmptyTable) {
  PermutationTable table = PermutationTable::Build({});
  EXPECT_EQ(table.size(), 0u);
  EXPECT_EQ(table.distinct(), 0u);
  EXPECT_EQ(table.TotalBits(), 0u);
}

TEST(PermTable, RoundTripsEveryPoint) {
  auto perms = RandomPerms(500, 8, 42, 37);
  PermutationTable table = PermutationTable::Build(perms);
  EXPECT_EQ(table.size(), 500u);
  EXPECT_EQ(table.sites(), 8u);
  EXPECT_LE(table.distinct(), 37u);
  for (size_t i = 0; i < perms.size(); ++i) {
    EXPECT_EQ(table.Get(i), perms[i]) << i;
  }
}

TEST(PermTable, IndexWidthIsCeilLgDistinct) {
  auto perms = RandomPerms(1000, 10, 7, 100);
  PermutationTable table = PermutationTable::Build(perms);
  size_t distinct = table.distinct();
  int expected_bits = 0;
  while ((size_t{1} << expected_bits) < distinct) ++expected_bits;
  EXPECT_EQ(table.index_bits_per_point(), expected_bits);
}

TEST(PermTable, CompressionBeatsRawWhenFewDistinct) {
  auto perms = RandomPerms(10000, 12, 3, 50);
  PermutationTable table = PermutationTable::Build(perms);
  // ceil lg 50 = 6 bits vs ceil lg 12! = 29 bits per point.
  EXPECT_LT(table.TotalBits(), table.RawBits() / 3);
}

TEST(PermTable, NoCompressionGainWhenAllDistinct) {
  // With every permutation unique, the table adds overhead; TotalBits
  // may exceed RawBits.  The structure must still round-trip.
  std::vector<Permutation> perms;
  for (size_t i = 0; i < 64; ++i) {
    perms.push_back(UnrankPermutation(i, 6));  // 64 distinct perms of 6
  }
  PermutationTable table = PermutationTable::Build(perms);
  EXPECT_EQ(table.distinct(), 64u);
  for (size_t i = 0; i < perms.size(); ++i) {
    EXPECT_EQ(table.Get(i), perms[i]);
  }
}

TEST(PermTable, SinglePermutationDatabaseUsesZeroIndexBits) {
  std::vector<Permutation> perms(100, Permutation{0, 1, 2});
  PermutationTable table = PermutationTable::Build(perms);
  EXPECT_EQ(table.distinct(), 1u);
  EXPECT_EQ(table.index_bits_per_point(), 0);
  for (size_t i = 0; i < 100; ++i) {
    EXPECT_EQ(table.Get(i), (Permutation{0, 1, 2}));
  }
}

TEST(PermTable, GetSeeksToEveryIndexOfALargeTable) {
  // 300 distinct permutations -> 9-bit indexes, so entries straddle
  // byte boundaries.  Reading back to front shows Get depends on no
  // earlier read.
  auto perms = RandomPerms(4000, 10, 19, 300);
  PermutationTable table = PermutationTable::Build(perms);
  ASSERT_EQ(table.index_bits_per_point(), util::BitsFor(table.distinct()));
  ASSERT_GT(table.distinct(), 256u);
  for (size_t i = perms.size(); i-- > 0;) {
    ASSERT_EQ(table.Get(i), perms[i]) << i;
  }
}

TEST(Entropy, UniformOverPoolApproachesLgPool) {
  auto perms = RandomPerms(20000, 8, 5, 16);
  double entropy = PermutationEntropyBits(perms);
  EXPECT_GT(entropy, 3.5);
  EXPECT_LE(entropy, 4.0 + 1e-9);  // lg 16 = 4
}

TEST(Entropy, DegenerateDistributionIsZero) {
  std::vector<Permutation> perms(50, Permutation{1, 0});
  EXPECT_DOUBLE_EQ(PermutationEntropyBits(perms), 0.0);
}

TEST(Entropy, TwoEqualClassesGiveOneBit) {
  std::vector<Permutation> perms;
  for (int i = 0; i < 32; ++i) {
    perms.push_back(i % 2 == 0 ? Permutation{0, 1} : Permutation{1, 0});
  }
  EXPECT_NEAR(PermutationEntropyBits(perms), 1.0, 1e-12);
}

TEST(Entropy, BoundedByLgDistinct) {
  auto perms = RandomPerms(5000, 9, 11, 200);
  PermutationTable table = PermutationTable::Build(perms);
  double entropy = PermutationEntropyBits(perms);
  EXPECT_LE(entropy,
            std::log2(static_cast<double>(table.distinct())) + 1e-9);
}

}  // namespace
}  // namespace core
}  // namespace distperm
