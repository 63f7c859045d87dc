#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "util/rng.h"

namespace hetero {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next_u64(), b.next_u64());
  }
}

TEST(Rng, FillMatchesNextU64) {
  Rng a(77), b(77);
  std::vector<std::uint64_t> bulk(1000);
  a.fill_u64(bulk.data(), bulk.size());
  for (std::uint64_t v : bulk) EXPECT_EQ(v, b.next_u64());
  EXPECT_EQ(a.next_u64(), b.next_u64());  // both streams continue in step
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformRangeRespected) {
  Rng rng(8);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(-3.0, 5.0);
    EXPECT_GE(u, -3.0);
    EXPECT_LT(u, 5.0);
  }
}

TEST(Rng, UniformMeanApproximatesHalf) {
  Rng rng(9);
  double sum = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) sum += rng.uniform();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, UniformIntBounds) {
  Rng rng(10);
  for (int i = 0; i < 5000; ++i) {
    EXPECT_LT(rng.uniform_int(7), 7u);
  }
}

TEST(Rng, UniformIntCoversAllValues) {
  Rng rng(11);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.uniform_int(10));
  EXPECT_EQ(seen.size(), 10u);
}

TEST(Rng, UniformIntOneAlwaysZero) {
  Rng rng(12);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.uniform_int(1), 0u);
}

TEST(Rng, NormalMomentsApproximatelyStandard) {
  Rng rng(13);
  const int n = 50000;
  double sum = 0.0, sq = 0.0;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal();
    sum += x;
    sq += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sq / n, 1.0, 0.05);
}

TEST(Rng, NormalScaleAndShift) {
  Rng rng(14);
  const int n = 20000;
  double sum = 0.0;
  for (int i = 0; i < n; ++i) sum += rng.normal(5.0, 2.0);
  EXPECT_NEAR(sum / n, 5.0, 0.1);
}

TEST(Rng, BernoulliFrequency) {
  Rng rng(15);
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) hits += rng.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(Rng, CategoricalRespectsWeights) {
  Rng rng(16);
  std::vector<double> w = {1.0, 3.0, 0.0, 6.0};
  std::vector<int> counts(4, 0);
  const int n = 20000;
  for (int i = 0; i < n; ++i) ++counts[rng.categorical(w)];
  EXPECT_NEAR(counts[0] / static_cast<double>(n), 0.1, 0.02);
  EXPECT_NEAR(counts[1] / static_cast<double>(n), 0.3, 0.02);
  EXPECT_EQ(counts[2], 0);
  EXPECT_NEAR(counts[3] / static_cast<double>(n), 0.6, 0.02);
}

TEST(Rng, CategoricalAllZeroWeightsIsUniform) {
  Rng rng(17);
  std::vector<double> w = {0.0, 0.0, 0.0};
  std::vector<int> counts(3, 0);
  for (int i = 0; i < 9000; ++i) ++counts[rng.categorical(w)];
  for (int c : counts) EXPECT_NEAR(c / 9000.0, 1.0 / 3.0, 0.03);
}

TEST(Rng, CategoricalNegativeWeightsTreatedAsZero) {
  Rng rng(18);
  std::vector<double> w = {-5.0, 1.0};
  for (int i = 0; i < 200; ++i) EXPECT_EQ(rng.categorical(w), 1u);
}

TEST(Rng, PermutationIsPermutation) {
  Rng rng(19);
  auto p = rng.permutation(50);
  std::sort(p.begin(), p.end());
  for (std::size_t i = 0; i < 50; ++i) EXPECT_EQ(p[i], i);
}

TEST(Rng, PermutationShuffles) {
  Rng rng(20);
  const auto p = rng.permutation(100);
  std::size_t fixed = 0;
  for (std::size_t i = 0; i < p.size(); ++i) fixed += (p[i] == i) ? 1 : 0;
  EXPECT_LT(fixed, 10u);  // expectation is 1 fixed point
}

TEST(Rng, SampleWithoutReplacementDistinct) {
  Rng rng(21);
  const auto s = rng.sample_without_replacement(30, 10);
  EXPECT_EQ(s.size(), 10u);
  std::set<std::size_t> set(s.begin(), s.end());
  EXPECT_EQ(set.size(), 10u);
  for (std::size_t v : s) EXPECT_LT(v, 30u);
}

TEST(Rng, SampleWithoutReplacementFullSet) {
  Rng rng(22);
  auto s = rng.sample_without_replacement(5, 5);
  std::sort(s.begin(), s.end());
  for (std::size_t i = 0; i < 5; ++i) EXPECT_EQ(s[i], i);
}

TEST(Rng, SampleWithoutReplacementUnbiased) {
  Rng rng(23);
  std::vector<int> counts(10, 0);
  for (int trial = 0; trial < 5000; ++trial) {
    for (std::size_t v : rng.sample_without_replacement(10, 3)) ++counts[v];
  }
  for (int c : counts) EXPECT_NEAR(c / 5000.0, 0.3, 0.03);
}

TEST(Rng, ForkProducesIndependentStreams) {
  Rng parent(42);
  Rng a = parent.fork(1);
  Rng b = parent.fork(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, ForkIsDeterministic) {
  Rng p1(42), p2(42);
  Rng a = p1.fork(9), b = p2.fork(9);
  for (int i = 0; i < 32; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, ShuffleKeepsElements) {
  Rng rng(24);
  std::vector<int> v = {1, 2, 3, 4, 5, 6};
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, (std::vector<int>{1, 2, 3, 4, 5, 6}));
}

class RngSeedSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RngSeedSweep, UniformMeanStableAcrossSeeds) {
  Rng rng(GetParam());
  double sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.uniform();
  EXPECT_NEAR(sum / n, 0.5, 0.02);
}

TEST_P(RngSeedSweep, NormalVarianceStableAcrossSeeds) {
  Rng rng(GetParam());
  double sq = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal();
    sq += x * x;
  }
  EXPECT_NEAR(sq / n, 1.0, 0.08);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RngSeedSweep,
                         ::testing::Values(0ull, 1ull, 42ull, 1234567ull,
                                           0xDEADBEEFull));

}  // namespace
}  // namespace hetero
