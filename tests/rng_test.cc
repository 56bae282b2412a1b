#include "util/rng.h"

#include <algorithm>
#include <cmath>

#include "gtest/gtest.h"

namespace paws {
namespace {

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextUint64(), b.NextUint64());
  }
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.NextUint64() == b.NextUint64()) ++same;
  }
  EXPECT_LT(same, 3);
}

TEST(RngTest, UniformStaysInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.Uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(RngTest, UniformMeanIsHalf) {
  Rng rng(11);
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.Uniform();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(RngTest, NormalMomentsMatch) {
  Rng rng(13);
  const int n = 100000;
  double sum = 0.0, ss = 0.0;
  for (int i = 0; i < n; ++i) {
    const double z = rng.Normal();
    sum += z;
    ss += z * z;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(ss / n, 1.0, 0.03);
}

TEST(RngTest, UniformIntCoversRange) {
  Rng rng(17);
  std::vector<int> counts(10, 0);
  for (int i = 0; i < 10000; ++i) ++counts[rng.UniformInt(10)];
  for (int c : counts) EXPECT_GT(c, 800);
}

TEST(RngTest, BernoulliMatchesProbability) {
  Rng rng(19);
  int hits = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) hits += rng.Bernoulli(0.3);
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(RngTest, CategoricalRespectsWeights) {
  Rng rng(29);
  std::vector<double> w = {1.0, 0.0, 3.0};
  std::vector<int> counts(3, 0);
  for (int i = 0; i < 40000; ++i) ++counts[rng.Categorical(w)];
  EXPECT_EQ(counts[1], 0);
  EXPECT_NEAR(static_cast<double>(counts[2]) / counts[0], 3.0, 0.25);
}

TEST(RngTest, PermutationIsAPermutation) {
  Rng rng(31);
  const std::vector<int> p = rng.Permutation(50);
  std::vector<int> sorted = p;
  std::sort(sorted.begin(), sorted.end());
  for (int i = 0; i < 50; ++i) EXPECT_EQ(sorted[i], i);
}

TEST(RngTest, SampleWithoutReplacementIsDistinct) {
  Rng rng(37);
  const std::vector<int> s = rng.SampleWithoutReplacement(100, 30);
  EXPECT_EQ(s.size(), 30u);
  std::vector<int> sorted = s;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(std::unique(sorted.begin(), sorted.end()), sorted.end());
  for (int v : s) {
    EXPECT_GE(v, 0);
    EXPECT_LT(v, 100);
  }
}

TEST(RngTest, ForkProducesIndependentStream) {
  Rng a(41);
  Rng child = a.Fork();
  // The fork and the parent should not produce identical sequences.
  int same = 0;
  for (int i = 0; i < 50; ++i) {
    if (a.NextUint64() == child.NextUint64()) ++same;
  }
  EXPECT_LT(same, 2);
}

}  // namespace
}  // namespace paws
