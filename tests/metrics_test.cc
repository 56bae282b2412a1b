#include "ml/metrics.h"

#include <cmath>

#include "gtest/gtest.h"
#include "util/rng.h"

namespace paws {
namespace {

TEST(AucTest, PerfectRankingIsOne) {
  auto auc = AucRoc({0.1, 0.2, 0.8, 0.9}, {0, 0, 1, 1});
  ASSERT_TRUE(auc.ok());
  EXPECT_DOUBLE_EQ(auc.value(), 1.0);
}

TEST(AucTest, InvertedRankingIsZero) {
  auto auc = AucRoc({0.9, 0.8, 0.2, 0.1}, {0, 0, 1, 1});
  ASSERT_TRUE(auc.ok());
  EXPECT_DOUBLE_EQ(auc.value(), 0.0);
}

TEST(AucTest, ConstantScoresAreChance) {
  auto auc = AucRoc({0.5, 0.5, 0.5, 0.5}, {0, 1, 0, 1});
  ASSERT_TRUE(auc.ok());
  EXPECT_DOUBLE_EQ(auc.value(), 0.5);  // tie correction
}

TEST(AucTest, HandMadeExample) {
  // scores: pos {0.8, 0.4}, neg {0.6, 0.2}. Pairs: (0.8 > 0.6), (0.8 > 0.2),
  // (0.4 < 0.6), (0.4 > 0.2) -> 3/4 correct.
  auto auc = AucRoc({0.8, 0.4, 0.6, 0.2}, {1, 1, 0, 0});
  ASSERT_TRUE(auc.ok());
  EXPECT_DOUBLE_EQ(auc.value(), 0.75);
}

TEST(AucTest, RandomScoresNearHalf) {
  Rng rng(3);
  std::vector<double> scores(4000);
  std::vector<int> labels(4000);
  for (size_t i = 0; i < scores.size(); ++i) {
    scores[i] = rng.Uniform();
    labels[i] = rng.Bernoulli(0.3);
  }
  auto auc = AucRoc(scores, labels);
  ASSERT_TRUE(auc.ok());
  EXPECT_NEAR(auc.value(), 0.5, 0.03);
}

TEST(AucTest, RequiresBothClasses) {
  EXPECT_FALSE(AucRoc({0.1, 0.2}, {1, 1}).ok());
  EXPECT_FALSE(AucRoc({0.1, 0.2}, {0, 0}).ok());
  EXPECT_FALSE(AucRoc({0.1}, {0, 1}).ok());
}

TEST(AucTest, InvariantToMonotoneTransform) {
  Rng rng(9);
  std::vector<double> scores(500);
  std::vector<int> labels(500);
  for (size_t i = 0; i < scores.size(); ++i) {
    scores[i] = rng.Uniform();
    labels[i] = rng.Bernoulli(scores[i]);
  }
  std::vector<double> squashed = scores;
  for (double& s : squashed) s = std::tanh(3.0 * s);
  const double a1 = AucRoc(scores, labels).value();
  const double a2 = AucRoc(squashed, labels).value();
  EXPECT_NEAR(a1, a2, 1e-12);
}

}  // namespace
}  // namespace paws
