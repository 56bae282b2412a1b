#include "util/stats.h"

#include <cmath>

#include "gtest/gtest.h"
#include "util/rng.h"

namespace paws {
namespace {

TEST(SummarizeTest, BasicMoments) {
  const Summary s = Summarize({1.0, 2.0, 3.0, 4.0});
  EXPECT_EQ(s.count, 4);
  EXPECT_DOUBLE_EQ(s.mean, 2.5);
  EXPECT_NEAR(s.variance, 5.0 / 3.0, 1e-12);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 4.0);
}

TEST(SummarizeTest, EmptyAndSingleton) {
  EXPECT_EQ(Summarize({}).count, 0);
  const Summary s = Summarize({7.0});
  EXPECT_EQ(s.count, 1);
  EXPECT_DOUBLE_EQ(s.mean, 7.0);
  EXPECT_DOUBLE_EQ(s.variance, 0.0);
}

TEST(PearsonTest, PerfectCorrelation) {
  const std::vector<double> x = {1, 2, 3, 4, 5};
  const std::vector<double> y = {2, 4, 6, 8, 10};
  EXPECT_NEAR(PearsonCorrelation(x, y), 1.0, 1e-12);
  std::vector<double> neg = y;
  for (double& v : neg) v = -v;
  EXPECT_NEAR(PearsonCorrelation(x, neg), -1.0, 1e-12);
}

TEST(PearsonTest, IndependentSamplesNearZero) {
  Rng rng(5);
  std::vector<double> x(5000), y(5000);
  for (size_t i = 0; i < x.size(); ++i) {
    x[i] = rng.Normal();
    y[i] = rng.Normal();
  }
  EXPECT_NEAR(PearsonCorrelation(x, y), 0.0, 0.05);
}

TEST(PearsonTest, ConstantSampleReturnsZero) {
  EXPECT_DOUBLE_EQ(PearsonCorrelation({1, 1, 1}, {1, 2, 3}), 0.0);
}

TEST(ChiSquaredTest, ClassicTwoByTwo) {
  // Observed [[10, 20], [30, 40]]: expected [[12, 18], [28, 42]], so
  // chi2 = 4/12 + 4/18 + 4/28 + 4/42 = 0.79365.
  auto result = ChiSquaredIndependence({{10, 20}, {30, 40}});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->degrees_of_freedom, 1);
  EXPECT_NEAR(result->statistic, 0.79365, 1e-4);
  EXPECT_GT(result->p_value, 0.05);  // not significant
}

TEST(ChiSquaredTest, StrongAssociationIsSignificant) {
  auto result = ChiSquaredIndependence({{50, 5}, {5, 50}});
  ASSERT_TRUE(result.ok());
  EXPECT_LT(result->p_value, 1e-6);
}

TEST(ChiSquaredTest, IndependentTableNotSignificant) {
  // Perfectly proportional rows => statistic 0, p = 1.
  auto result = ChiSquaredIndependence({{10, 20}, {20, 40}});
  ASSERT_TRUE(result.ok());
  EXPECT_NEAR(result->statistic, 0.0, 1e-12);
  EXPECT_NEAR(result->p_value, 1.0, 1e-12);
}

TEST(ChiSquaredTest, DropsEmptyRowsAndColumns) {
  auto result = ChiSquaredIndependence({{10, 0, 20}, {0, 0, 0}, {30, 0, 40}});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->degrees_of_freedom, 1);  // reduced to 2x2
}

TEST(ChiSquaredTest, RejectsDegenerateTables) {
  EXPECT_FALSE(ChiSquaredIndependence({}).ok());
  EXPECT_FALSE(ChiSquaredIndependence({{1, 2}}).ok());
  EXPECT_FALSE(ChiSquaredIndependence({{1, 2}, {3}}).ok());
  EXPECT_FALSE(ChiSquaredIndependence({{1, -2}, {3, 4}}).ok());
  // All-zero column reduces below 2x2.
  EXPECT_FALSE(ChiSquaredIndependence({{1, 0}, {2, 0}}).ok());
}

TEST(PercentileTest, ExactOrderStatistics) {
  std::vector<double> v = {5, 1, 3, 2, 4};
  EXPECT_DOUBLE_EQ(Percentile(v, 0), 1.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 100), 5.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 50), 3.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 25), 2.0);
}

TEST(PercentileTest, InterpolatesBetweenPoints) {
  EXPECT_DOUBLE_EQ(Percentile({0.0, 10.0}, 50), 5.0);
  EXPECT_DOUBLE_EQ(Percentile({0.0, 10.0}, 75), 7.5);
}

}  // namespace
}  // namespace paws
