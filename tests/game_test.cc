#include "plan/game.h"

#include <cmath>

#include "gtest/gtest.h"

namespace paws {
namespace {

double Detect(double c) { return 1.0 - std::exp(-0.5 * c); }

TEST(GameTest, DefenderUtilityIsEq3) {
  // U_d = sum_v P(detect | c_v) * P(attack at v).
  const std::vector<double> coverage = {1.0, 2.0};
  const std::vector<double> attack = {0.5, 0.25};
  const double expected = Detect(1.0) * 0.5 + Detect(2.0) * 0.25;
  EXPECT_NEAR(ExpectedDetections(coverage, attack, Detect), expected, 1e-12);
}

TEST(GameTest, ZeroCoverageYieldsZeroUtility) {
  EXPECT_DOUBLE_EQ(ExpectedDetections({0.0, 0.0}, {0.9, 0.9}, Detect), 0.0);
}

TEST(GameTest, UtilityMonotoneInCoverage) {
  const std::vector<double> attack = {0.3, 0.3};
  const double lo = ExpectedDetections({1.0, 1.0}, attack, Detect);
  const double hi = ExpectedDetections({2.0, 2.0}, attack, Detect);
  EXPECT_GT(hi, lo);
}

}  // namespace
}  // namespace paws
