#include "util/special.h"

#include <cmath>

#include "gtest/gtest.h"

namespace paws {
namespace {

TEST(LogGammaTest, MatchesFactorials) {
  // Gamma(n) = (n-1)!
  EXPECT_NEAR(LogGamma(1.0), 0.0, 1e-12);
  EXPECT_NEAR(LogGamma(2.0), 0.0, 1e-12);
  EXPECT_NEAR(LogGamma(5.0), std::log(24.0), 1e-10);
  EXPECT_NEAR(LogGamma(11.0), std::log(3628800.0), 1e-8);
}

TEST(LogGammaTest, HalfIntegerValues) {
  // Gamma(1/2) = sqrt(pi).
  EXPECT_NEAR(LogGamma(0.5), 0.5 * std::log(M_PI), 1e-10);
  // Gamma(3/2) = sqrt(pi)/2.
  EXPECT_NEAR(LogGamma(1.5), std::log(std::sqrt(M_PI) / 2.0), 1e-10);
}

TEST(RegularizedGammaTest, BoundaryValues) {
  EXPECT_DOUBLE_EQ(RegularizedGammaP(2.0, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(RegularizedGammaQ(2.0, 0.0), 1.0);
}

TEST(RegularizedGammaTest, PPlusQIsOne) {
  for (double a : {0.5, 1.0, 2.5, 10.0}) {
    for (double x : {0.1, 1.0, 3.0, 20.0}) {
      EXPECT_NEAR(RegularizedGammaP(a, x) + RegularizedGammaQ(a, x), 1.0,
                  1e-12);
    }
  }
}

TEST(RegularizedGammaTest, ExponentialSpecialCase) {
  // P(1, x) = 1 - exp(-x).
  for (double x : {0.2, 1.0, 2.5, 7.0}) {
    EXPECT_NEAR(RegularizedGammaP(1.0, x), 1.0 - std::exp(-x), 1e-12);
  }
}

TEST(ChiSquaredSurvivalTest, MatchesKnownQuantiles) {
  // Standard critical values: chi2(0.05, df=1) = 3.841; df=2: 5.991;
  // df=4: 9.488.
  EXPECT_NEAR(ChiSquaredSurvival(3.841, 1), 0.05, 1e-3);
  EXPECT_NEAR(ChiSquaredSurvival(5.991, 2), 0.05, 1e-3);
  EXPECT_NEAR(ChiSquaredSurvival(9.488, 4), 0.05, 1e-3);
}

TEST(ChiSquaredSurvivalTest, Df2IsClosedForm) {
  // For df = 2 the survival function is exp(-x/2).
  for (double x : {0.5, 2.0, 9.21}) {
    EXPECT_NEAR(ChiSquaredSurvival(x, 2), std::exp(-x / 2.0), 1e-10);
  }
}

TEST(SigmoidTest, SymmetryAndLimits) {
  EXPECT_DOUBLE_EQ(Sigmoid(0.0), 0.5);
  EXPECT_NEAR(Sigmoid(3.0) + Sigmoid(-3.0), 1.0, 1e-12);
  EXPECT_NEAR(Sigmoid(100.0), 1.0, 1e-12);
  EXPECT_NEAR(Sigmoid(-100.0), 0.0, 1e-12);
  // No overflow for extreme inputs.
  EXPECT_TRUE(std::isfinite(Sigmoid(1e6)));
  EXPECT_TRUE(std::isfinite(Sigmoid(-1e6)));
}

TEST(Log1pExpTest, MatchesNaiveInSafeRange) {
  for (double x : {-5.0, -1.0, 0.0, 1.0, 5.0}) {
    EXPECT_NEAR(Log1pExp(x), std::log1p(std::exp(x)), 1e-12);
  }
}

TEST(Log1pExpTest, StableForExtremeInputs) {
  EXPECT_NEAR(Log1pExp(1000.0), 1000.0, 1e-9);
  EXPECT_NEAR(Log1pExp(-1000.0), 0.0, 1e-12);
}

}  // namespace
}  // namespace paws
