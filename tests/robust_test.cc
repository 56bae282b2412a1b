#include "plan/robust.h"

#include <cmath>

#include "gtest/gtest.h"
#include "utility_tables.h"

namespace paws {
namespace {

TEST(SquashTest, MapsToUnitInterval) {
  EXPECT_DOUBLE_EQ(SquashUncertainty(0.0, 0.5), 0.0);
  EXPECT_GT(SquashUncertainty(0.1, 0.5), 0.0);
  EXPECT_LE(SquashUncertainty(100.0, 0.5), 1.0);
  EXPECT_NEAR(SquashUncertainty(1000.0, 0.5), 1.0, 1e-6);
}

TEST(SquashTest, MonotoneInVariance) {
  double prev = -1.0;
  for (double v = 0.0; v < 5.0; v += 0.25) {
    const double s = SquashUncertainty(v, 0.5);
    EXPECT_GT(s, prev);
    prev = s;
  }
}

// The utilities a served plan runs on: Eq. 4 applied to every grid point
// of an effort-curve table.
const std::vector<double> kGrid = {0.0, 0.5, 1.0, 1.3, 2.0};

TEST(RobustUtilityTest, BetaZeroRecoversG) {
  const auto g = [](double c) { return 0.5 * c; };
  const auto nu = [](double) { return 3.0; };
  RobustParams params;
  params.beta = 0.0;
  const auto u = MakeRobustUtilityTables(Curves(kGrid, {g}, {nu}), params);
  ASSERT_EQ(u.size(), 1u);
  for (size_t k = 0; k < kGrid.size(); ++k) {
    EXPECT_DOUBLE_EQ(u[0].breakpoints_y()[k], g(kGrid[k]));
  }
}

TEST(RobustUtilityTest, PenalizesUncertainty) {
  const auto g = [](double) { return 0.8; };
  const auto certain = [](double) { return 0.0; };
  const auto uncertain = [](double) { return 2.0; };
  RobustParams params;
  params.beta = 1.0;
  const auto u =
      MakeRobustUtilityTables(Curves(kGrid, {g, g}, {certain, uncertain}),
                              params);
  EXPECT_DOUBLE_EQ(u[0].Eval(1.0), 0.8);
  EXPECT_LT(u[1].Eval(1.0), 0.8);
  EXPECT_GT(u[1].Eval(1.0), 0.0);  // objective stays positive (Sec. VI-C)
}

TEST(RobustUtilityTest, PenaltyGrowsWithBeta) {
  const EffortCurveTable curves = Curves(
      kGrid, {[](double) { return 0.6; }}, {[](double) { return 1.0; }});
  double prev = 1.0;
  for (double beta : {0.0, 0.25, 0.5, 0.75, 1.0}) {
    RobustParams params;
    params.beta = beta;
    const double u = MakeRobustUtilityTables(curves, params)[0].Eval(1.0);
    EXPECT_LT(u, prev + 1e-12);
    prev = u;
  }
}

TEST(RobustUtilityTest, MatchesEq4Formula) {
  const auto g = [](double c) { return 0.3 + 0.1 * c; };
  const auto nu = [](double c) { return 0.5 * c; };
  RobustParams params;
  params.beta = 0.7;
  params.squash_scale = 0.5;
  const auto u = MakeRobustUtilityTables(Curves(kGrid, {g}, {nu}), params);
  for (size_t k = 0; k < kGrid.size(); ++k) {
    const double c = kGrid[k];
    const double expected =
        g(c) - 0.7 * g(c) * SquashUncertainty(nu(c), 0.5);
    EXPECT_NEAR(u[0].breakpoints_y()[k], expected, 1e-12) << "c = " << c;
  }
}

TEST(RobustObjectiveTest, SumsOverCells) {
  const EffortCurveTable curves =
      Curves(kGrid, {[](double) { return 0.5; }, [](double) { return 0.2; }},
             {[](double) { return 0.0; }, [](double) { return 0.0; }});
  RobustParams params;
  params.beta = 1.0;
  EXPECT_NEAR(RobustObjective({1.0, 1.0}, curves, params), 0.7, 1e-12);
}

TEST(RobustObjectiveTest, VectorBuilderMatchesScalar) {
  const EffortCurveTable curves = Curves(
      kGrid, {[](double c) { return 0.1 * c; }}, {[](double c) { return c; }});
  RobustParams params;
  params.beta = 0.9;
  const auto utils = MakeRobustUtilityTables(curves, params);
  ASSERT_EQ(utils.size(), 1u);
  for (double c : kGrid) {
    EXPECT_NEAR(utils[0].Eval(c), RobustObjective({c}, curves, params), 1e-12)
        << "c = " << c;
  }
}

TEST(RobustDeathTest, RejectsBadBeta) {
  RobustParams params;
  params.beta = 1.5;
  const EffortCurveTable curves = Curves(
      kGrid, {[](double) { return 0.0; }}, {[](double) { return 0.0; }});
  EXPECT_DEATH(MakeRobustUtilityTables(curves, params), "beta");
}

}  // namespace
}  // namespace paws
