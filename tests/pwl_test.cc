#include "solver/pwl.h"

#include <cmath>

#include "gtest/gtest.h"
#include "solver/milp.h"

namespace paws {
namespace {

TEST(PwlTest, EvalInterpolatesAndClamps) {
  PiecewiseLinear f({0.0, 1.0, 2.0}, {0.0, 1.0, 0.5});
  EXPECT_DOUBLE_EQ(f.Eval(0.0), 0.0);
  EXPECT_DOUBLE_EQ(f.Eval(0.5), 0.5);
  EXPECT_DOUBLE_EQ(f.Eval(1.0), 1.0);
  EXPECT_DOUBLE_EQ(f.Eval(1.5), 0.75);
  EXPECT_DOUBLE_EQ(f.Eval(-1.0), 0.0);  // clamped
  EXPECT_DOUBLE_EQ(f.Eval(5.0), 0.5);   // clamped
}

TEST(PwlTest, FromFunctionSamplesEvenly) {
  const auto f = PiecewiseLinear::FromFunction(
      [](double x) { return x * x; }, 0.0, 2.0, 4);
  EXPECT_EQ(f.num_segments(), 4);
  EXPECT_DOUBLE_EQ(f.Eval(1.0), 1.0);   // breakpoint: exact
  EXPECT_DOUBLE_EQ(f.Eval(0.25), 0.125);  // interpolated (0 + 0.25)/2
}

TEST(PwlTest, ConcavityDetection) {
  // sqrt is concave; x^2 is convex; a tent is concave; a vee is not.
  const auto sqrt_f = PiecewiseLinear::FromFunction(
      [](double x) { return std::sqrt(x); }, 0.0, 4.0, 8);
  EXPECT_TRUE(sqrt_f.IsConcave());
  const auto square = PiecewiseLinear::FromFunction(
      [](double x) { return x * x; }, 0.0, 4.0, 8);
  EXPECT_FALSE(square.IsConcave());
  EXPECT_TRUE(PiecewiseLinear({0, 1, 2}, {0, 1, 0}).IsConcave());
  EXPECT_FALSE(PiecewiseLinear({0, 1, 2}, {1, 0, 1}).IsConcave());
}

TEST(PwlTest, ApproximationErrorShrinksWithSegments) {
  const auto fn = [](double x) { return 1.0 - std::exp(-x); };
  const auto coarse = PiecewiseLinear::FromFunction(fn, 0.0, 5.0, 3);
  const auto fine = PiecewiseLinear::FromFunction(fn, 0.0, 5.0, 30);
  EXPECT_LT(fine.MaxAbsError(fn), coarse.MaxAbsError(fn));
  EXPECT_LT(fine.MaxAbsError(fn), 0.01);
}

// Optimizing a concave PWL objective needs no SOS2 set and the LP must
// pick the maximizing breakpoint.
TEST(PwlLpTest, ConcaveMaximizationIsExact) {
  LinearProgram lp;
  const int x = lp.AddVariable(0.0, 4.0, 0.0);
  // Tent peaking at x = 3 with value 6.
  PiecewiseLinear tent({0.0, 3.0, 4.0}, {0.0, 6.0, 2.0});
  AddPwlObjectiveTerm(&lp, x, tent, 1.0);
  EXPECT_TRUE(lp.sos2_sets().empty());
  EXPECT_EQ(lp.num_constraints(), 2);  // convexity and link
  auto sol = SolveMilp(lp);
  ASSERT_TRUE(sol.ok()) << sol.status();
  EXPECT_NEAR(sol->objective, 6.0, 1e-6);
  EXPECT_NEAR(sol->values[x], 3.0, 1e-6);
}

// A non-concave function requires an SOS2 set; without it the LP would
// report the (wrong) upper concave envelope.
TEST(PwlLpTest, NonConcaveUsesSos2AndFindsTrueOptimum) {
  LinearProgram lp;
  const int x = lp.AddVariable(0.0, 2.0, 0.0);
  // W-shape: f(0)=1, f(1)=0, f(2)=1.4, constrained to x <= 1.5.
  PiecewiseLinear w({0.0, 1.0, 2.0}, {1.0, 0.0, 1.4});
  AddPwlObjectiveTerm(&lp, x, w, 1.0);
  ASSERT_EQ(lp.sos2_sets().size(), 1u);
  EXPECT_EQ(lp.sos2_sets()[0].vars.size(), 3u);  // one lambda per point
  EXPECT_EQ(lp.sos2_sets()[0].weights, w.breakpoints_x());
  EXPECT_EQ(lp.num_constraints(), 2);  // no adjacency rows
  lp.AddConstraint({{x, 1.0}}, Relation::kLessEqual, 1.5);
  auto sol = SolveMilp(lp);
  ASSERT_TRUE(sol.ok()) << sol.status();
  // True optimum on [0, 1.5]: f(0) = 1 beats f(1.5) = 0.7.
  EXPECT_NEAR(sol->objective, 1.0, 1e-6);
  EXPECT_NEAR(sol->values[x], 0.0, 1e-6);
}

TEST(PwlLpTest, AdjacencyPreventsEnvelopeCheating) {
  // Without SOS2, lambda could mix breakpoints 0 and 2 to fake value 1.2 at
  // x = 1. With adjacency the value at x = 1 is the true f(1) = 0.
  LinearProgram lp;
  const int x = lp.AddVariable(1.0, 1.0, 0.0);  // pinned at 1
  PiecewiseLinear w({0.0, 1.0, 2.0}, {1.0, 0.0, 1.4});
  AddPwlObjectiveTerm(&lp, x, w, 1.0);
  auto sol = SolveMilp(lp);
  ASSERT_TRUE(sol.ok()) << sol.status();
  EXPECT_NEAR(sol->objective, 0.0, 1e-6);
}

TEST(PwlLpTest, MultipleTermsSumCorrectly) {
  LinearProgram lp;
  const int x = lp.AddVariable(0.0, 2.0, 0.0);
  const int y = lp.AddVariable(0.0, 2.0, 0.0);
  lp.AddConstraint({{x, 1.0}, {y, 1.0}}, Relation::kLessEqual, 2.0);
  // Concave saturating rewards; optimal split is x = y = 1 by symmetry
  // (diminishing returns).
  const auto sat = PiecewiseLinear::FromFunction(
      [](double c) { return 1.0 - std::exp(-2.0 * c); }, 0.0, 2.0, 16);
  AddPwlObjectiveTerm(&lp, x, sat, 1.0);
  AddPwlObjectiveTerm(&lp, y, sat, 1.0);
  auto sol = SolveMilp(lp);
  ASSERT_TRUE(sol.ok()) << sol.status();
  EXPECT_NEAR(sol->values[x], 1.0, 0.15);
  EXPECT_NEAR(sol->values[y], 1.0, 0.15);
}

TEST(PwlLpTest, WeightScalesObjective) {
  LinearProgram lp;
  const int x = lp.AddVariable(0.0, 1.0, 0.0);
  PiecewiseLinear line({0.0, 1.0}, {0.0, 1.0});
  AddPwlObjectiveTerm(&lp, x, line, 2.5);
  EXPECT_TRUE(lp.sos2_sets().empty());
  auto sol = SolveMilp(lp);
  ASSERT_TRUE(sol.ok()) << sol.status();
  EXPECT_NEAR(sol->objective, 2.5, 1e-6);
  // A negative weight turns the concave line into a convex term.
  AddPwlObjectiveTerm(&lp, x, line, -1.0);
  EXPECT_EQ(lp.sos2_sets().size(), 1u);
}

TEST(PwlDeathTest, RejectsBadBreakpoints) {
  EXPECT_DEATH(PiecewiseLinear({1.0}, {1.0}), "at least 2");
  EXPECT_DEATH(PiecewiseLinear({1.0, 1.0}, {0.0, 1.0}),
               "strictly increasing");
  EXPECT_DEATH(PiecewiseLinear({0.0, 1.0}, {0.0}), "size mismatch");
}

}  // namespace
}  // namespace paws
