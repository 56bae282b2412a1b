#include "solver/milp.h"

#include <algorithm>
#include <cmath>

#include "gtest/gtest.h"
#include "solver/pwl.h"
#include "util/rng.h"

namespace paws {
namespace {

TEST(MilpTest, ReducesToLpWithoutIntegers) {
  LinearProgram lp;
  const int x = lp.AddVariable(0.0, 4.0, 1.0);
  lp.AddConstraint({{x, 1.0}}, Relation::kLessEqual, 2.5);
  auto sol = SolveMilp(lp);
  ASSERT_TRUE(sol.ok()) << sol.status();
  EXPECT_NEAR(sol->objective, 2.5, 1e-6);
}

TEST(MilpTest, SolvesSmallKnapsack) {
  // Three cells share a 4 km budget. a and b pay off only when fully
  // covered (convex), c has diminishing returns (concave, no SOS2 set).
  // The LP envelope scores (1, 2, 1) at 13 but it is worth 11; the true
  // optimum is a = b = 2, c = 0 at 6 + 7 = 13.
  LinearProgram lp;
  const int a = lp.AddVariable(0.0, 2.0, 0.0);
  const int b = lp.AddVariable(0.0, 2.0, 0.0);
  const int c = lp.AddVariable(0.0, 2.0, 0.0);
  lp.AddConstraint({{a, 1.0}, {b, 1.0}, {c, 1.0}}, Relation::kLessEqual, 4.0);
  AddPwlObjectiveTerm(&lp, a, PiecewiseLinear({0, 1, 2}, {0, 1, 6}), 1.0);
  AddPwlObjectiveTerm(&lp, b, PiecewiseLinear({0, 1, 2}, {0, 2, 7}), 1.0);
  AddPwlObjectiveTerm(&lp, c, PiecewiseLinear({0, 1, 2}, {0, 3, 5}), 1.0);
  EXPECT_EQ(lp.sos2_sets().size(), 2u);
  auto sol = SolveMilp(lp);
  ASSERT_TRUE(sol.ok()) << sol.status();
  ASSERT_EQ(sol->status, SolveStatus::kOptimal);
  EXPECT_NEAR(sol->objective, 13.0, 1e-6);
  EXPECT_NEAR(sol->values[a], 2.0, 1e-6);
  EXPECT_NEAR(sol->values[b], 2.0, 1e-6);
  EXPECT_NEAR(sol->values[c], 0.0, 1e-6);
}

TEST(MilpTest, Sos2ChangesOptimum) {
  // Members weighted 10, 20, 30 with their weighted sum pinned at 20: the
  // LP mixes the outer two for 1.0, the set forces the middle one (0.5).
  LinearProgram lp;
  const int l0 = lp.AddVariable(0.0, 1.0, 1.0);
  const int l1 = lp.AddVariable(0.0, 1.0, 0.5);
  const int l2 = lp.AddVariable(0.0, 1.0, 1.0);
  lp.AddConstraint({{l0, 1.0}, {l1, 1.0}, {l2, 1.0}}, Relation::kEqual, 1.0);
  lp.AddConstraint({{l0, 10.0}, {l1, 20.0}, {l2, 30.0}}, Relation::kEqual,
                   20.0);
  auto relaxed = SolveMilp(lp);
  ASSERT_TRUE(relaxed.ok()) << relaxed.status();
  EXPECT_NEAR(relaxed->objective, 1.0, 1e-6);

  lp.AddSos2({l0, l1, l2}, {10.0, 20.0, 30.0});
  auto sol = SolveMilp(lp);
  ASSERT_TRUE(sol.ok()) << sol.status();
  ASSERT_EQ(sol->status, SolveStatus::kOptimal);
  EXPECT_NEAR(sol->objective, 0.5, 1e-6);
  EXPECT_NEAR(sol->values[l1], 1.0, 1e-6);
}

TEST(MilpTest, Sos2InfeasibleWhenForcedApart) {
  // Members 0 and 2 of one set must both reach 0.3: no adjacent pair can
  // carry them, whether rows or lower bounds do the forcing.
  for (const bool by_bounds : {false, true}) {
    LinearProgram lp;
    const double lo = by_bounds ? 0.3 : 0.0;
    const int l0 = lp.AddVariable(lo, 1.0, 1.0);
    const int l1 = lp.AddVariable(0.0, 1.0, 1.0);
    const int l2 = lp.AddVariable(lo, 1.0, 1.0);
    lp.AddConstraint({{l0, 1.0}, {l1, 1.0}, {l2, 1.0}}, Relation::kEqual,
                     1.0);
    if (!by_bounds) {
      lp.AddConstraint({{l0, 1.0}}, Relation::kGreaterEqual, 0.3);
      lp.AddConstraint({{l2, 1.0}}, Relation::kGreaterEqual, 0.3);
    }
    lp.AddSos2({l0, l1, l2}, {0.0, 1.0, 2.0});
    auto sol = SolveMilp(lp);
    ASSERT_TRUE(sol.ok()) << sol.status();
    EXPECT_EQ(sol->status, SolveStatus::kInfeasible)
        << (by_bounds ? "bounds" : "rows");
  }
}

TEST(MilpTest, EqualityConstrainedAssignment) {
  // Exactly 3 km split between two cells. f pays off only at full
  // coverage; g is concave. The envelope of f would send 2 km to f
  // (envelope 4, true 2.4); the true optimum puts all 3 km on f.
  LinearProgram lp;
  const int x = lp.AddVariable(0.0, 3.0, 0.0);
  const int y = lp.AddVariable(0.0, 3.0, 0.0);
  lp.AddConstraint({{x, 1.0}, {y, 1.0}}, Relation::kEqual, 3.0);
  AddPwlObjectiveTerm(&lp, x, PiecewiseLinear({0, 1, 2, 3}, {0, 0.2, 0.4, 3}),
                      1.0);
  AddPwlObjectiveTerm(&lp, y, PiecewiseLinear({0, 1, 2, 3}, {0, 2, 2.1, 2.2}),
                      1.0);
  auto sol = SolveMilp(lp);
  ASSERT_TRUE(sol.ok()) << sol.status();
  ASSERT_EQ(sol->status, SolveStatus::kOptimal);
  EXPECT_NEAR(sol->objective, 3.0, 1e-6);
  EXPECT_NEAR(sol->values[x], 3.0, 1e-6);
  EXPECT_NEAR(sol->values[y], 0.0, 1e-6);
}

// PWL terms on breakpoints {0, 1, 2, 3}, one per row of `y`, sharing one
// budget row: the coverage variables, their utilities and the model.
struct Sos2Knapsack {
  LinearProgram lp;
  std::vector<int> vars;
  std::vector<PiecewiseLinear> utility;
};

Sos2Knapsack MakeSos2Knapsack(const std::vector<std::vector<double>>& y,
                              double budget) {
  Sos2Knapsack k;
  std::vector<std::pair<int, double>> row;
  for (const std::vector<double>& yi : y) {
    k.vars.push_back(k.lp.AddVariable(0.0, 3.0, 0.0));
    row.emplace_back(k.vars.back(), 1.0);
    k.utility.emplace_back(std::vector<double>{0, 1, 2, 3}, yi);
    AddPwlObjectiveTerm(&k.lp, k.vars.back(), k.utility.back(), 1.0);
  }
  k.lp.AddConstraint(row, Relation::kLessEqual, budget);
  return k;
}

// Random utilities, f(0) = 0: most are not concave.
std::vector<std::vector<double>> RandomUtilities(Rng* rng, int num_terms) {
  std::vector<std::vector<double>> y(num_terms, {0.0});
  for (auto& yi : y) {
    for (int p = 1; p <= 3; ++p) yi.push_back(rng->Uniform(0.0, 4.0));
  }
  return y;
}

// sum_i f_i(x_i) at a solution: equals the objective only when every SOS2
// set holds, since the envelope is what a violated set scores.
double TrueValue(const Sos2Knapsack& k, const std::vector<double>& x) {
  double total = 0.0;
  for (size_t i = 0; i < k.vars.size(); ++i) {
    total += k.utility[i].Eval(x[k.vars[i]]);
  }
  return total;
}

// Property suite: the SOS2 knapsack checked exactly by enumeration. A
// maximum has at most one variable strictly inside a segment (one budget
// row), so trying every breakpoint assignment, with each variable in turn
// free to take the remaining budget, finds it.
class MilpKnapsackTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MilpKnapsackTest, MatchesBruteForce) {
  Rng rng(GetParam());
  const int n = 3 + rng.UniformInt(4);  // 3..6 terms
  const double budget = rng.Uniform(1.0, 3.0 * n - 1.0);
  const Sos2Knapsack k = MakeSos2Knapsack(RandomUtilities(&rng, n), budget);
  auto sol = SolveMilp(k.lp);
  ASSERT_TRUE(sol.ok()) << sol.status();
  ASSERT_EQ(sol->status, SolveStatus::kOptimal);

  double best = 0.0;
  int combos = 1;
  for (int i = 0; i < n; ++i) combos *= 4;
  for (int code = 0; code < combos; ++code) {
    std::vector<int> at(n);
    double used = 0.0, value = 0.0;
    for (int i = 0, c = code; i < n; ++i, c /= 4) {
      at[i] = c % 4;
      used += at[i];
      value += k.utility[i].Eval(at[i]);
    }
    if (used <= budget) best = std::max(best, value);
    for (int free = 0; free < n; ++free) {
      const double rest = budget - (used - at[free]);
      if (rest < 0.0) continue;
      best = std::max(best, value - k.utility[free].Eval(at[free]) +
                                k.utility[free].Eval(std::min(3.0, rest)));
    }
  }
  EXPECT_NEAR(sol->objective, best, 1e-6);
  EXPECT_LE(k.lp.MaxViolation(sol->values), 1e-6);
  EXPECT_NEAR(TrueValue(k, sol->values), sol->objective, 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MilpKnapsackTest,
                         ::testing::Range<uint64_t>(1, 25));

TEST(MilpTest, NodeLimitReturnsIncumbentWithGap) {
  // 25 non-concave terms, big enough to need branching, with a 2-node
  // budget.
  Rng rng(99);
  const Sos2Knapsack k = MakeSos2Knapsack(RandomUtilities(&rng, 25), 30.0);
  MilpOptions options;
  options.max_nodes = 2;
  auto sol = SolveMilp(k.lp, options);
  ASSERT_TRUE(sol.ok()) << sol.status();
  // Either proven optimal fast (segment rounding) or limited with a gap.
  if (sol->status == SolveStatus::kFeasibleLimit) {
    EXPECT_GE(sol->gap, 0.0);
  } else {
    EXPECT_EQ(sol->status, SolveStatus::kOptimal);
  }
  EXPECT_LE(k.lp.MaxViolation(sol->values), 1e-6);
  EXPECT_NEAR(TrueValue(k, sol->values), sol->objective, 1e-6);
}

TEST(MilpTest, OneNodeStillReturnsAFeasiblePlan) {
  // With only the root allowed, segment rounding alone must supply an
  // incumbent that honours every set. Convex utilities make the root mix
  // breakpoints 0 and 3 of the one cell that gets the leftover 2.5 km.
  std::vector<std::vector<double>> y;
  for (int i = 0; i < 12; ++i) {
    const double s = 1.0 + 0.1 * i;
    y.push_back({0.0, s / 3.0, 4.0 * s / 3.0, 3.0 * s});
  }
  const Sos2Knapsack k = MakeSos2Knapsack(y, 14.5);
  MilpOptions options;
  options.max_nodes = 1;
  auto sol = SolveMilp(k.lp, options);
  ASSERT_TRUE(sol.ok()) << sol.status();
  EXPECT_EQ(sol->status, SolveStatus::kFeasibleLimit);
  EXPECT_EQ(sol->nodes_explored, 1);
  EXPECT_GT(sol->gap, 0.0);
  EXPECT_LE(k.lp.MaxViolation(sol->values), 1e-6);
  EXPECT_NEAR(TrueValue(k, sol->values), sol->objective, 1e-6);
}

}  // namespace
}  // namespace paws
