#include "solver/simplex.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <ostream>

#include "gtest/gtest.h"
#include "util/rng.h"

namespace paws {
namespace {

TEST(SimplexTest, SolvesTextbookTwoVariableLp) {
  // max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18, x,y >= 0.
  // Optimum: x = 2, y = 6, objective = 36 (classic Dantzig example).
  LinearProgram lp;
  const int x = lp.AddVariable(0.0, kLpInfinity, 3.0);
  const int y = lp.AddVariable(0.0, kLpInfinity, 5.0);
  lp.AddConstraint({{x, 1.0}}, Relation::kLessEqual, 4.0);
  lp.AddConstraint({{y, 2.0}}, Relation::kLessEqual, 12.0);
  lp.AddConstraint({{x, 3.0}, {y, 2.0}}, Relation::kLessEqual, 18.0);

  auto sol = SolveLp(lp);
  ASSERT_TRUE(sol.ok()) << sol.status();
  ASSERT_EQ(sol->status, SolveStatus::kOptimal);
  EXPECT_NEAR(sol->objective, 36.0, 1e-6);
  EXPECT_NEAR(sol->values[x], 2.0, 1e-6);
  EXPECT_NEAR(sol->values[y], 6.0, 1e-6);
}

TEST(SimplexTest, HandlesEqualityConstraints) {
  // max x + 2y s.t. x + y = 10, x - y >= 2. Optimum x = 6, y = 4 -> 14.
  LinearProgram lp;
  const int x = lp.AddVariable(0.0, kLpInfinity, 1.0);
  const int y = lp.AddVariable(0.0, kLpInfinity, 2.0);
  lp.AddConstraint({{x, 1.0}, {y, 1.0}}, Relation::kEqual, 10.0);
  lp.AddConstraint({{x, 1.0}, {y, -1.0}}, Relation::kGreaterEqual, 2.0);

  auto sol = SolveLp(lp);
  ASSERT_TRUE(sol.ok()) << sol.status();
  ASSERT_EQ(sol->status, SolveStatus::kOptimal);
  EXPECT_NEAR(sol->objective, 14.0, 1e-6);
  EXPECT_NEAR(sol->values[x], 6.0, 1e-6);
  EXPECT_NEAR(sol->values[y], 4.0, 1e-6);
}

TEST(SimplexTest, DetectsInfeasibility) {
  LinearProgram lp;
  const int x = lp.AddVariable(0.0, kLpInfinity, 1.0);
  lp.AddConstraint({{x, 1.0}}, Relation::kLessEqual, 1.0);
  lp.AddConstraint({{x, 1.0}}, Relation::kGreaterEqual, 2.0);

  auto sol = SolveLp(lp);
  ASSERT_TRUE(sol.ok()) << sol.status();
  EXPECT_EQ(sol->status, SolveStatus::kInfeasible);
}

TEST(SimplexTest, DetectsUnboundedness) {
  LinearProgram lp;
  const int x = lp.AddVariable(0.0, kLpInfinity, 1.0);
  const int y = lp.AddVariable(0.0, kLpInfinity, 1.0);
  lp.AddConstraint({{x, 1.0}, {y, -1.0}}, Relation::kLessEqual, 1.0);

  auto sol = SolveLp(lp);
  ASSERT_TRUE(sol.ok()) << sol.status();
  EXPECT_EQ(sol->status, SolveStatus::kUnbounded);
}

TEST(SimplexTest, RespectsVariableUpperBounds) {
  // max x + y s.t. x + y <= 10, x <= 3, y <= 4 (as bounds). Optimum 7.
  LinearProgram lp;
  const int x = lp.AddVariable(0.0, 3.0, 1.0);
  const int y = lp.AddVariable(0.0, 4.0, 1.0);
  lp.AddConstraint({{x, 1.0}, {y, 1.0}}, Relation::kLessEqual, 10.0);

  auto sol = SolveLp(lp);
  ASSERT_TRUE(sol.ok()) << sol.status();
  ASSERT_EQ(sol->status, SolveStatus::kOptimal);
  EXPECT_NEAR(sol->objective, 7.0, 1e-6);
}

TEST(SimplexTest, HandlesNegativeLowerBounds) {
  // max -x s.t. x >= -5 (bound). Optimum x = -5.
  LinearProgram lp;
  const int x = lp.AddVariable(-5.0, 5.0, -1.0);
  lp.AddConstraint({{x, 1.0}}, Relation::kLessEqual, 5.0);

  auto sol = SolveLp(lp);
  ASSERT_TRUE(sol.ok()) << sol.status();
  ASSERT_EQ(sol->status, SolveStatus::kOptimal);
  EXPECT_NEAR(sol->values[x], -5.0, 1e-6);
  EXPECT_NEAR(sol->objective, 5.0, 1e-6);
}

TEST(SimplexTest, SolvesDegenerateLpWithoutCycling) {
  // Beale's classic cycling example (cycles under naive Dantzig pivoting).
  // min -0.75x4 + 150x5 - 0.02x6 + 6x7 -> maximize the negation.
  LinearProgram lp;
  const int x4 = lp.AddVariable(0.0, kLpInfinity, 0.75);
  const int x5 = lp.AddVariable(0.0, kLpInfinity, -150.0);
  const int x6 = lp.AddVariable(0.0, kLpInfinity, 0.02);
  const int x7 = lp.AddVariable(0.0, kLpInfinity, -6.0);
  lp.AddConstraint({{x4, 0.25}, {x5, -60.0}, {x6, -1.0 / 25.0}, {x7, 9.0}},
                   Relation::kLessEqual, 0.0);
  lp.AddConstraint({{x4, 0.5}, {x5, -90.0}, {x6, -1.0 / 50.0}, {x7, 3.0}},
                   Relation::kLessEqual, 0.0);
  lp.AddConstraint({{x6, 1.0}}, Relation::kLessEqual, 1.0);

  auto sol = SolveLp(lp);
  ASSERT_TRUE(sol.ok()) << sol.status();
  ASSERT_EQ(sol->status, SolveStatus::kOptimal);
  EXPECT_NEAR(sol->objective, 0.05, 1e-6);
}

// --- Property suite: fractional-knapsack LPs have a closed-form greedy
// optimum, so we can verify the simplex against it exactly. ---

// 12,000 rows of x_i <= 1: the sparse model is tiny, but its dense
// tableau (12,000 x 36,000 doubles, 3.2 GiB) is not, so SolveLp refuses it
// before allocating (SolverAllocAuditTest bounds the bytes).
LinearProgram BoxLp(int n) {
  LinearProgram lp;
  for (int i = 0; i < n; ++i) {
    const int x = lp.AddVariable(0.0, kLpInfinity, 1.0);
    lp.AddConstraint({{x, 1.0}}, Relation::kLessEqual, 1.0);
  }
  return lp;
}

TEST(SimplexTest, RefusesATableauPastTheCapWithResourceExhausted) {
  const StatusOr<LpSolution> refused = SolveLp(BoxLp(12000));
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kResourceExhausted)
      << refused.status();
  // The same shape one size down solves.
  const StatusOr<LpSolution> solved = SolveLp(BoxLp(60));
  ASSERT_TRUE(solved.ok()) << solved.status();
  EXPECT_NEAR(solved->objective, 60.0, 1e-9);
}

struct KnapsackCase {
  uint64_t seed;
  int num_items;
};

// gtest prints a parameter that has no printer as its raw bytes, padding
// included, and ctest names each case after that print.
void PrintTo(const KnapsackCase& c, std::ostream* os) {
  *os << "seed" << c.seed << "_items" << c.num_items;
}

class SimplexKnapsackTest : public ::testing::TestWithParam<KnapsackCase> {};

TEST_P(SimplexKnapsackTest, MatchesGreedyFractionalKnapsack) {
  const KnapsackCase param = GetParam();
  Rng rng(param.seed);
  const int n = param.num_items;
  std::vector<double> value(n), weight(n), cap(n);
  for (int i = 0; i < n; ++i) {
    value[i] = rng.Uniform(0.1, 10.0);
    weight[i] = rng.Uniform(0.5, 3.0);
    cap[i] = rng.Uniform(0.2, 2.0);
  }
  double budget = 0.0;
  for (int i = 0; i < n; ++i) budget += weight[i] * cap[i];
  budget *= 0.4;  // binding budget

  LinearProgram lp;
  std::vector<std::pair<int, double>> terms;
  for (int i = 0; i < n; ++i) {
    const int v = lp.AddVariable(0.0, cap[i], value[i]);
    terms.emplace_back(v, weight[i]);
  }
  lp.AddConstraint(terms, Relation::kLessEqual, budget);

  auto sol = SolveLp(lp);
  ASSERT_TRUE(sol.ok()) << sol.status();
  ASSERT_EQ(sol->status, SolveStatus::kOptimal);

  // Greedy closed form: fill items by value density.
  std::vector<int> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    return value[a] / weight[a] > value[b] / weight[b];
  });
  double remaining = budget, greedy = 0.0;
  for (int i : order) {
    const double take = std::min(cap[i], remaining / weight[i]);
    greedy += take * value[i];
    remaining -= take * weight[i];
    if (remaining <= 1e-12) break;
  }
  EXPECT_NEAR(sol->objective, greedy, 1e-6 * (1.0 + std::fabs(greedy)));
  EXPECT_LE(lp.MaxViolation(sol->values), 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Sweep, SimplexKnapsackTest,
                         ::testing::Values(KnapsackCase{1, 3},
                                           KnapsackCase{2, 8},
                                           KnapsackCase{3, 20},
                                           KnapsackCase{4, 50},
                                           KnapsackCase{5, 100},
                                           KnapsackCase{17, 13},
                                           KnapsackCase{99, 64}),
                         [](const auto& info) {
                           return ::testing::PrintToString(info.param);
                         });

// --- Property suite: random LPs with a feasible point by construction.
// The solver must never report infeasibility, and its solution must be
// feasible and at least as good as the known point. ---

class SimplexRandomLpTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SimplexRandomLpTest, FeasibleAndDominatesKnownPoint) {
  Rng rng(GetParam());
  const int n = 4 + rng.UniformInt(10);
  const int m = 3 + rng.UniformInt(8);

  // Construct a known interior point and make every constraint hold there.
  std::vector<double> x0(n);
  LinearProgram lp;
  for (int j = 0; j < n; ++j) {
    const double lo = rng.Uniform(-2.0, 0.0);
    const double hi = lo + rng.Uniform(0.5, 4.0);
    x0[j] = rng.Uniform(lo, hi);
    lp.AddVariable(lo, hi, rng.Uniform(-1.0, 1.0));
  }
  for (int i = 0; i < m; ++i) {
    std::vector<std::pair<int, double>> terms;
    double lhs = 0.0;
    for (int j = 0; j < n; ++j) {
      if (rng.Uniform() < 0.5) continue;
      const double a = rng.Uniform(-2.0, 2.0);
      terms.emplace_back(j, a);
      lhs += a * x0[j];
    }
    if (terms.empty()) continue;
    if (rng.Uniform() < 0.5) {
      lp.AddConstraint(terms, Relation::kLessEqual, lhs + rng.Uniform(0.0, 2.0));
    } else {
      lp.AddConstraint(terms, Relation::kGreaterEqual,
                       lhs - rng.Uniform(0.0, 2.0));
    }
  }

  auto sol = SolveLp(lp);
  ASSERT_TRUE(sol.ok()) << sol.status();
  ASSERT_EQ(sol->status, SolveStatus::kOptimal);
  EXPECT_LE(lp.MaxViolation(sol->values), 1e-6);
  EXPECT_GE(sol->objective, lp.ObjectiveValue(x0) - 1e-7);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SimplexRandomLpTest,
                         ::testing::Range<uint64_t>(1, 40));

}  // namespace
}  // namespace paws
