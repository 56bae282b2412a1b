#include "solver/lp.h"

#include "gtest/gtest.h"

namespace paws {
namespace {

TEST(LpModelTest, VariableBookkeeping) {
  LinearProgram lp;
  const int x = lp.AddVariable(0.0, 5.0, 2.0);
  const int y = lp.AddVariable(0.0, 1.0, 1.0);
  EXPECT_EQ(lp.num_variables(), 2);
  EXPECT_DOUBLE_EQ(lp.lower(x), 0.0);
  EXPECT_DOUBLE_EQ(lp.upper(x), 5.0);
  EXPECT_DOUBLE_EQ(lp.objective(x), 2.0);
  EXPECT_TRUE(lp.sos2_sets().empty());
  lp.AddSos2({x, y}, {0.5, 2.0});
  ASSERT_EQ(lp.sos2_sets().size(), 1u);
  EXPECT_EQ(lp.sos2_sets()[0].vars, (std::vector<int>{x, y}));
  EXPECT_EQ(lp.sos2_sets()[0].weights, (std::vector<double>{0.5, 2.0}));
  EXPECT_EQ(lp.num_constraints(), 0);
}

TEST(LpModelDeathTest, AddSos2RejectsMisuse) {
  LinearProgram lp;
  const int x = lp.AddVariable(0.0, 1.0, 0.0);
  const int y = lp.AddVariable(0.0, 1.0, 0.0);
  EXPECT_DEATH(lp.AddSos2({x, 2}, {0.0, 1.0}), "unknown variable");
  EXPECT_DEATH(lp.AddSos2({x, -1}, {0.0, 1.0}), "unknown variable");
  EXPECT_DEATH(lp.AddSos2({x, y}, {0.0}), "size mismatch");
  EXPECT_DEATH(lp.AddSos2({x, y}, {1.0, 1.0}), "strictly increasing");
  EXPECT_DEATH(lp.AddSos2({x, y}, {1.0, 0.0}), "strictly increasing");
}

TEST(LpModelTest, DuplicateTermsAreMerged) {
  LinearProgram lp;
  const int x = lp.AddVariable(0.0, 1.0, 0.0);
  lp.AddConstraint({{x, 1.0}, {x, 2.0}}, Relation::kLessEqual, 3.0);
  ASSERT_EQ(lp.num_constraints(), 1);
  ASSERT_EQ(lp.constraint_terms(0).size(), 1u);
  EXPECT_DOUBLE_EQ(lp.constraint_terms(0)[0].second, 3.0);
}

TEST(LpModelTest, ObjectiveValue) {
  LinearProgram lp;
  lp.AddVariable(0.0, 10.0, 2.0);
  lp.AddVariable(0.0, 10.0, -1.0);
  EXPECT_DOUBLE_EQ(lp.ObjectiveValue({3.0, 4.0}), 2.0);
}

TEST(LpModelTest, MaxViolationFeasiblePoint) {
  LinearProgram lp;
  const int x = lp.AddVariable(0.0, 10.0, 1.0);
  lp.AddConstraint({{x, 1.0}}, Relation::kLessEqual, 5.0);
  EXPECT_DOUBLE_EQ(lp.MaxViolation({3.0}), 0.0);
}

TEST(LpModelTest, MaxViolationDetectsEachRelation) {
  LinearProgram lp;
  const int x = lp.AddVariable(0.0, 10.0, 1.0);
  lp.AddConstraint({{x, 1.0}}, Relation::kLessEqual, 5.0);
  EXPECT_NEAR(lp.MaxViolation({7.0}), 2.0, 1e-12);
  LinearProgram lp2;
  const int y = lp2.AddVariable(0.0, 10.0, 1.0);
  lp2.AddConstraint({{y, 1.0}}, Relation::kGreaterEqual, 5.0);
  EXPECT_NEAR(lp2.MaxViolation({3.0}), 2.0, 1e-12);
  LinearProgram lp3;
  const int z = lp3.AddVariable(0.0, 10.0, 1.0);
  lp3.AddConstraint({{z, 1.0}}, Relation::kEqual, 5.0);
  EXPECT_NEAR(lp3.MaxViolation({3.0}), 2.0, 1e-12);
  EXPECT_NEAR(lp3.MaxViolation({8.0}), 3.0, 1e-12);
}

TEST(LpModelTest, MaxViolationDetectsBoundBreaches) {
  LinearProgram lp;
  lp.AddVariable(1.0, 2.0, 0.0);
  EXPECT_NEAR(lp.MaxViolation({0.5}), 0.5, 1e-12);
  EXPECT_NEAR(lp.MaxViolation({2.75}), 0.75, 1e-12);
}

TEST(LpModelTest, SetBoundsForBranchAndBound) {
  LinearProgram lp;
  const int x = lp.AddVariable(0.0, 1.0, 1.0);
  lp.SetBounds(x, 0.0, 0.0);
  EXPECT_DOUBLE_EQ(lp.lower(x), 0.0);
  EXPECT_DOUBLE_EQ(lp.upper(x), 0.0);
  lp.SetBounds(x, 1.0, 1.0);
  EXPECT_DOUBLE_EQ(lp.lower(x), 1.0);
  EXPECT_DOUBLE_EQ(lp.upper(x), 1.0);
}

}  // namespace
}  // namespace paws
