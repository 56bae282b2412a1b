#include "util/matrix.h"

#include <cmath>

#include "gtest/gtest.h"
#include "util/rng.h"

namespace paws {
namespace {

TEST(MatrixTest, IdentityAndIndexing) {
  const Matrix id = Matrix::Identity(3);
  for (int i = 0; i < 3; ++i) {
    for (int j = 0; j < 3; ++j) {
      EXPECT_DOUBLE_EQ(id(i, j), i == j ? 1.0 : 0.0);
    }
  }
}

TEST(MatrixTest, MultiplyMatchesHandComputation) {
  Matrix a(2, 3);
  a(0, 0) = 1;
  a(0, 1) = 2;
  a(0, 2) = 3;
  a(1, 0) = 4;
  a(1, 1) = 5;
  a(1, 2) = 6;
  Matrix b(3, 2);
  b(0, 0) = 7;
  b(0, 1) = 8;
  b(1, 0) = 9;
  b(1, 1) = 10;
  b(2, 0) = 11;
  b(2, 1) = 12;
  const Matrix c = a.Multiply(b);
  EXPECT_DOUBLE_EQ(c(0, 0), 58.0);
  EXPECT_DOUBLE_EQ(c(0, 1), 64.0);
  EXPECT_DOUBLE_EQ(c(1, 0), 139.0);
  EXPECT_DOUBLE_EQ(c(1, 1), 154.0);
}

TEST(MatrixTest, TransposeRoundTrip) {
  Rng rng(3);
  Matrix m(4, 7);
  for (int i = 0; i < 4; ++i) {
    for (int j = 0; j < 7; ++j) m(i, j) = rng.Normal();
  }
  const Matrix tt = m.Transpose().Transpose();
  for (int i = 0; i < 4; ++i) {
    for (int j = 0; j < 7; ++j) EXPECT_DOUBLE_EQ(tt(i, j), m(i, j));
  }
}

TEST(CholeskyTest, FactorsKnownMatrix) {
  // A = [[4, 2], [2, 3]] -> L = [[2, 0], [1, sqrt(2)]].
  Matrix a(2, 2);
  a(0, 0) = 4;
  a(0, 1) = 2;
  a(1, 0) = 2;
  a(1, 1) = 3;
  auto l = CholeskyFactor(a);
  ASSERT_TRUE(l.ok());
  EXPECT_NEAR((*l)(0, 0), 2.0, 1e-12);
  EXPECT_NEAR((*l)(1, 0), 1.0, 1e-12);
  EXPECT_NEAR((*l)(1, 1), std::sqrt(2.0), 1e-12);
  EXPECT_NEAR((*l)(0, 1), 0.0, 1e-12);
}

TEST(CholeskyTest, RejectsIndefiniteMatrix) {
  Matrix a(2, 2);
  a(0, 0) = 1;
  a(0, 1) = 2;
  a(1, 0) = 2;
  a(1, 1) = 1;  // eigenvalues 3, -1
  EXPECT_FALSE(CholeskyFactor(a).ok());
}

TEST(CholeskyTest, RejectsNonSquare) {
  EXPECT_FALSE(CholeskyFactor(Matrix(2, 3)).ok());
}

TEST(CholeskyTest, SolveRecoversRandomSystem) {
  Rng rng(11);
  const int n = 20;
  // Build SPD A = B B^T + n I.
  Matrix b(n, n);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) b(i, j) = rng.Normal();
  }
  Matrix a = b.Multiply(b.Transpose());
  for (int i = 0; i < n; ++i) a(i, i) += n;
  std::vector<double> x_true(n);
  for (int i = 0; i < n; ++i) x_true[i] = rng.Normal();
  const std::vector<double> rhs = a.MultiplyVector(x_true);
  auto l = CholeskyFactor(a);
  ASSERT_TRUE(l.ok());
  const std::vector<double> x = CholeskySolve(*l, rhs);
  for (int i = 0; i < n; ++i) EXPECT_NEAR(x[i], x_true[i], 1e-8);
}

TEST(DotTest, Basic) {
  EXPECT_DOUBLE_EQ(Dot({1, 2, 3}, {4, 5, 6}), 32.0);
  EXPECT_DOUBLE_EQ(Dot({}, {}), 0.0);
}

}  // namespace
}  // namespace paws
