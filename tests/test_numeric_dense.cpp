#include "numeric/dense.hpp"

#include <gtest/gtest.h>

#include <random>

namespace mnsim::numeric {
namespace {

TEST(DenseMatrix, Indexing) {
  DenseMatrix m(3, 3);
  EXPECT_DOUBLE_EQ(m(0, 1), 0.0);
  m(1, 2) = 5.0;
  EXPECT_DOUBLE_EQ(m(1, 2), 5.0);
}

TEST(DenseMatrix, Transpose) {
  DenseMatrix m(2, 3);
  m(0, 1) = 7.0;
  m(1, 2) = -2.0;
  auto t = m.transpose();
  EXPECT_EQ(t.rows(), 3u);
  EXPECT_EQ(t.cols(), 2u);
  EXPECT_DOUBLE_EQ(t(1, 0), 7.0);
  EXPECT_DOUBLE_EQ(t(2, 1), -2.0);
}

TEST(DenseMatrix, MatrixVectorMultiply) {
  DenseMatrix m(2, 2);
  m(0, 0) = 1;
  m(0, 1) = 2;
  m(1, 0) = 3;
  m(1, 1) = 4;
  auto y = m * std::vector<double>{1.0, 1.0};
  EXPECT_DOUBLE_EQ(y[0], 3.0);
  EXPECT_DOUBLE_EQ(y[1], 7.0);
}

TEST(DenseMatrix, MatrixMatrixMultiply) {
  DenseMatrix a(2, 3, 1.0);
  DenseMatrix b(3, 2, 2.0);
  auto c = a * b;
  EXPECT_DOUBLE_EQ(c(0, 0), 6.0);
  EXPECT_DOUBLE_EQ(c(1, 1), 6.0);
}

TEST(DenseMatrix, ShapeMismatchThrows) {
  DenseMatrix a(2, 3);
  DenseMatrix b(2, 2);
  EXPECT_THROW(a * b, std::invalid_argument);
  EXPECT_THROW(a * std::vector<double>{1.0}, std::invalid_argument);
}

TEST(LuSolve, SolvesKnownSystem) {
  DenseMatrix a(2, 2);
  a(0, 0) = 2;
  a(0, 1) = 1;
  a(1, 0) = 1;
  a(1, 1) = 3;
  auto x = lu_solve(a, {3.0, 5.0});
  EXPECT_NEAR(x[0], 0.8, 1e-12);
  EXPECT_NEAR(x[1], 1.4, 1e-12);
}

TEST(LuSolve, PivotsWhenLeadingZero) {
  DenseMatrix a(2, 2);
  a(0, 0) = 0;
  a(0, 1) = 1;
  a(1, 0) = 1;
  a(1, 1) = 0;
  auto x = lu_solve(a, {2.0, 3.0});
  EXPECT_NEAR(x[0], 3.0, 1e-12);
  EXPECT_NEAR(x[1], 2.0, 1e-12);
}

TEST(LuSolve, SingularThrows) {
  DenseMatrix a(2, 2, 1.0);
  EXPECT_THROW(lu_solve(a, {1.0, 1.0}), std::runtime_error);
}

class LuRoundTrip : public ::testing::TestWithParam<int> {};

TEST_P(LuRoundTrip, RandomDiagonallyDominantSystems) {
  const int n = GetParam();
  std::mt19937 rng(1234u + n);
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  DenseMatrix a(n, n);
  std::vector<double> x_true(n);
  for (int i = 0; i < n; ++i) {
    double row_sum = 0.0;
    for (int j = 0; j < n; ++j) {
      a(i, j) = dist(rng);
      row_sum += std::abs(a(i, j));
    }
    a(i, i) += row_sum + 1.0;  // ensure non-singularity
    x_true[i] = dist(rng);
  }
  auto b = a * x_true;
  auto x = lu_solve(a, b);
  for (int i = 0; i < n; ++i) EXPECT_NEAR(x[i], x_true[i], 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Sizes, LuRoundTrip,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55));

}  // namespace
}  // namespace mnsim::numeric
