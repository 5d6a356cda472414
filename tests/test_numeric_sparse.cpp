#include "numeric/sparse.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <map>
#include <random>
#include <utility>

#include "numeric/dense.hpp"
#include "numeric/resilient.hpp"

namespace mnsim::numeric {
namespace {

TEST(SparseBuilder, AccumulatesDuplicates) {
  SparseBuilder b(2);
  b.add(0, 0, 1.0);
  b.add(0, 0, 2.0);
  CsrMatrix m(b);
  std::vector<double> y;
  m.multiply({1.0, 0.0}, y);
  EXPECT_DOUBLE_EQ(y[0], 3.0);
}

TEST(SparseBuilder, OutOfRangeThrows) {
  SparseBuilder b(2);
  EXPECT_THROW(b.add(2, 0, 1.0), std::out_of_range);
  EXPECT_THROW(b.add(0, 5, 1.0), std::out_of_range);
}

// The COO-sort-compress build must reproduce, bit for bit, what an
// ordered std::map accumulating `entries[{r, c}] += v` from 0.0 gives:
// the same pattern, the same sums in the same insertion order (so signed
// zeros and rounding match), plus the slot each add landed in.
TEST(SparseBuilder, CompressionMatchesMapReferenceBitForBit) {
  std::mt19937 rng(20240613);
  for (int trial = 0; trial < 40; ++trial) {
    const std::size_t n = 1 + static_cast<std::size_t>(rng() % 24);
    // Few distinct (row, col) keys per row for heavy duplication; rows
    // the draw never picks stay empty; some rows are long enough to
    // take the non-insertion column sort.
    const std::size_t adds = static_cast<std::size_t>(rng() % 400);
    std::uniform_real_distribution<double> mag(-3.0, 3.0);
    SparseBuilder builder(n);
    std::map<std::pair<std::size_t, std::size_t>, double> reference;
    std::vector<std::pair<std::size_t, std::size_t>> key_of_add;
    const std::size_t live_rows = 1 + n / 2;
    for (std::size_t k = 0; k < adds; ++k) {
      const std::size_t row = (rng() % live_rows) * 2 % n;
      const std::size_t col =
          trial % 4 == 0 ? rng() % n : (row + rng() % 3) % n;
      double value = mag(rng);
      switch (rng() % 6) {
        case 0: value = -0.0; break;
        case 1: value = 0.0; break;
        case 2: value *= 1e-17; break;  // rounding-sensitive order
        default: break;
      }
      builder.add(row, col, value);
      reference[{row, col}] += value;
      key_of_add.emplace_back(row, col);
    }
    std::vector<std::uint32_t> slot_of_add;
    const CsrMatrix m(builder, &slot_of_add);
    ASSERT_EQ(m.values().size(), reference.size());
    ASSERT_EQ(slot_of_add.size(), adds);

    std::size_t slot = 0;
    std::map<std::pair<std::size_t, std::size_t>, std::size_t> slot_of_key;
    for (const auto& [key, value] : reference) {
      // Map order is row-major, column-sorted: exactly the CSR order.
      ASSERT_GE(slot, m.row_start()[key.first]);
      ASSERT_LT(slot, m.row_start()[key.first + 1]);
      ASSERT_EQ(m.cols()[slot], key.second);
      ASSERT_EQ(std::bit_cast<std::uint64_t>(m.values()[slot]),
                std::bit_cast<std::uint64_t>(value))
          << "trial " << trial << " slot " << slot;
      slot_of_key[key] = slot++;
    }
    for (std::size_t r = 0; r < n; ++r)
      ASSERT_LE(m.row_start()[r], m.row_start()[r + 1]);
    for (std::size_t k = 0; k < adds; ++k)
      ASSERT_EQ(slot_of_add[k], slot_of_key.at(key_of_add[k]));
  }
}

TEST(SparseBuilder, EmptyBuilderGivesEmptyPattern) {
  SparseBuilder b(3);
  std::vector<std::uint32_t> slots{7};
  const CsrMatrix m(b, &slots);
  EXPECT_EQ(m.values().size(), 0u);
  EXPECT_TRUE(slots.empty());
  EXPECT_EQ(m.row_start(), (std::vector<std::size_t>{0, 0, 0, 0}));
}

// add_at_slot takes the recorded slot when it still holds (row, col) and
// otherwise falls back to the column search, so a stale slot never
// misplaces a value.
TEST(CsrMatrix, AddAtSlotVerifiesAndFallsBack) {
  SparseBuilder b(3);
  b.add(0, 0, 1.0);
  b.add(0, 2, 1.0);
  b.add(2, 2, 1.0);
  std::vector<std::uint32_t> slots;
  CsrMatrix m(b, &slots);
  ASSERT_EQ(slots, (std::vector<std::uint32_t>{0, 1, 2}));
  m.zero_values();
  EXPECT_TRUE(m.add_at_slot(1, 0, 2, 4.0));   // recorded slot
  EXPECT_TRUE(m.add_at_slot(1, 2, 2, 5.0));   // slot of another row
  EXPECT_TRUE(m.add_at_slot(0, 0, 2, 0.5));   // right row, wrong column
  EXPECT_TRUE(m.add_at_slot(99, 0, 0, 3.0));  // out of range
  EXPECT_FALSE(m.add_at_slot(0, 1, 0, 1.0));  // not in the pattern
  EXPECT_FALSE(m.add_at_slot(0, 7, 0, 1.0));  // row out of range
  EXPECT_EQ(m.values(), (std::vector<double>{3.0, 4.5, 5.0}));
}

TEST(CsrMatrix, MultiplyMatchesDense) {
  SparseBuilder b(3);
  b.add(0, 0, 2.0);
  b.add(0, 2, -1.0);
  b.add(1, 1, 3.0);
  b.add(2, 0, -1.0);
  b.add(2, 2, 4.0);
  CsrMatrix m(b);
  EXPECT_EQ(m.values().size(), 5u);
  std::vector<double> y;
  m.multiply({1.0, 2.0, 3.0}, y);
  EXPECT_DOUBLE_EQ(y[0], -1.0);
  EXPECT_DOUBLE_EQ(y[1], 6.0);
  EXPECT_DOUBLE_EQ(y[2], 11.0);
}

TEST(CsrMatrix, SizeMismatchThrows) {
  SparseBuilder b(2);
  b.add(0, 0, 1.0);
  CsrMatrix m(b);
  std::vector<double> y;
  EXPECT_THROW(m.multiply({1.0}, y), std::invalid_argument);
}

TEST(ConjugateGradient, SolvesSmallSpd) {
  // A = [[4,1],[1,3]], b = [1,2].
  SparseBuilder b(2);
  b.add(0, 0, 4.0);
  b.add(0, 1, 1.0);
  b.add(1, 0, 1.0);
  b.add(1, 1, 3.0);
  auto r = conjugate_gradient(CsrMatrix(b), {1.0, 2.0});
  ASSERT_TRUE(r.converged);
  EXPECT_NEAR(r.x[0], 1.0 / 11.0, 1e-8);
  EXPECT_NEAR(r.x[1], 7.0 / 11.0, 1e-8);
}

TEST(ConjugateGradient, ZeroRhsGivesZero) {
  SparseBuilder b(3);
  for (int i = 0; i < 3; ++i) b.add(i, i, 1.0);
  auto r = conjugate_gradient(CsrMatrix(b), {0.0, 0.0, 0.0});
  EXPECT_TRUE(r.converged);
  for (double v : r.x) EXPECT_DOUBLE_EQ(v, 0.0);
}

// Property: CG on random SPD (Laplacian-like) systems matches dense LU.
class CgVsLu : public ::testing::TestWithParam<int> {};

TEST_P(CgVsLu, MatchesDenseSolution) {
  const int n = GetParam();
  std::mt19937 rng(99u + n);
  std::uniform_real_distribution<double> dist(0.1, 2.0);

  // Grounded resistor chain with random extra couplings: SPD.
  SparseBuilder sb(n);
  DenseMatrix dm(n, n);
  auto couple = [&](int i, int j, double g) {
    sb.add(i, i, g);
    dm(i, i) += g;
    if (j >= 0) {
      sb.add(j, j, g);
      dm(j, j) += g;
      sb.add(i, j, -g);
      sb.add(j, i, -g);
      dm(i, j) -= g;
      dm(j, i) -= g;
    }
  };
  for (int i = 0; i < n; ++i) couple(i, -1, dist(rng));  // to ground
  for (int i = 0; i + 1 < n; ++i) couple(i, i + 1, dist(rng));
  for (int i = 0; i + 7 < n; i += 5) couple(i, i + 7, dist(rng));

  std::vector<double> b(n);
  for (double& v : b) v = dist(rng) - 1.0;

  auto cg = conjugate_gradient(CsrMatrix(sb), b, 1e-12);
  ASSERT_TRUE(cg.converged);
  auto lu = lu_solve(dm, b);
  for (int i = 0; i < n; ++i) EXPECT_NEAR(cg.x[i], lu[i], 1e-7);
}

INSTANTIATE_TEST_SUITE_P(Sizes, CgVsLu,
                         ::testing::Values(2, 5, 10, 25, 50, 100, 200));

TEST(ConjugateGradient, JacobiDiagonalDefaultsToOne) {
  SparseBuilder b(2);
  b.add(0, 1, 1.0);
  b.add(1, 0, 1.0);
  CsrMatrix m(b);
  auto d = m.jacobi_diagonal();
  EXPECT_DOUBLE_EQ(d[0], 1.0);
  EXPECT_DOUBLE_EQ(d[1], 1.0);
}

TEST(CsrMatrix, JacobiDiagonalReportsDefect) {
  // Regression: the old code substituted 1.0 for a missing/zero diagonal
  // without telling anyone, and CG then burned its full iteration budget
  // on a system it could never solve. Now the substitution is reported.
  SparseBuilder healthy(2);
  healthy.add(0, 0, 4.0);
  healthy.add(1, 1, 3.0);
  bool defect = true;
  (void)CsrMatrix(healthy).jacobi_diagonal(&defect);
  EXPECT_FALSE(defect);

  SparseBuilder hollow(2);  // structurally missing diagonal
  hollow.add(0, 1, 1.0);
  hollow.add(1, 0, 1.0);
  defect = false;
  (void)CsrMatrix(hollow).jacobi_diagonal(&defect);
  EXPECT_TRUE(defect);

  SparseBuilder cancelled(2);  // present but numerically zero
  cancelled.add(0, 0, 1.0);
  cancelled.add(0, 0, -1.0);
  cancelled.add(1, 1, 2.0);
  defect = false;
  (void)CsrMatrix(cancelled).jacobi_diagonal(&defect);
  EXPECT_TRUE(defect);
}

TEST(ConjugateGradient, DiagonalDefectRefusesToIterate) {
  // Hollow matrix: CG must flag the defect up front instead of spinning.
  SparseBuilder b(2);
  b.add(0, 1, 1.0);
  b.add(1, 0, 1.0);
  auto r = conjugate_gradient(CsrMatrix(b), {1.0, 2.0});
  EXPECT_FALSE(r.converged);
  EXPECT_TRUE(r.breakdown);
  EXPECT_TRUE(r.diagonal_defect);
  EXPECT_EQ(r.iterations, 0u);
}

TEST(CsrMatrix, RefillMatchesFreshRebuild) {
  // The MC hot path: keep the pattern, refill the values.
  SparseBuilder first(3);
  first.add(0, 0, 2.0);
  first.add(0, 2, -1.0);
  first.add(2, 0, -1.0);
  first.add(1, 1, 3.0);
  first.add(2, 2, 4.0);
  CsrMatrix m(first);

  // New values on the same pattern, including a duplicate accumulation.
  m.zero_values();
  EXPECT_TRUE(m.add_at(0, 0, 5.0));
  EXPECT_TRUE(m.add_at(0, 0, 0.5));
  EXPECT_TRUE(m.add_at(0, 2, -2.0));
  EXPECT_TRUE(m.add_at(2, 0, -2.0));
  EXPECT_TRUE(m.add_at(1, 1, 7.0));
  EXPECT_TRUE(m.add_at(2, 2, 9.0));

  SparseBuilder second(3);
  second.add(0, 0, 5.5);
  second.add(0, 2, -2.0);
  second.add(2, 0, -2.0);
  second.add(1, 1, 7.0);
  second.add(2, 2, 9.0);
  const auto want = CsrMatrix(second).to_dense_rows();
  const auto got = m.to_dense_rows();
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i)
    EXPECT_DOUBLE_EQ(got[i], want[i]);

  // A slot outside the pattern is refused and leaves the matrix alone.
  EXPECT_FALSE(m.add_at(1, 0, 1.0));
  EXPECT_DOUBLE_EQ(m.to_dense_rows()[1 * 3 + 0], 0.0);
}

TEST(ConjugateGradient, IndefiniteMatrixFlagsBreakdown) {
  // A = diag(1, -1) is symmetric but not positive definite: the first
  // search direction hitting the negative eigenvector gives p'Ap <= 0.
  SparseBuilder b(2);
  b.add(0, 0, 1.0);
  b.add(1, 1, -1.0);
  auto r = conjugate_gradient(CsrMatrix(b), {0.0, 1.0});
  EXPECT_FALSE(r.converged);
  EXPECT_TRUE(r.breakdown);
}

TEST(ConjugateGradient, WarmStartFromSolutionConvergesImmediately) {
  SparseBuilder b(2);
  b.add(0, 0, 4.0);
  b.add(0, 1, 1.0);
  b.add(1, 0, 1.0);
  b.add(1, 1, 3.0);
  const std::vector<double> exact{1.0 / 11.0, 7.0 / 11.0};
  auto r = conjugate_gradient(CsrMatrix(b), {1.0, 2.0}, 1e-10, 0, &exact);
  EXPECT_TRUE(r.converged);
  EXPECT_EQ(r.iterations, 0u);
  EXPECT_NEAR(r.x[0], exact[0], 1e-12);
}

TEST(CsrMatrix, DenseExpansionRoundTrips) {
  SparseBuilder b(3);
  b.add(0, 0, 2.0);
  b.add(1, 2, -1.0);
  b.add(2, 1, 5.0);
  const auto rows = CsrMatrix(b).to_dense_rows();
  ASSERT_EQ(rows.size(), 9u);
  EXPECT_DOUBLE_EQ(rows[0], 2.0);
  EXPECT_DOUBLE_EQ(rows[1 * 3 + 2], -1.0);
  EXPECT_DOUBLE_EQ(rows[2 * 3 + 1], 5.0);
  EXPECT_DOUBLE_EQ(rows[1 * 3 + 1], 0.0);
}

// --- resilient ladder ---------------------------------------------------------

// A grounded resistor chain (SPD) big enough that CG needs more than a
// couple of iterations.
CsrMatrix chain_matrix(int n) {
  SparseBuilder sb(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) sb.add(i, i, 1.0);
  for (int i = 0; i + 1 < n; ++i) {
    sb.add(i, i, 1.0);
    sb.add(i + 1, i + 1, 1.0);
    sb.add(i, i + 1, -1.0);
    sb.add(i + 1, i, -1.0);
  }
  return CsrMatrix(sb);
}

std::vector<double> chain_rhs(int n) {
  std::vector<double> b(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) b[i] = std::sin(0.37 * i) + 0.1;
  return b;
}

TEST(ResilientSolve, CleanSystemUsesPlainCg) {
  const int n = 40;
  ResilientSolveOptions opt;
  auto rep = solve_spd_resilient(chain_matrix(n), chain_rhs(n), opt);
  EXPECT_TRUE(rep.converged);
  EXPECT_EQ(rep.method, SolveMethod::kCg);
  EXPECT_FALSE(rep.degraded());
  EXPECT_LT(rep.relative_residual, 1e-8);
}

TEST(ResilientSolve, StarvedCgEscalatesToRetryThenConverges) {
  const int n = 40;
  ResilientSolveOptions opt;
  // Rung 1 cannot finish in 10 iterations; rung 2's kRetryBudgetFactor
  // times that (80) is plenty for this well-conditioned chain.
  opt.max_iterations = 10;
  auto rep = solve_spd_resilient(chain_matrix(n), chain_rhs(n), opt);
  EXPECT_TRUE(rep.converged);
  EXPECT_EQ(rep.method, SolveMethod::kCgRetry);
  EXPECT_EQ(rep.cg_retries, 1);
  EXPECT_EQ(rep.lu_fallbacks, 0);
  EXPECT_TRUE(rep.degraded());
}

TEST(ResilientSolve, ExhaustedCgFallsBackToDenseDirect) {
  const int n = 40;
  ResilientSolveOptions opt;
  opt.max_iterations = 1;  // retry still starved (kRetryBudgetFactor = 8)
  auto rep = solve_spd_resilient(chain_matrix(n), chain_rhs(n), opt);
  EXPECT_TRUE(rep.converged);
  EXPECT_EQ(rep.cg_retries, 1);
  // The dense rung tries Cholesky first; this chain matrix is SPD, so
  // it never needs the pivoted-LU half of the rung.
  EXPECT_EQ(rep.method, SolveMethod::kDenseCholesky);
  EXPECT_EQ(rep.lu_fallbacks, 1);
  EXPECT_GT(rep.condition_estimate, 0.0);
  EXPECT_LT(rep.relative_residual, 1e-8);

  // The fallback reproduces the well-budgeted CG answer.
  auto ref = solve_spd_resilient(chain_matrix(n), chain_rhs(n),
                                 ResilientSolveOptions{});
  for (int i = 0; i < n; ++i) EXPECT_NEAR(rep.x[i], ref.x[i], 1e-7);
}

TEST(ResilientSolve, FailureIsReportedNotThrown) {
  const int n = 40;
  ResilientSolveOptions opt;
  opt.max_iterations = 2;
  opt.allow_fallback = false;  // neither the retry nor the dense rung
  ResilientSolveReport rep;
  EXPECT_NO_THROW(
      rep = solve_spd_resilient(chain_matrix(n), chain_rhs(n), opt));
  EXPECT_FALSE(rep.converged);
  EXPECT_EQ(rep.method, SolveMethod::kFailed);
  EXPECT_EQ(rep.cg_retries, 0);
  EXPECT_EQ(rep.lu_fallbacks, 0);
  EXPECT_GT(rep.residual_norm, 0.0);  // best-effort iterate, quantified
}

TEST(ResilientSolve, DiagonalDefectRoutesStraightToDenseLu) {
  // Hollow permutation matrix: perfectly solvable by LU, unsolvable by
  // Jacobi-CG. The ladder must skip the CG rungs (no retry burned on a
  // doomed iteration) and land on the dense fallback.
  SparseBuilder b(2);
  b.add(0, 1, 1.0);
  b.add(1, 0, 1.0);
  ResilientSolveOptions opt;
  auto rep = solve_spd_resilient(CsrMatrix(b), {1.0, 2.0}, opt);
  EXPECT_TRUE(rep.converged);
  EXPECT_EQ(rep.method, SolveMethod::kDenseLu);
  ASSERT_FALSE(rep.rung_notes.empty());
  EXPECT_NE(rep.rung_notes[0].find("zero/missing diagonal"), std::string::npos)
      << rep.rung_notes[0];
  EXPECT_EQ(rep.cg_retries, 0);
  EXPECT_EQ(rep.lu_fallbacks, 1);
  EXPECT_NEAR(rep.x[0], 2.0, 1e-12);
  EXPECT_NEAR(rep.x[1], 1.0, 1e-12);
}

TEST(ResilientSolve, DenseFallbackRespectsSizeLimit) {
  // One unknown past the limit: both CG rungs starve, and the system is
  // too large to expand, so the ladder fails with the best iterate.
  const int n = static_cast<int>(kDenseFallbackLimit) + 1;
  ResilientSolveOptions opt;
  opt.max_iterations = 1;
  ResilientSolveReport rep;
  EXPECT_NO_THROW(
      rep = solve_spd_resilient(chain_matrix(n), chain_rhs(n), opt));
  EXPECT_FALSE(rep.converged);
  EXPECT_EQ(rep.method, SolveMethod::kFailed);
  EXPECT_EQ(rep.cg_retries, 1);
  EXPECT_EQ(rep.lu_fallbacks, 0);
}


TEST(ResilientSolve, RungNotesExplainRejectedRungs) {
  // Hollow permutation: CG refuses (diagonal defect), Cholesky rejects
  // (not positive definite), pivoted LU finishes. Each rejected rung
  // must leave its reason in the report instead of vanishing.
  SparseBuilder b(2);
  b.add(0, 1, 1.0);
  b.add(1, 0, 1.0);
  auto rep = solve_spd_resilient(CsrMatrix(b), {1.0, 2.0}, {});
  EXPECT_TRUE(rep.converged);
  EXPECT_EQ(rep.method, SolveMethod::kDenseLu);
  ASSERT_GE(rep.rung_notes.size(), 2u);
  EXPECT_NE(rep.rung_notes[0].find("cg:"), std::string::npos)
      << rep.rung_notes[0];
  bool cholesky_explained = false;
  for (const auto& note : rep.rung_notes)
    if (note.find("cholesky:") != std::string::npos &&
        note.find("positive definite") != std::string::npos)
      cholesky_explained = true;
  EXPECT_TRUE(cholesky_explained);
}

TEST(ResilientSolve, FailedLadderExplainsEveryRung) {
  // Singular matrix, inconsistent rhs: every rung fails. The kFailed
  // report must say why each one did — previously the dense rung's
  // exception messages were swallowed.
  SparseBuilder b(2);
  b.add(0, 0, 1.0);
  b.add(0, 1, 1.0);
  b.add(1, 0, 1.0);
  b.add(1, 1, 1.0);
  ResilientSolveOptions opt;
  opt.max_iterations = 4;
  auto rep = solve_spd_resilient(CsrMatrix(b), {1.0, 2.0}, opt);
  EXPECT_FALSE(rep.converged);
  EXPECT_EQ(rep.method, SolveMethod::kFailed);
  bool lu_explained = false;
  for (const auto& note : rep.rung_notes)
    if (note.find("lu:") != std::string::npos &&
        note.find("singular") != std::string::npos)
      lu_explained = true;
  EXPECT_TRUE(lu_explained) << "notes: " << rep.rung_notes.size();
}
}  // namespace
}  // namespace mnsim::numeric
