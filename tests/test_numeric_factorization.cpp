// Factor-once dense solvers (numeric/factorization.hpp) and the
// bipartite Schur engine (numeric/schur.hpp): factor-reuse bit-identity,
// the scaled singularity threshold, condition estimates, the Schur rung
// of the resilient ladder, and its fallback on structure violations.
#include "numeric/factorization.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>
#include <random>
#include <stdexcept>

#include "numeric/dense.hpp"
#include "numeric/pcg.hpp"
#include "numeric/resilient.hpp"
#include "numeric/schur.hpp"
#include "numeric/sparse.hpp"
#include "spice/crossbar_netlist.hpp"
#include "spice/export.hpp"
#include "spice/import.hpp"
#include "spice/mna.hpp"
#include "tech/memristor.hpp"
#include "util/cancel.hpp"

namespace mnsim::numeric {
namespace {

DenseMatrix random_spd(std::size_t n, unsigned seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  DenseMatrix m(n, n);
  for (std::size_t r = 0; r < n; ++r)
    for (std::size_t c = 0; c < n; ++c) m(r, c) = dist(rng);
  // A' A + n I is comfortably SPD.
  DenseMatrix spd = m.transpose() * m;
  for (std::size_t i = 0; i < n; ++i) spd(i, i) += static_cast<double>(n);
  return spd;
}

std::vector<double> random_vec(std::size_t n, unsigned seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> dist(-2.0, 2.0);
  std::vector<double> v(n);
  for (double& x : v) x = dist(rng);
  return v;
}

// --- LU / Cholesky factor-once ----------------------------------------------

TEST(LuFactorization, ReusedFactorIsBitIdenticalToLuSolve) {
  const std::size_t n = 17;
  const DenseMatrix a = random_spd(n, 11);
  const LuFactorization lu(a);
  for (unsigned k = 0; k < 5; ++k) {
    const std::vector<double> b = random_vec(n, 100 + k);
    const std::vector<double> via_factor = lu.solve(b);
    const std::vector<double> via_lu_solve = lu_solve(a, b);
    for (std::size_t i = 0; i < n; ++i)
      EXPECT_EQ(via_factor[i], via_lu_solve[i]) << "component " << i;
  }
}

TEST(LuFactorization, SolvesNonSymmetricSystems) {
  DenseMatrix a(2, 2);
  a(0, 0) = 0.0;
  a(0, 1) = 1.0;
  a(1, 0) = 1.0;
  a(1, 1) = 0.0;
  const LuFactorization lu(a);
  const std::vector<double> x = lu.solve({3.0, 4.0});
  EXPECT_NEAR(x[0], 4.0, 1e-12);
  EXPECT_NEAR(x[1], 3.0, 1e-12);
}

TEST(LuFactorization, NearSingularThrowsInsteadOfGarbage) {
  // Rank-1 up to 1e-18: the historical absolute 1e-300 pivot threshold
  // accepted this matrix and returned garbage silently.
  DenseMatrix a(2, 2);
  a(0, 0) = 1.0;
  a(0, 1) = 1.0;
  a(1, 0) = 1.0;
  a(1, 1) = 1.0 + 1e-18;
  EXPECT_THROW(LuFactorization{a}, std::runtime_error);
  EXPECT_THROW(lu_solve(a, {1.0, 2.0}), std::runtime_error);
}

TEST(LuFactorization, TinyButWellConditionedStillSolves) {
  // Uniformly tiny entries are fine — the threshold scales with the
  // matrix's own magnitude, not an absolute floor.
  const std::size_t n = 3;
  DenseMatrix a(n, n);
  for (std::size_t i = 0; i < n; ++i) a(i, i) = 1e-280;
  const LuFactorization lu(a);
  const std::vector<double> x = lu.solve({1e-280, 2e-280, 3e-280});
  EXPECT_NEAR(x[0], 1.0, 1e-9);
  EXPECT_NEAR(x[1], 2.0, 1e-9);
  EXPECT_NEAR(x[2], 3.0, 1e-9);
  EXPECT_NEAR(lu.condition_estimate(), 1.0, 1e-12);
}

TEST(LuFactorization, ConditionEstimateTracksIllConditioning) {
  DenseMatrix a(2, 2);
  a(0, 0) = 1.0;
  a(1, 1) = 1e-8;
  const LuFactorization lu(a);
  EXPECT_NEAR(lu.condition_estimate(), 1e8, 1.0);
}

TEST(CholeskyFactorization, MatchesLuOnSpdSystem) {
  const std::size_t n = 12;
  const DenseMatrix a = random_spd(n, 5);
  const CholeskyFactorization chol(a);
  const LuFactorization lu(a);
  const std::vector<double> b = random_vec(n, 7);
  const std::vector<double> xc = chol.solve(b);
  const std::vector<double> xl = lu.solve(b);
  for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(xc[i], xl[i], 1e-9);
  EXPECT_GE(chol.condition_estimate(), 1.0);
}

TEST(CholeskyFactorization, RejectsIndefiniteMatrix) {
  DenseMatrix a(2, 2);
  a(0, 0) = 1.0;
  a(0, 1) = 2.0;
  a(1, 0) = 2.0;
  a(1, 1) = 1.0;  // eigenvalues 3 and -1
  EXPECT_THROW(CholeskyFactorization{a}, std::runtime_error);
}

// --- rung-2 keep-better bugfix ----------------------------------------------

CgResult make_iterate(std::vector<double> x, double residual) {
  CgResult r;
  r.x = std::move(x);
  r.residual_norm = residual;
  return r;
}

TEST(KeepBetter, WorseRetryDoesNotReplaceBetterIterate) {
  CgResult best = make_iterate({1.0, 2.0}, 1e-3);
  internal::keep_better(best, make_iterate({9.0, 9.0}, 1e-1));
  EXPECT_DOUBLE_EQ(best.residual_norm, 1e-3);
  EXPECT_DOUBLE_EQ(best.x[0], 1.0);
}

TEST(KeepBetter, BetterRetryReplacesIterate) {
  CgResult best = make_iterate({1.0, 2.0}, 1e-3);
  internal::keep_better(best, make_iterate({4.0, 5.0}, 1e-6));
  EXPECT_DOUBLE_EQ(best.residual_norm, 1e-6);
  EXPECT_DOUBLE_EQ(best.x[0], 4.0);
}

TEST(KeepBetter, NonFiniteCandidateNeverWins) {
  CgResult best = make_iterate({1.0, 2.0}, 1e-3);
  internal::keep_better(
      best, make_iterate({std::nan(""), 0.0}, 1e-9));
  EXPECT_DOUBLE_EQ(best.x[0], 1.0);
  internal::keep_better(best,
                        make_iterate({0.0, 0.0}, std::nan("")));
  EXPECT_DOUBLE_EQ(best.x[0], 1.0);
}

TEST(KeepBetter, AnyFiniteCandidateBeatsNonFiniteBest) {
  CgResult best = make_iterate({std::nan(""), 0.0}, 1e-9);
  internal::keep_better(best, make_iterate({3.0, 4.0}, 5.0));
  EXPECT_DOUBLE_EQ(best.x[0], 3.0);
  EXPECT_DOUBLE_EQ(best.residual_norm, 5.0);
}

// --- bipartite Schur solver --------------------------------------------------

// Hand-built bipartite chain system: two eliminated chains and two kept
// chains of 3 nodes each, strong tridiagonal coupling within chains,
// weak one-to-one cross coupling — the crossbar shape in miniature.
struct BipartiteFixture {
  CsrMatrix a;
  BipartitePartition partition;
  std::vector<double> b;
  std::size_t n = 12;
};

BipartiteFixture make_bipartite() {
  BipartiteFixture f;
  // Unknowns 0..5 = eliminated side (chains {0,1,2}, {3,4,5});
  // 6..11 = kept side (chains {6,7,8}, {9,10,11}).
  SparseBuilder sb(f.n);
  const double g_wire = 10.0;   // chain coupling
  const double g_cell = 0.05;   // cross coupling
  const double g_gnd = 1.0;     // keeps every diagonal dominant
  auto chain = [&](std::size_t first) {
    for (std::size_t k = 0; k < 3; ++k) {
      sb.add(first + k, first + k, g_gnd);
      if (k > 0) {
        sb.add(first + k - 1, first + k - 1, g_wire);
        sb.add(first + k, first + k, g_wire);
        sb.add(first + k - 1, first + k, -g_wire);
        sb.add(first + k, first + k - 1, -g_wire);
      }
    }
  };
  chain(0);
  chain(3);
  chain(6);
  chain(9);
  for (std::size_t k = 0; k < 6; ++k) {
    sb.add(k, k, g_cell);
    sb.add(6 + k, 6 + k, g_cell);
    sb.add(k, 6 + k, -g_cell);
    sb.add(6 + k, k, -g_cell);
  }
  f.a = CsrMatrix(sb);
  f.partition.eliminated_chains = {{0, 1, 2}, {3, 4, 5}};
  f.partition.kept_chains = {{6, 7, 8}, {9, 10, 11}};
  for (std::size_t k = 0; k < 6; ++k) f.partition.cells.emplace_back(k, 6 + k);
  f.b = random_vec(f.n, 3);
  return f;
}

// The chain system of `a` on `partition`, fed every CSR entry in row
// order: the sink the MNA assembly fills, given a finished matrix.
ChainSystem chains_of(const CsrMatrix& a, const BipartitePartition& p) {
  ChainSystem system(p, a.size());
  if (system.empty()) return system;
  system.begin();
  const auto& rs = a.row_start();
  for (std::size_t r = 0; r < a.size(); ++r)
    for (std::size_t k = rs[r]; k < rs[r + 1]; ++k)
      system.add(r, a.cols()[k], a.values()[k]);
  (void)system.finish();
  return system;
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

TEST(SchurSolver, MatchesDenseReferenceOnBipartiteSystem) {
  const BipartiteFixture f = make_bipartite();
  const ChainSystem system = chains_of(f.a, f.partition);
  ASSERT_TRUE(system.assembled());
  const SchurFactorization schur = SchurFactorization::build(system);
  ASSERT_TRUE(schur.valid());
  const CgResult sr = schur.solve(system, f.b, 1e-12);
  EXPECT_TRUE(sr.converged);

  const std::vector<double> rows = f.a.to_dense_rows();
  DenseMatrix dense(f.n, f.n);
  for (std::size_t r = 0; r < f.n; ++r)
    for (std::size_t c = 0; c < f.n; ++c) dense(r, c) = rows[r * f.n + c];
  const std::vector<double> ref = lu_solve(std::move(dense), f.b);
  for (std::size_t i = 0; i < f.n; ++i)
    EXPECT_NEAR(sr.x[i], ref[i], 1e-9) << "unknown " << i;
}

// Every slot holds the CSR value of its entry, and the product sums each
// row in the CSR's order: A x agrees bit for bit.
TEST(SchurSolver, ChainSystemHoldsTheCsrValuesBitForBit) {
  const BipartiteFixture f = make_bipartite();
  const ChainSystem system = chains_of(f.a, f.partition);
  ASSERT_TRUE(system.assembled());
  const auto& rs = f.a.row_start();
  for (std::size_t r = 0; r < f.n; ++r)
    for (std::size_t k = rs[r]; k < rs[r + 1]; ++k) {
      const auto v = system.value(r, f.a.cols()[k]);
      ASSERT_TRUE(v.has_value()) << r << "," << f.a.cols()[k];
      EXPECT_EQ(bits(*v), bits(f.a.values()[k]));
    }
  EXPECT_FALSE(system.value(0, 2).has_value());  // same chain, not adjacent
  const std::vector<double> x = random_vec(f.n, 9);
  std::vector<double> want, got;
  f.a.multiply(x, want);
  system.multiply(x, got);
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < f.n; ++i) EXPECT_EQ(bits(got[i]), bits(want[i]));
}

// A snapshot taken mid-assembly resumes to the same sums as a full
// assembly, on the first assembly and on every refill after it.
TEST(SchurSolver, ChainSnapshotResumesToTheFullAssembly) {
  const BipartiteFixture f = make_bipartite();
  struct Add {
    std::size_t row, col;
    double value;
  };
  std::vector<Add> adds;
  const auto& rs = f.a.row_start();
  for (std::size_t r = 0; r < f.n; ++r)
    for (std::size_t k = rs[r]; k < rs[r + 1]; ++k)
      adds.push_back({r, f.a.cols()[k], f.a.values()[k]});
  const std::size_t half = adds.size() / 2;
  std::mt19937 rng(5);
  std::uniform_real_distribution<double> tweak(-0.01, 0.01);

  ChainSystem resumed(f.partition, f.n);
  resumed.begin();
  for (std::size_t k = 0; k < half; ++k)
    resumed.add(adds[k].row, adds[k].col, adds[k].value);
  resumed.save_base();
  for (int pass = 0; pass < 3; ++pass) {
    if (pass > 0) resumed.restore_base();
    std::vector<Add> tail(adds.begin() + static_cast<long>(half), adds.end());
    for (auto& a : tail) a.value += tweak(rng);
    for (const auto& a : tail) resumed.add(a.row, a.col, a.value);
    ASSERT_TRUE(resumed.finish());

    ChainSystem full(f.partition, f.n);
    full.begin();
    for (std::size_t k = 0; k < half; ++k)
      full.add(adds[k].row, adds[k].col, adds[k].value);
    for (const auto& a : tail) full.add(a.row, a.col, a.value);
    ASSERT_TRUE(full.finish());
    for (const auto& a : adds)
      EXPECT_EQ(bits(*resumed.value(a.row, a.col)),
                bits(*full.value(a.row, a.col)));
  }
}

TEST(SchurSolver, RejectsStructureViolations) {
  BipartiteFixture f = make_bipartite();
  // An entry coupling the two eliminated chains breaks the
  // chain-tridiagonal assumption: the sink must refuse, not mis-solve.
  SparseBuilder sb(f.n);
  const auto& rs = f.a.row_start();
  const auto& cols = f.a.cols();
  const auto& vals = f.a.values();
  for (std::size_t r = 0; r < f.n; ++r)
    for (std::size_t k = rs[r]; k < rs[r + 1]; ++k)
      sb.add(r, cols[k], vals[k]);
  sb.add(2, 3, -0.5);
  sb.add(3, 2, -0.5);
  sb.add(2, 2, 0.5);
  sb.add(3, 3, 0.5);
  const CsrMatrix broken(sb);
  const ChainSystem system = chains_of(broken, f.partition);
  EXPECT_TRUE(system.broken());
  EXPECT_FALSE(system.assembled());
  EXPECT_FALSE(SchurFactorization::build(system).valid());

  // A cross coupling that is not one of the partition's cells misses
  // too; after a good assembly it fails the refill without breaking the
  // system.
  ChainSystem assembled = chains_of(f.a, f.partition);
  ASSERT_TRUE(assembled.assembled());
  assembled.begin();
  assembled.add(0, 7, -0.1);
  EXPECT_FALSE(assembled.finish());
  EXPECT_FALSE(assembled.broken());
  EXPECT_FALSE(SchurFactorization::build(assembled).valid());
}

TEST(SchurSolver, PartitionMustCoverEveryUnknownExactlyOnce) {
  const BipartiteFixture f = make_bipartite();
  BipartitePartition missing = f.partition;
  missing.kept_chains[1] = {9, 10};  // 11 uncovered
  EXPECT_TRUE(ChainSystem(missing, f.n).empty());
  EXPECT_FALSE(SchurFactorization::build(chains_of(f.a, missing)).valid());
  BipartitePartition doubled = f.partition;
  doubled.kept_chains[1] = {9, 10, 8};  // 8 covered twice, 11 never
  EXPECT_TRUE(ChainSystem(doubled, f.n).empty());
  EXPECT_FALSE(SchurFactorization::build(chains_of(f.a, doubled)).valid());
}

TEST(ResilientSolve, SchurRungServesPartitionedSystem) {
  const BipartiteFixture f = make_bipartite();
  const ChainSystem system = chains_of(f.a, f.partition);
  const SchurFactorization schur = SchurFactorization::build(system);
  const ResilientSolveOptions opt;
  const ResilientSolveReport rep = solve_schur(system, schur, f.b, opt);
  EXPECT_TRUE(rep.converged);
  EXPECT_EQ(rep.method, SolveMethod::kSchur);
  EXPECT_GT(rep.schur_iterations, 0u);
  EXPECT_EQ(rep.schur_rejects, 0);
  EXPECT_EQ(rep.cg_iterations, 0u);
  EXPECT_LT(rep.relative_residual, 1e-10);

  // A second build of the identical matrix solves bit-identically: a
  // batch's factor-once handle and a per-solve build give one answer,
  // the foundation of the batch engine's guarantee.
  const SchurFactorization again = SchurFactorization::build(system);
  const ResilientSolveReport rep2 = solve_schur(system, again, f.b, opt);
  ASSERT_EQ(rep2.method, SolveMethod::kSchur);
  ASSERT_EQ(rep.x.size(), rep2.x.size());
  for (std::size_t i = 0; i < rep.x.size(); ++i) EXPECT_EQ(rep.x[i], rep2.x[i]);
  EXPECT_EQ(rep.schur_iterations, rep2.schur_iterations);
}

TEST(ResilientSolve, BrokenPartitionFallsBackToCg) {
  const BipartiteFixture f = make_bipartite();
  BipartitePartition wrong = f.partition;
  // Swap two unknowns between chains: coverage is still exact, but the
  // claimed adjacency no longer matches the matrix.
  std::swap(wrong.eliminated_chains[0][1], wrong.eliminated_chains[1][1]);
  const ChainSystem system = chains_of(f.a, wrong);
  ASSERT_TRUE(system.broken());
  const SchurFactorization broken = SchurFactorization::build(system);
  ASSERT_FALSE(broken.valid());
  const ResilientSolveOptions opt;
  ResilientSolveReport rep = solve_schur(system, broken, f.b, opt);
  EXPECT_FALSE(rep.converged);
  EXPECT_EQ(rep.schur_rejects, 1);
  rep = solve_spd_resilient(f.a, f.b, opt, std::move(rep));
  EXPECT_TRUE(rep.converged);
  EXPECT_EQ(rep.method, SolveMethod::kCg);
  EXPECT_EQ(rep.schur_rejects, 1);
  EXPECT_EQ(rep.schur_iterations, 0u);
  EXPECT_LT(rep.relative_residual, 1e-10);
}

TEST(SchurSolver, CancelledTokenStopsTheIteration) {
  // Both users of the PCG kernel unwind on a requested token, each
  // under its own label.
  const BipartiteFixture f = make_bipartite();
  const ChainSystem system = chains_of(f.a, f.partition);
  const SchurFactorization schur = SchurFactorization::build(system);
  ASSERT_TRUE(schur.valid());
  util::CancelToken token;
  token.request();
  util::ScopedCancel scope(&token);
  try {
    (void)schur.solve(system, f.b, 1e-12);
    FAIL() << "expected util::CancelledError";
  } catch (const util::CancelledError& e) {
    EXPECT_EQ(e.where(), "numeric.schur");
  }
  try {
    (void)conjugate_gradient(f.a, f.b);
    FAIL() << "expected util::CancelledError";
  } catch (const util::CancelledError& e) {
    EXPECT_EQ(e.where(), "numeric.cg");
  }
}

TEST(SchurSolver, NonSpdSchurSystemReportsNonConvergence) {
  // [[1, 2], [2, 1]] (eigenvalues 3 and -1): each one-unknown chain
  // factors, but the Schur complement 1 - 2 * 1^-1 * 2 = -3 is negative,
  // so the PCG kernel breaks down on p'Sp <= 0 instead of converging.
  SparseBuilder sb(2);
  sb.add(0, 0, 1.0);
  sb.add(1, 1, 1.0);
  sb.add(0, 1, 2.0);
  sb.add(1, 0, 2.0);
  const CsrMatrix a(sb);
  BipartitePartition partition;
  partition.eliminated_chains = {{0}};
  partition.kept_chains = {{1}};
  partition.cells = {{0, 1}};
  const ChainSystem system = chains_of(a, partition);
  const SchurFactorization schur = SchurFactorization::build(system);
  ASSERT_TRUE(schur.valid());
  const std::vector<double> b{1.0, 0.0};
  const CgResult sr = schur.solve(system, b, 1e-12);
  EXPECT_FALSE(sr.converged);
  EXPECT_TRUE(sr.breakdown);

  // The ladder rejects the rung and still solves the system exactly.
  const ResilientSolveOptions opt;
  ResilientSolveReport rep = solve_schur(system, schur, b, opt);
  EXPECT_FALSE(rep.converged);
  rep = solve_spd_resilient(a, b, opt, std::move(rep));
  EXPECT_EQ(rep.schur_rejects, 1);
  ASSERT_TRUE(rep.converged);
  EXPECT_EQ(rep.method, SolveMethod::kDenseLu);
  EXPECT_NEAR(rep.x[0], -1.0 / 3.0, 1e-12);
  EXPECT_NEAR(rep.x[1], 2.0 / 3.0, 1e-12);
}

// --- lockstep chain kernels ---------------------------------------------------

// The chain-by-chain kernels: the oracle the lockstep ones must match
// bit for bit. (The pivot test is quiet, so a NaN pivot cannot trap.)
bool sequential_factor_chains(const std::vector<std::size_t>& start,
                              const double* diag, const double* off,
                              std::vector<double>& piv,
                              std::vector<double>& lfac) {
  piv.resize(start.back());
  lfac.resize(start.back());
  for (std::size_t k = 0; k + 1 < start.size(); ++k) {
    for (std::size_t l = start[k]; l < start[k + 1]; ++l) {
      if (l > start[k]) {
        lfac[l] = off[l] / piv[l - 1];
        piv[l] = diag[l] - lfac[l] * off[l];
      } else {
        piv[l] = diag[l];
      }
      if (!std::isgreater(piv[l], 0.0)) return false;
    }
  }
  return true;
}

void sequential_chain_solve(const std::vector<std::size_t>& start,
                            const std::vector<double>& piv,
                            const std::vector<double>& lfac,
                            std::vector<double>& v) {
  for (std::size_t k = 0; k + 1 < start.size(); ++k) {
    const std::size_t s = start[k];
    const std::size_t e = start[k + 1];
    for (std::size_t l = s + 1; l < e; ++l) v[l] -= lfac[l] * v[l - 1];
    for (std::size_t l = s; l < e; ++l) v[l] /= piv[l];
    for (std::size_t l = e - 1; l-- > s;) v[l] -= lfac[l + 1] * v[l + 1];
  }
}

std::vector<std::size_t> chain_starts(const std::vector<std::size_t>& lengths) {
  std::vector<std::size_t> start{0};
  for (std::size_t len : lengths) start.push_back(start.back() + len);
  return start;
}

// Diagonally dominant chain values: every pivot is positive.
void random_chains(std::size_t n, unsigned seed, std::vector<double>& diag,
                   std::vector<double>& off) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> d(2.0, 3.0);
  std::uniform_real_distribution<double> o(-1.0, -0.1);
  diag.resize(n);
  off.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    diag[i] = d(rng);
    off[i] = o(rng);
  }
}

TEST(SchurSolver, LockstepChainsMatchSequentialBitForBit) {
  // Chain counts around the group size, a tail after full groups, runs
  // broken by an unequal length, and length-1 chains.
  const std::vector<std::vector<std::size_t>> shapes = {
      {7},
      {5, 5, 5},
      {9, 9, 9, 9},
      {9, 9, 9, 9, 9},
      {6, 6, 6, 6, 6, 6, 6, 6, 6, 6, 6},
      {4, 4, 3, 4, 4, 4, 4, 4, 2},
      {1, 1, 1, 1, 1, 1},
      {1, 8, 1, 8, 8, 8, 8, 1},
      {33, 33, 33, 33, 33, 33, 33, 33, 34, 34}};
  unsigned seed = 40;
  for (const auto& lengths : shapes) {
    const std::vector<std::size_t> start = chain_starts(lengths);
    const std::size_t n = start.back();
    std::vector<double> diag, off;
    random_chains(n, seed++, diag, off);
    std::vector<double> piv, lfac, seq_piv, seq_lfac;
    ASSERT_TRUE(internal::factor_chains(start, diag.data(), off.data(), piv,
                                        lfac));
    ASSERT_TRUE(sequential_factor_chains(start, diag.data(), off.data(),
                                         seq_piv, seq_lfac));
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(bits(piv[i]), bits(seq_piv[i])) << "pivot " << i;
      EXPECT_EQ(bits(lfac[i]), bits(seq_lfac[i])) << "multiplier " << i;
    }
    const std::vector<double> rhs = random_vec(n, seed++);
    std::vector<double> expected = rhs;
    sequential_chain_solve(start, seq_piv, seq_lfac, expected);
    std::vector<double> out(n);
    internal::chain_solve(start, piv, lfac, rhs.data(), out.data());
    std::vector<double> in_place = rhs;
    internal::chain_solve(start, piv, lfac, in_place.data(), in_place.data());
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(bits(out[i]), bits(expected[i])) << "solve " << i;
      EXPECT_EQ(bits(in_place[i]), bits(expected[i])) << "in place " << i;
    }
  }
}

TEST(SchurSolver, LockstepFactorRefusesBadPivotsBeforeDividing) {
  // Two full groups of 5-long chains and a tail of two 3-long ones. A
  // bad entry goes into a non-leading chain of a group or into the tail,
  // at the chain's first position or further in; the factor must refuse
  // it before the next step divides by it (under MNSIM_FPE a division by
  // zero or a compare against NaN would trap).
  const std::vector<std::size_t> start =
      chain_starts({5, 5, 5, 5, 5, 5, 5, 5, 3, 3});
  const std::size_t n = start.back();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  struct Bad {
    std::size_t chain, offset;
    double diag, off;
  };
  const std::vector<Bad> cases = {
      {2, 0, -1.0, 0.0},  // negative first pivot, inside a group
      {5, 3, 0.0, 0.0},   // exactly zero pivot, inside the second group
      {9, 1, 0.0, 0.0},   // zero pivot in the tail
      {1, 2, nan, -0.5},  // NaN diagonal, inside a group
      {8, 0, nan, 0.0},   // NaN diagonal, first position of the tail
      {9, 2, nan, -0.5}}; // NaN diagonal, last position of the tail
  for (const Bad& c : cases) {
    std::vector<double> diag, off;
    random_chains(n, 7, diag, off);
    const std::size_t p = start[c.chain] + c.offset;
    diag[p] = c.diag;
    if (c.offset > 0) off[p] = c.off;
    std::vector<double> piv, lfac;
    EXPECT_FALSE(
        internal::factor_chains(start, diag.data(), off.data(), piv, lfac))
        << "chain " << c.chain << " offset " << c.offset;
    if (!std::isnan(c.diag)) {
      EXPECT_FALSE(sequential_factor_chains(start, diag.data(), off.data(),
                                            piv, lfac));
    }
  }

  // The same through the chain system: eliminated side as above, kept
  // side one group of 4-long chains and a tail chain, one cell per kept
  // unknown. The bad diagonal outweighs what the couplings add to it.
  const std::size_t nb = n;
  const std::size_t nc = 20;
  BipartitePartition partition;
  for (std::size_t k = 0; k + 1 < start.size(); ++k) {
    partition.eliminated_chains.emplace_back();
    for (std::size_t i = start[k]; i < start[k + 1]; ++i)
      partition.eliminated_chains.back().push_back(i);
  }
  for (std::size_t k = 0; k < nc / 4; ++k)
    partition.kept_chains.push_back(
        {nb + 4 * k, nb + 4 * k + 1, nb + 4 * k + 2, nb + 4 * k + 3});
  for (std::size_t c = 0; c < nc; ++c) partition.cells.emplace_back(c, nb + c);
  const std::vector<std::size_t> bad_unknowns = {
      start[2], start[5] + 3, start[8], start[9] + 2,  // eliminated side
      nb + 4 + 1, nb + 8, nb + 16, nb + 19};           // kept side
  for (double bad_value : {-10.0, nan}) {
    for (std::size_t bad : bad_unknowns) {
      ChainSystem system(partition, nb + nc);
      ASSERT_FALSE(system.empty());
      system.begin();
      for (const auto* side :
           {&partition.eliminated_chains, &partition.kept_chains})
        for (const auto& chain : *side)
          for (std::size_t i = 0; i < chain.size(); ++i) {
            system.add(chain[i], chain[i], chain[i] == bad ? bad_value : 3.0);
            if (i > 0) system.couple(chain[i - 1], chain[i], 0.5);
          }
      for (std::size_t k = 0; k < nc; ++k) system.couple(k, nb + k, 0.01);
      ASSERT_TRUE(system.finish());
      EXPECT_FALSE(SchurFactorization::build(system).valid())
          << "unknown " << bad << " diagonal " << bad_value;
    }
  }
}

// --- fused PCG reductions and the one-pass residual ---------------------------

// The PCG loop with r'r and r'z summed in separate passes: the oracle.
template <typename MatVec, typename Precondition>
CgResult two_pass_cg(const MatVec& apply, const Precondition& precondition,
                     const std::vector<double>& b, std::vector<double> x0,
                     double stop, std::size_t max_iterations) {
  const std::size_t n = b.size();
  CgResult result;
  result.x = std::move(x0);
  std::vector<double> r(n);
  if (!result.x.empty()) {
    apply(result.x, r);
    for (std::size_t i = 0; i < n; ++i) r[i] = b[i] - r[i];
  } else {
    result.x.assign(n, 0.0);
    r = b;
  }
  std::vector<double> z(n), ap(n);
  precondition(r, z);
  std::vector<double> p = z;
  double rz = dot(r, z);
  for (std::size_t it = 0; it < max_iterations; ++it) {
    result.residual_norm = std::sqrt(dot(r, r));
    if (result.residual_norm <= stop) {
      result.converged = true;
      result.iterations = it;
      return result;
    }
    apply(p, ap);
    const double pap = dot(p, ap);
    if (pap <= 0.0) {
      result.breakdown = true;
      break;
    }
    const double alpha = rz / pap;
    for (std::size_t i = 0; i < n; ++i) {
      result.x[i] += alpha * p[i];
      r[i] -= alpha * ap[i];
    }
    precondition(r, z);
    const double rz_next = dot(r, z);
    const double beta = rz_next / rz;
    rz = rz_next;
    for (std::size_t i = 0; i < n; ++i) p[i] = z[i] + beta * p[i];
    result.iterations = it + 1;
  }
  result.residual_norm = std::sqrt(dot(r, r));
  result.converged = result.residual_norm <= stop;
  return result;
}

void expect_same_iterate(const CgResult& a, const CgResult& b) {
  ASSERT_EQ(a.x.size(), b.x.size());
  for (std::size_t i = 0; i < a.x.size(); ++i)
    EXPECT_EQ(bits(a.x[i]), bits(b.x[i])) << "x[" << i << "]";
  EXPECT_EQ(bits(a.residual_norm), bits(b.residual_norm));
  EXPECT_EQ(a.iterations, b.iterations);
  EXPECT_EQ(a.converged, b.converged);
  EXPECT_EQ(a.breakdown, b.breakdown);
}

// A seeded sparse SPD matrix: random symmetric couplings on a band, the
// diagonal lifted past the row sums by a seeded margin.
CsrMatrix random_sparse_spd(std::size_t n, unsigned seed, double sign = 1.0) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> g(0.01, 1.0);
  std::vector<double> row_sum(n, 0.0);
  SparseBuilder sb(n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t k : {std::size_t{1}, std::size_t{7}}) {
      if (i + k >= n) continue;
      const double v = g(rng);
      sb.add(i, i + k, -sign * v);
      sb.add(i + k, i, -sign * v);
      row_sum[i] += v;
      row_sum[i + k] += v;
    }
  for (std::size_t i = 0; i < n; ++i)
    sb.add(i, i, sign * (row_sum[i] + 0.01 * g(rng)));
  return CsrMatrix(sb);
}

TEST(PcgKernel, FusedReductionsMatchTwoPassLoopBitForBit) {
  // Jacobi CG on seeded SPD systems, cold and warm, converging and cut
  // off by the iteration cap.
  for (unsigned seed = 1; seed <= 6; ++seed) {
    const std::size_t n = 40 + 17 * seed;
    const CsrMatrix a = random_sparse_spd(n, seed);
    const std::vector<double> b = random_vec(n, 100 + seed);
    const std::vector<double> diag = a.jacobi_diagonal(nullptr);
    const auto apply = [&a](const std::vector<double>& v,
                            std::vector<double>& av) { a.multiply(v, av); };
    const auto jacobi = [&diag](const std::vector<double>& r,
                                std::vector<double>& z) {
      for (std::size_t i = 0; i < r.size(); ++i) z[i] = r[i] / diag[i];
    };
    const double stop = 1e-12 * std::sqrt(dot(b, b));
    for (std::size_t cap : {std::size_t{3}, std::size_t{12},
                            default_cg_iterations(n)}) {
      for (bool warm : {false, true}) {
        const std::vector<double> x0 =
            warm ? random_vec(n, 200 + seed) : std::vector<double>();
        const CgResult fused =
            preconditioned_cg(apply, jacobi, b, x0, stop, cap, "test");
        expect_same_iterate(fused, two_pass_cg(apply, jacobi, b, x0, stop,
                                               cap));
        if (cap < 12) {
          EXPECT_FALSE(fused.converged);
        }
        if (!warm && cap == default_cg_iterations(n)) {
          // conjugate_gradient is this kernel with the Jacobi pair.
          expect_same_iterate(conjugate_gradient(a, b, 1e-12, cap), fused);
        }
      }
    }
  }

  // The Schur rung's pair: a chain-preconditioned operator (kept-side
  // chains factored by the lockstep kernel, weak cross terms added).
  for (unsigned seed = 1; seed <= 4; ++seed) {
    const std::vector<std::size_t> start =
        chain_starts({12, 12, 12, 12, 12, 12, 7});
    const std::size_t n = start.back();
    std::vector<double> diag, off;
    random_chains(n, 300 + seed, diag, off);
    std::vector<double> piv, lfac;
    ASSERT_TRUE(internal::factor_chains(start, diag.data(), off.data(), piv,
                                        lfac));
    const CsrMatrix cross = random_sparse_spd(n, 400 + seed);
    const auto apply = [&](const std::vector<double>& v,
                           std::vector<double>& av) {
      cross.multiply(v, av);
      for (std::size_t i = 0; i < n; ++i) av[i] *= 0.05;
      for (std::size_t k = 0; k + 1 < start.size(); ++k)
        for (std::size_t l = start[k]; l < start[k + 1]; ++l) {
          av[l] += diag[l] * v[l];
          if (l > start[k]) {
            av[l] += off[l] * v[l - 1];
            av[l - 1] += off[l] * v[l];
          }
        }
    };
    const auto chains = [&](const std::vector<double>& r,
                            std::vector<double>& z) {
      internal::chain_solve(start, piv, lfac, r.data(), z.data());
    };
    const std::vector<double> b = random_vec(n, 500 + seed);
    for (std::size_t cap : {std::size_t{2}, std::size_t{200}}) {
      const CgResult fused =
          preconditioned_cg(apply, chains, b, {}, 1e-13, cap, "test");
      expect_same_iterate(fused, two_pass_cg(apply, chains, b, {}, 1e-13, cap));
    }
  }

  // Breakdown: a negative definite operator stops both loops at once.
  const CsrMatrix neg = random_sparse_spd(30, 9, -1.0);
  const auto apply = [&neg](const std::vector<double>& v,
                            std::vector<double>& av) { neg.multiply(v, av); };
  const auto none = [](const std::vector<double>& r, std::vector<double>& z) {
    z = r;
  };
  const std::vector<double> b = random_vec(30, 10);
  const CgResult fused = preconditioned_cg(apply, none, b, {}, 1e-12, 50, "test");
  EXPECT_TRUE(fused.breakdown);
  expect_same_iterate(fused, two_pass_cg(apply, none, b, {}, 1e-12, 50));
}

TEST(SchurSolver, OnePassResidualMatchesMultiplyAndNorm) {
  // The residual() pass sums exactly what multiply(), b - A x and two
  // dot products sum: on the fixture and on a crossbar's chain system.
  const auto device = tech::default_rram();
  auto spec = spice::CrossbarSpec::uniform(9, 13, device, 0.022, 60.0,
                                           device.r_min.value());
  spec.linear_memristors = true;
  spice::CrossbarSolveCache cache;
  ASSERT_TRUE(spice::solve_crossbar(spec, {}, &cache).dc.converged);
  const BipartiteFixture f = make_bipartite();
  const ChainSystem fixture = chains_of(f.a, f.partition);
  const ChainSystem& crossbar = cache.mna.system;
  for (const ChainSystem* system : {&fixture, &crossbar}) {
    ASSERT_TRUE(system->assembled());
    const std::size_t n = system->size();
    for (unsigned seed = 1; seed <= 3; ++seed) {
      const std::vector<double> x = random_vec(n, 600 + seed);
      const std::vector<double> b = random_vec(n, 700 + seed);
      std::vector<double> r;
      system->multiply(x, r);
      for (std::size_t i = 0; i < n; ++i) r[i] = b[i] - r[i];
      const auto [rr, bb] = system->residual(x, b);
      EXPECT_EQ(bits(rr), bits(dot(r, r)));
      EXPECT_EQ(bits(bb), bits(dot(b, b)));
    }
  }
}

// --- end-to-end through the MNA layer ----------------------------------------

TEST(SchurSolver, CrossbarSolveMatchesGenericLadder) {
  const auto device = tech::default_rram();
  const auto spec = spice::CrossbarSpec::uniform(12, 10, device, 0.022,
                                                 60.0, device.r_min.value());
  spice::DcOptions with_schur;
  with_schur.allow_schur = true;
  spice::DcOptions without;
  without.allow_schur = false;

  const auto a = spice::solve_crossbar(spec, with_schur);
  const auto b = spice::solve_crossbar(spec, without);
  ASSERT_TRUE(a.dc.converged);
  ASSERT_TRUE(b.dc.converged);
  EXPECT_GT(a.dc.diagnostics.schur_solves, 0);
  EXPECT_EQ(b.dc.diagnostics.schur_solves, 0);
  ASSERT_EQ(a.column_output_voltage.size(), b.column_output_voltage.size());
  // Schur and CG are different iterative methods: each lands on its own
  // iterate inside the residual tolerance, so agreement is bounded by
  // cond(A) * cg_tolerance, not by machine epsilon.
  for (std::size_t j = 0; j < a.column_output_voltage.size(); ++j)
    EXPECT_NEAR(a.column_output_voltage[j], b.column_output_voltage[j],
                1e-7 * std::fabs(b.column_output_voltage[j]) + 1e-12);
}

TEST(SchurSolver, IdealWireCrossbarCarriesNoStructure) {
  const auto device = tech::default_rram();
  auto spec = spice::CrossbarSpec::uniform(6, 6, device, 0.022, 60.0,
                                           device.r_min.value());
  spec.ideal_wires = true;
  const auto sol = spice::solve_crossbar(spec);
  ASSERT_TRUE(sol.dc.converged);
  EXPECT_EQ(sol.dc.diagnostics.schur_solves, 0);
  EXPECT_EQ(sol.dc.diagnostics.schur_rejects, 0);
}

// --- direct-indexed kernels, fused PCG passes, zero-volt companions -----

// A random chain system: `elim` and `kept` chain lengths, unknown =
// position, cells as (eliminated, kept) unknown pairs. Diagonally
// dominant, so SPD.
struct RandomChains {
  BipartitePartition partition;
  std::size_t n = 0;
  std::size_t nb = 0;
  std::vector<double> diag, off;  // by position; off = previous coupling
  std::vector<std::pair<std::size_t, std::size_t>> cells;
  std::vector<double> cell_g;
};

RandomChains random_chains_system(const std::vector<std::size_t>& elim,
                                  const std::vector<std::size_t>& kept,
                                  bool one_cell, unsigned seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> g(0.5, 2.0);
  std::uniform_real_distribution<double> cg(1e-3, 1e-2);
  RandomChains r;
  std::size_t next = 0;
  for (const auto* side : {&elim, &kept}) {
    for (std::size_t len : *side) {
      std::vector<std::size_t> chain;
      for (std::size_t i = 0; i < len; ++i) chain.push_back(next++);
      (side == &elim ? r.partition.eliminated_chains
                     : r.partition.kept_chains)
          .push_back(chain);
    }
    if (side == &elim) r.nb = next;
  }
  r.n = next;
  r.diag.assign(r.n, 0.0);
  r.off.assign(r.n, 0.0);
  for (const auto* chains :
       {&r.partition.eliminated_chains, &r.partition.kept_chains})
    for (const auto& chain : *chains)
      for (std::size_t i = 1; i < chain.size(); ++i) {
        const double v = g(rng);
        r.off[chain[i]] = -v;
        r.diag[chain[i]] += v;
        r.diag[chain[i - 1]] += v;
      }
  const std::size_t nc = r.n - r.nb;
  if (one_cell) {
    // Every eliminated unknown to a distinct kept unknown (nb <= nc).
    std::vector<std::size_t> targets(nc);
    for (std::size_t c = 0; c < nc; ++c) targets[c] = r.nb + c;
    std::shuffle(targets.begin(), targets.end(), rng);
    for (std::size_t b = 0; b < r.nb; ++b) r.cells.emplace_back(b, targets[b]);
  } else {
    std::uniform_int_distribution<std::size_t> pick(0, nc - 1);
    for (std::size_t b = 0; b < r.nb; ++b)
      for (int k = 0; k < 3; ++k) r.cells.emplace_back(b, r.nb + pick(rng));
    std::sort(r.cells.begin(), r.cells.end());
    r.cells.erase(std::unique(r.cells.begin(), r.cells.end()), r.cells.end());
  }
  for (const auto& [b, c] : r.cells) {
    const double v = cg(rng);
    r.cell_g.push_back(v);
    r.diag[b] += v;
    r.diag[c] += v;
  }
  for (double& d : r.diag) d += 0.1;
  r.partition.cells = r.cells;
  return r;
}

ChainSystem assemble_random(const RandomChains& r) {
  ChainSystem system(r.partition, r.n);
  system.begin();
  for (std::size_t p = 0; p < r.n; ++p) {
    system.add(p, p, r.diag[p]);
    if (r.off[p] < 0.0) {
      system.add(p, p - 1, r.off[p]);
      system.add(p - 1, p, r.off[p]);
    }
  }
  for (std::size_t k = 0; k < r.cells.size(); ++k) {
    system.add(r.cells[k].first, r.cells[k].second, -r.cell_g[k]);
    system.add(r.cells[k].second, r.cells[k].first, -r.cell_g[k]);
  }
  EXPECT_TRUE(system.finish());
  return system;
}

// The Schur solve in its unfused order, written from the partition: each
// pass separate, cells in their documented order, the plain-callback PCG.
CgResult unfused_schur_solve(const RandomChains& r,
                             const std::vector<double>& b, double tolerance,
                             const std::vector<double>* guess_full) {
  const std::size_t nb = r.nb;
  const std::size_t nc = r.n - nb;
  const auto starts = [](const std::vector<std::vector<std::size_t>>& cs) {
    std::vector<std::size_t> start{0};
    for (const auto& c : cs) start.push_back(start.back() + c.size());
    return start;
  };
  const std::vector<std::size_t> bs = starts(r.partition.eliminated_chains);
  const std::vector<std::size_t> cs = starts(r.partition.kept_chains);
  std::vector<double> b_piv, b_lfac, c_piv, c_lfac;
  EXPECT_TRUE(internal::factor_chains(bs, r.diag.data(), r.off.data(), b_piv,
                                      b_lfac));
  EXPECT_TRUE(internal::factor_chains(cs, r.diag.data() + nb,
                                      r.off.data() + nb, c_piv, c_lfac));
  // Cells by eliminated position (ascending kept) and by kept position
  // (ascending eliminated): r.cells is sorted by (b, c) or one per b.
  std::vector<std::vector<std::pair<std::size_t, double>>> by_b(nb), by_c(nc);
  for (std::size_t k = 0; k < r.cells.size(); ++k) {
    by_b[r.cells[k].first].emplace_back(r.cells[k].second - nb, -r.cell_g[k]);
    by_c[r.cells[k].second - nb].emplace_back(r.cells[k].first,
                                              -r.cell_g[k]);
  }
  const auto cross = [&](std::size_t lb, const std::vector<double>& x) {
    double acc = 0.0;
    for (const auto& [c, v] : by_b[lb]) acc += v * x[c];
    return acc;
  };
  const auto subtract = [&](std::size_t lc, const std::vector<double>& w,
                            double& y) {
    for (const auto& [bb, v] : by_c[lc])
      if (w[bb] != 0.0) y -= v * w[bb];
  };
  std::vector<double> t(nb);
  internal::chain_solve(bs, b_piv, b_lfac, b.data(), t.data());
  std::vector<double> rhs(nc);
  for (std::size_t l = 0; l < nc; ++l) {
    double v = b[nb + l];
    subtract(l, t, v);
    rhs[l] = v;
  }
  const auto apply = [&](const std::vector<double>& x,
                         std::vector<double>& y) {
    std::vector<double> in(nb);
    for (std::size_t lb = 0; lb < nb; ++lb) in[lb] = cross(lb, x);
    std::vector<double> w(nb);
    internal::chain_solve(bs, b_piv, b_lfac, in.data(), w.data());
    y.assign(nc, 0.0);
    for (std::size_t k = 0; k + 1 < cs.size(); ++k)
      for (std::size_t l = cs[k]; l < cs[k + 1]; ++l) {
        double acc = r.diag[nb + l] * x[l];
        if (l > cs[k]) acc += r.off[nb + l] * x[l - 1];
        if (l + 1 < cs[k + 1]) acc += r.off[nb + l + 1] * x[l + 1];
        subtract(l, w, acc);
        y[l] = acc;
      }
  };
  const auto precondition = [&](const std::vector<double>& res,
                                std::vector<double>& z) {
    internal::chain_solve(cs, c_piv, c_lfac, res.data(), z.data());
  };
  std::vector<double> guess;
  if (guess_full) guess.assign(guess_full->begin() + nb, guess_full->end());
  const double b_norm = std::sqrt(dot(b, b));
  CgResult result = preconditioned_cg(apply, precondition, rhs, guess,
                                      tolerance * b_norm, 0, "test");
  std::vector<double> in(nb);
  for (std::size_t lb = 0; lb < nb; ++lb) in[lb] = b[lb] - cross(lb, result.x);
  internal::chain_solve(bs, b_piv, b_lfac, in.data(), t.data());
  std::vector<double> full(t);
  full.insert(full.end(), result.x.begin(), result.x.end());
  result.x = std::move(full);
  return result;
}

TEST(SchurSolver, FusedPassesMatchTheUnfusedOrderBitForBit) {
  // Crossbar-shaped (one cell per eliminated unknown) and general
  // partitions, lockstep groups with tails, cold and warm, tight and
  // loose tolerances.
  struct Shape {
    std::vector<std::size_t> elim, kept;
    bool one_cell;
  };
  const std::vector<Shape> shapes = {
      {{6, 6, 6, 6, 6}, {7, 7, 7, 7, 7, 7}, true},
      {{5, 5, 5, 5, 3}, {6, 6, 6, 6, 6, 2, 1}, true},
      {{4, 9, 4, 4, 4, 4}, {5, 5, 5, 5, 5, 5, 5, 5, 5}, false},
      {{1, 1, 1}, {2, 2}, false}};
  unsigned seed = 70;
  for (const Shape& shape : shapes) {
    const RandomChains r =
        random_chains_system(shape.elim, shape.kept, shape.one_cell, seed++);
    const ChainSystem system = assemble_random(r);
    const SchurFactorization factor = SchurFactorization::build(system);
    ASSERT_TRUE(factor.valid());
    const std::vector<double> b = random_vec(r.n, seed++);
    const std::vector<double> guess = random_vec(r.n, seed++);
    for (double tol : {1e-13, 1e-4})
      for (const std::vector<double>* g :
           {static_cast<const std::vector<double>*>(nullptr), &guess}) {
        const CgResult fused = factor.solve(system, b, tol, g);
        EXPECT_TRUE(fused.converged);
        expect_same_iterate(fused, unfused_schur_solve(r, b, tol, g));
        expect_same_iterate(
            internal::solve_with_range_loops(factor, system, b, tol, g),
            fused);
      }
  }
}

TEST(SchurSolver, OneCellKernelsMatchTheRangeLoopsOnCrossbars) {
  // Builder crossbars, whose layout takes the direct-indexed kernels.
  // With 0.022 ohm segments a cell term is some 1e-6 of its row, so a
  // last-bit slip in a cell product rarely reaches the iterate; segments
  // as resistive as the cells make every cell term count.
  const auto device = tech::default_rram();
  std::mt19937 rng(17);
  std::uniform_real_distribution<double> cell(device.r_min.value(),
                                              device.r_max.value());
  for (auto [m, n] : {std::pair{1, 1}, std::pair{4, 9}, std::pair{13, 5},
                      std::pair{24, 24}}) {
    for (const double segment : {0.022, device.r_min.value()}) {
      const bool linear = segment > 1.0;
      auto spec = spice::CrossbarSpec::uniform(m, n, device, segment, 60.0,
                                               device.r_min.value());
      for (auto& row : spec.cell_resistance)
        for (double& c : row) c = cell(rng);
      spec.linear_memristors = linear;
      spice::CrossbarSolveCache cache;
      ASSERT_TRUE(spice::solve_crossbar(spec, {}, &cache).dc.converged);
      const ChainSystem& system = cache.mna.system;
      const SchurFactorization factor = SchurFactorization::build(system);
      ASSERT_TRUE(factor.valid());
      const std::vector<double> b = random_vec(system.size(), rng());
      const std::vector<double> guess = random_vec(system.size(), rng());
      for (const std::vector<double>* g :
           {static_cast<const std::vector<double>*>(nullptr), &guess}) {
        const CgResult direct = factor.solve(system, b, 1e-12, g);
        EXPECT_TRUE(direct.converged);
        expect_same_iterate(
            direct,
            internal::solve_with_range_loops(factor, system, b, 1e-12, g));
      }
    }
  }
}

// Every slot of two chain systems over the same layout, bit for bit.
void expect_same_slots(const ChainSystem& got, const ChainSystem& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t r = 0; r < got.size(); ++r)
    for (std::size_t c = 0; c < got.size(); ++c) {
      const std::optional<double> g = got.value(r, c);
      const std::optional<double> w = want.value(r, c);
      ASSERT_EQ(g.has_value(), w.has_value()) << r << "," << c;
      if (g) {
        EXPECT_EQ(bits(*g), bits(*w)) << r << "," << c;
      }
    }
}

TEST(SchurSolver, ZeroVoltCompanionIsTheSinhCoshStampAtBothZeros) {
  // Every cell of a nonlinear crossbar linearized at v0 = +0 (both taps
  // +0) or -0 (row tap -0, column tap +0). The sinh/cosh companion there
  // is gd = cosh(v0 / vt) / r, which is 1 / r to the bit, with a source
  // i0 - gd v0 of +0.0, and adding +0.0 to a right-hand side that holds
  // no -0.0 changes no bit. So the assembly must be the linear-cell
  // (chord) assembly, slot by slot and in the right-hand side.
  const auto device = tech::default_rram();
  auto spec = spice::CrossbarSpec::uniform(5, 7, device, 0.022, 60.0,
                                           device.r_min.value());
  std::mt19937 rng(3);
  std::uniform_real_distribution<double> cell(device.r_min.value(),
                                              device.r_max.value());
  for (auto& row : spec.cell_resistance)
    for (double& c : row) c = cell(rng);
  const spice::Netlist nl = spice::build_crossbar_netlist(spec, nullptr);
  spice::Netlist linear = nl;
  linear.set_linear_memristors(true);
  const double vt = device.nonlinearity_vt.value();
  for (double row_tap : {0.0, -0.0}) {
    SCOPED_TRACE(std::signbit(row_tap) ? "-0" : "+0");
    std::vector<double> v(static_cast<std::size_t>(nl.node_count()) + 1, 0.0);
    for (const auto& s : nl.sources())
      v[static_cast<std::size_t>(s.node)] = s.volts;
    for (const auto& m : nl.memristors())
      v[static_cast<std::size_t>(m.a)] = row_tap;
    for (const auto& m : nl.memristors()) {
      const double v0 = v[static_cast<std::size_t>(m.a)] -
                        v[static_cast<std::size_t>(m.b)];
      ASSERT_TRUE(v0 == 0.0);
      ASSERT_EQ(std::signbit(v0), std::signbit(row_tap));
      const double vc = std::clamp(v0, -tech::kMaxSinhArg * vt,
                                   tech::kMaxSinhArg * vt);
      const double gd = std::cosh(vc / vt) / m.r_state;
      const double i0 = vt / m.r_state * std::sinh(vc / vt);
      EXPECT_EQ(bits(gd), bits(1.0 / m.r_state));
      EXPECT_EQ(bits(i0 - gd * vc), bits(0.0));
    }
    spice::MnaCache cache;
    spice::MnaCache linear_cache;
    spice::prime_cache(nl, {}, cache);
    spice::prime_cache(linear, {}, linear_cache);
    ASSERT_TRUE(cache.system.assembled());
    const std::vector<double> rhs = spice::assemble_newton(nl, {}, {v}, cache);
    const std::vector<double> linear_rhs =
        spice::assemble_newton(linear, {}, {v}, linear_cache);
    ASSERT_EQ(rhs.size(), linear_rhs.size());
    for (std::size_t i = 0; i < rhs.size(); ++i) {
      EXPECT_EQ(bits(rhs[i]), bits(linear_rhs[i])) << "rhs " << i;
      EXPECT_EQ(bits(rhs[i] + 0.0), bits(rhs[i])) << "rhs " << i;
    }
    expect_same_slots(cache.system, linear_cache.system);
  }
}

TEST(SchurSolver, PartialRestoreMatchesAFullRestore) {
  // A snapshot of every chain coupling and half of the rest; then passes
  // that add the other half (tweaked) with and without an extra chain
  // add. The restore copies the chain slots only after a pass that wrote
  // one -- pass 2 must undo pass 1's chain add -- and every pass must
  // hold the slots of a full assembly.
  const BipartiteFixture f = make_bipartite();
  std::vector<char> eliminated(f.n, 0);
  for (const auto& chain : f.partition.eliminated_chains)
    for (std::size_t g : chain) eliminated[g] = 1;
  struct Add {
    std::size_t row, col;
    double value;
  };
  std::vector<Add> chain_adds;
  std::vector<Add> rest;
  const auto& rs = f.a.row_start();
  for (std::size_t r = 0; r < f.n; ++r)
    for (std::size_t k = rs[r]; k < rs[r + 1]; ++k) {
      const Add a{r, f.a.cols()[k], f.a.values()[k]};
      (r != a.col && eliminated[r] == eliminated[a.col] ? chain_adds : rest)
          .push_back(a);
    }
  ASSERT_FALSE(chain_adds.empty());
  const std::size_t half = rest.size() / 2;
  const Add extra{chain_adds[1].row, chain_adds[1].col, -0.125};

  ChainSystem resumed(f.partition, f.n);
  resumed.begin();
  for (const Add& a : chain_adds) resumed.add(a.row, a.col, a.value);
  for (std::size_t k = 0; k < half; ++k)
    resumed.add(rest[k].row, rest[k].col, rest[k].value);
  resumed.save_base();
  std::mt19937 rng(9);
  std::uniform_real_distribution<double> tweak(-0.01, 0.01);
  for (int pass = 0; pass < 4; ++pass) {
    SCOPED_TRACE(pass);
    const bool with_extra = pass == 1;
    if (pass > 0) resumed.restore_base();
    std::vector<Add> tail(rest.begin() + static_cast<long>(half), rest.end());
    for (Add& a : tail) a.value += tweak(rng);
    for (const Add& a : tail) resumed.add(a.row, a.col, a.value);
    if (with_extra) resumed.add(extra.row, extra.col, extra.value);
    ASSERT_TRUE(resumed.finish());

    ChainSystem full(f.partition, f.n);
    full.begin();
    for (const Add& a : chain_adds) full.add(a.row, a.col, a.value);
    for (std::size_t k = 0; k < half; ++k)
      full.add(rest[k].row, rest[k].col, rest[k].value);
    for (const Add& a : tail) full.add(a.row, a.col, a.value);
    if (with_extra) full.add(extra.row, extra.col, extra.value);
    ASSERT_TRUE(full.finish());
    expect_same_slots(resumed, full);
  }
}

TEST(SchurSolver, ImportedCompanionOnAChainSlotRestoresInFull) {
  // An imported crossbar deck with a memristor across two neighbouring
  // row-wire taps: its companion lands on a chain coupling every Newton
  // step, so each later assembly restores the chain slots too. Every
  // assembly (the snapshot's first and the restored ones after it) must
  // hold, slot for slot, what the CSR refill of the same stamps holds,
  // and the solve must match the generic ladder's within its tolerance.
  const auto device = tech::default_rram();
  auto spec = spice::CrossbarSpec::uniform(6, 5, device, 0.3, 60.0,
                                           device.r_min.value());
  std::mt19937 rng(29);
  std::uniform_real_distribution<double> cell(device.r_min.value(),
                                              device.r_max.value());
  for (auto& row : spec.cell_resistance)
    for (double& c : row) c = cell(rng);
  spice::Netlist built = spice::build_crossbar_netlist(spec, nullptr);
  const auto& row = built.wire_structure().row_chains[2];
  built.add_memristor(row[1], row[2], 2.5e4);
  const spice::Netlist nl = spice::import_spice(spice::export_spice(built));
  ASSERT_FALSE(nl.wire_structure().empty());

  const auto nodes = static_cast<std::size_t>(nl.node_count()) + 1;
  std::uniform_real_distribution<double> volts(-0.1, 0.4);
  std::vector<std::vector<double>> iterates(3, std::vector<double>(nodes));
  for (auto& v : iterates)
    for (double& x : v) x = volts(rng);
  spice::DcOptions generic;
  generic.allow_schur = false;
  spice::MnaCache chains;
  spice::MnaCache csr;
  spice::prime_cache(nl, {}, chains);
  spice::prime_cache(nl, generic, csr);
  ASSERT_TRUE(chains.system.assembled());
  for (std::size_t k = 1; k <= iterates.size(); ++k) {
    SCOPED_TRACE(k);
    const std::vector<std::vector<double>> run(
        iterates.begin(), iterates.begin() + static_cast<long>(k));
    const std::vector<double> got = spice::assemble_newton(nl, {}, run, chains);
    const std::vector<double> want =
        spice::assemble_newton(nl, generic, run, csr);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i)
      EXPECT_EQ(bits(got[i]), bits(want[i])) << "rhs " << i;
    const CsrMatrix& a = csr.matrix;
    for (std::size_t r = 0; r < a.size(); ++r)
      for (std::size_t e = a.row_start()[r]; e < a.row_start()[r + 1]; ++e) {
        const std::optional<double> v = chains.system.value(r, a.cols()[e]);
        ASSERT_TRUE(v.has_value()) << r << "," << a.cols()[e];
        EXPECT_EQ(bits(*v), bits(a.values()[e])) << r << "," << e;
      }
  }

  const spice::DcResult schur = spice::solve_dc(nl);
  const spice::DcResult plain = spice::solve_dc(nl, generic);
  ASSERT_TRUE(schur.converged);
  ASSERT_TRUE(plain.converged);
  EXPECT_GT(schur.diagnostics.schur_iterations, 0);
  EXPECT_EQ(schur.diagnostics.schur_rejects, 0);
  for (std::size_t n = 1; n < nodes; ++n)
    EXPECT_NEAR(schur.node_voltages[n], plain.node_voltages[n], 1e-9) << n;
}

}  // namespace
}  // namespace mnsim::numeric
