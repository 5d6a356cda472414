// Factor-once dense solvers (numeric/factorization.hpp) and the
// bipartite Schur engine (numeric/schur.hpp): factor-reuse bit-identity,
// the scaled singularity threshold, condition estimates, the Schur rung
// of the resilient ladder, and its fallback on structure violations.
#include "numeric/factorization.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <random>
#include <stdexcept>

#include "numeric/dense.hpp"
#include "numeric/resilient.hpp"
#include "numeric/schur.hpp"
#include "numeric/sparse.hpp"
#include "spice/crossbar_netlist.hpp"
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
  const CgResult sr = schur.solve(f.b, 1e-12);
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
  const SchurFactorization schur =
      SchurFactorization::build(chains_of(f.a, f.partition));
  ASSERT_TRUE(schur.valid());
  util::CancelToken token;
  token.request();
  util::ScopedCancel scope(&token);
  try {
    (void)schur.solve(f.b, 1e-12);
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
  const CgResult sr = schur.solve(b, 1e-12);
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

}  // namespace
}  // namespace mnsim::numeric
