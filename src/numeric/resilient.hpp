// Resilient SPD solve: a retry ladder for ill-conditioned systems.
//
// Fault-laden crossbars (broken lines, stuck cells) produce conductance
// matrices whose entries span many decades; plain Jacobi-preconditioned
// conjugate gradients can stagnate far above the requested tolerance on
// such systems. Instead of giving up, this module degrades gracefully:
//   0. a structure-exploiting Schur-complement solve (solve_schur) when
//      the caller assembled a crossbar's ChainSystem (numeric/schur.hpp)
//      — exact chain elimination plus a tightly preconditioned small
//      iteration,
//   1. CG at the requested tolerance,
//   2. a warm-started CG retry with kRetryBudgetFactor times the budget,
//   3. a dense direct fallback (Cholesky, then LU with partial
//      pivoting) for systems of at most kDenseFallbackLimit unknowns.
// Every rung records what it did so callers can surface degraded solves
// instead of hiding them.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "numeric/schur.hpp"
#include "numeric/sparse.hpp"

namespace mnsim::numeric {

enum class SolveMethod { kCg, kCgRetry, kDenseLu, kFailed, kSchur,
                         kDenseCholesky };

// Rung 2 runs kRetryBudgetFactor times rung 1's iteration budget.
inline constexpr std::size_t kRetryBudgetFactor = 8;
// Dense expansion is O(n^2) memory: rung 3 refuses larger systems.
inline constexpr std::size_t kDenseFallbackLimit = 4096;

struct ResilientSolveOptions {
  double tolerance = 1e-10;
  std::size_t max_iterations = 0;  // 0 = CG default (4n + 100)
  bool allow_fallback = true;  // rungs 2 and 3
  // When non-null (size n), the first CG rung warm-starts from this
  // iterate instead of zero — sweep engines pass the solution of a
  // previously solved system with the same topology. The pointee must
  // stay alive for the duration of the call.
  const std::vector<double>* initial_guess = nullptr;
};

struct ResilientSolveReport {
  std::vector<double> x;
  SolveMethod method = SolveMethod::kFailed;
  bool converged = false;
  std::size_t cg_iterations = 0;  // total across both CG rungs
  int cg_retries = 0;             // 1 when the retry rung ran
  int lu_fallbacks = 0;           // 1 when the dense rung ran
  std::size_t schur_iterations = 0;  // PCG iterations on the Schur system
  int schur_rejects = 0;          // 1 when rung 0 ran but was not accepted
  // Diagonal-growth condition estimate from the dense rung's
  // factorization (0 when the dense rung did not run / did not factor).
  double condition_estimate = 0.0;
  double residual_norm = 0.0;     // ||b - A x|| of the returned x
  double relative_residual = 0.0; // residual_norm / ||b||
  // One entry per rung that ran and was rejected, carrying the reason
  // (e.g. the factorization's exception message). A kFailed report
  // always explains *why* every rung failed; callers surfacing degraded
  // solves can forward these verbatim.
  std::vector<std::string> rung_notes;

  [[nodiscard]] bool degraded() const {
    return cg_retries > 0 || lu_fallbacks > 0;
  }
};

// Rung 0: solves A x = b through `factor`, a factorization of the
// assembled `a`. Acceptance is judged on the true residual of the full
// system, computed from `a`, so a stale factorization or a broken
// structure assumption cannot smuggle a wrong answer past the ladder. A
// rejected solve -- an invalid factor (a broken structure or a
// non-positive chain pivot), a PCG that did not converge, or a failed
// residual check -- returns converged = false with one schur_reject;
// hand the report on to solve_spd_resilient.
ResilientSolveReport solve_schur(const ChainSystem& a,
                                 const SchurFactorization& factor,
                                 const std::vector<double>& b,
                                 const ResilientSolveOptions& options);

// Solves A x = b through rungs 1-3 of the ladder above. `rung0` is the
// report of a rejected solve_schur of the same system, whose Schur
// bookkeeping and notes the ladder carries on; empty when rung 0 did
// not run. Never throws on a stalled iteration — a fully failed solve
// returns converged = false with the best iterate found (method kFailed
// when even the dense rung was singular or unavailable).
ResilientSolveReport solve_spd_resilient(const CsrMatrix& a,
                                         const std::vector<double>& b,
                                         const ResilientSolveOptions& options,
                                         ResilientSolveReport rung0 = {});

namespace internal {
// Keeps in `best` whichever iterate has the smaller residual norm,
// guarding against non-finite candidates. Exposed for unit tests: the
// ladder uses it so a retry rung that *worsened* the iterate cannot
// overwrite a better earlier one in the kFailed report.
void keep_better(CgResult& best, CgResult&& candidate);
}  // namespace internal

}  // namespace mnsim::numeric
