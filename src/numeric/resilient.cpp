#include "numeric/resilient.hpp"

#include <cmath>
#include <stdexcept>
#include <string>
#include <utility>

#include "numeric/dense.hpp"
#include "numeric/factorization.hpp"
#include "numeric/pcg.hpp"
#include "obs/trace.hpp"
#include "util/cancel.hpp"

namespace mnsim::numeric {

namespace {

double norm2(const std::vector<double>& v) { return std::sqrt(dot(v, v)); }

void set_residual(double residual_norm, double b_norm,
                  ResilientSolveReport& report) {
  report.residual_norm = residual_norm;
  report.relative_residual =
      residual_norm / (b_norm > 0 ? b_norm : 1.0);
}

// The true residual ||b - A x|| of report.x and its ratio to ||b||:
// every rung, the Schur rung included, is judged on the real matrix.
void fill_residual(const CsrMatrix& a, const std::vector<double>& b,
                   ResilientSolveReport& report) {
  const double b_norm = norm2(b);
  double residual_norm = b_norm;
  if (report.x.size() == a.size()) {
    std::vector<double> ax;
    a.multiply(report.x, ax);
    for (std::size_t i = 0; i < ax.size(); ++i) ax[i] = b[i] - ax[i];
    residual_norm = norm2(ax);
  }
  set_residual(residual_norm, b_norm, report);
}

// The same for a ChainSystem, in its one pass: A x is summed as a
// CsrMatrix sums it, so the floats are those of the overload above.
void fill_residual(const ChainSystem& a, const std::vector<double>& b,
                   ResilientSolveReport& report) {
  const auto [rr, bb] = a.residual(report.x, b);
  set_residual(std::sqrt(rr), std::sqrt(bb), report);
}

bool finite(const std::vector<double>& v) {
  for (double x : v)
    if (!std::isfinite(x)) return false;
  return true;
}

// The caller's warm start, when it is usable for an n-unknown system.
const std::vector<double>* usable_guess(const ResilientSolveOptions& opt,
                                        std::size_t n) {
  return opt.initial_guess && opt.initial_guess->size() == n &&
                 finite(*opt.initial_guess)
             ? opt.initial_guess
             : nullptr;
}

}  // namespace

namespace internal {

void keep_better(CgResult& best, CgResult&& candidate) {
  const bool best_usable =
      finite(best.x) && std::isfinite(best.residual_norm);
  const bool candidate_usable =
      finite(candidate.x) && std::isfinite(candidate.residual_norm);
  if (!candidate_usable) return;
  if (!best_usable || candidate.residual_norm < best.residual_norm)
    best = std::move(candidate);
}

}  // namespace internal

ResilientSolveReport solve_schur(const ChainSystem& a,
                                 const SchurFactorization& factor,
                                 const std::vector<double>& b,
                                 const ResilientSolveOptions& opt) {
  const std::size_t n = a.size();
  ResilientSolveReport report;
  // A broken structure is a reject, never an error.
  if (!(factor.valid() && factor.size() == n)) {
    ++report.schur_rejects;
    return report;
  }
  obs::Span span("numeric.schur");
  // Solve slightly tighter than requested so back-substitution
  // roundoff cannot push the true residual over the acceptance line.
  CgResult sr =
      factor.solve(a, b, opt.tolerance * 0.5, usable_guess(opt, n));
  report.schur_iterations = sr.iterations;
  if (sr.converged && finite(sr.x)) {
    // Every later rung that returns overwrites x and the residual.
    report.x = std::move(sr.x);
    fill_residual(a, b, report);
    if (report.relative_residual <= opt.tolerance) {
      report.method = SolveMethod::kSchur;
      report.converged = true;
      return report;
    }
  }
  ++report.schur_rejects;
  report.rung_notes.push_back(
      sr.converged   ? "schur: converged iterate rejected by true-residual "
                       "acceptance check"
      : sr.breakdown ? "schur: inner PCG broke down (p'Sp not positive, or "
                       "the right-hand side norm not finite)"
                     : "schur: inner PCG did not converge");
  return report;
}

ResilientSolveReport solve_spd_resilient(const CsrMatrix& a,
                                         const std::vector<double>& b,
                                         const ResilientSolveOptions& opt,
                                         ResilientSolveReport rung0) {
  const std::size_t n = a.size();
  ResilientSolveReport report = std::move(rung0);
  const std::vector<double>* guess = usable_guess(opt, n);

  // Rung 1: preconditioned CG, warm-started when the caller supplied a
  // same-topology reference iterate.
  CgResult cg = [&] {
    obs::Span span("numeric.cg");
    return conjugate_gradient(a, b, opt.tolerance, opt.max_iterations,
                              guess);
  }();
  report.cg_iterations += cg.iterations;
  if (cg.converged && finite(cg.x)) {
    report.x = std::move(cg.x);
    report.method = SolveMethod::kCg;
    report.converged = true;
    fill_residual(a, b, report);
    return report;
  }
  report.rung_notes.push_back(
      cg.diagonal_defect ? "cg: zero/missing diagonal entry (Jacobi "
                           "preconditioner undefined)"
      : cg.breakdown     ? "cg: breakdown (p'Ap not positive: matrix not "
                           "SPD; or the right-hand side norm not finite)"
      : !finite(cg.x)    ? "cg: non-finite iterate"
                         : "cg: stalled above tolerance");

  // Rung 2: warm-started retry with a larger iteration budget. The
  // stalled iterate is usually a good starting point, and the extra
  // budget lets the Jacobi-preconditioned recurrence grind further down
  // before the expensive dense rung.
  if (opt.allow_fallback && !cg.breakdown && finite(cg.x)) {
    util::throw_if_cancelled("numeric.cg_retry");
    const std::size_t base =
        opt.max_iterations ? opt.max_iterations : default_cg_iterations(n);
    ++report.cg_retries;
    CgResult retry = [&] {
      obs::Span span("numeric.cg_retry");
      return conjugate_gradient(a, b, opt.tolerance,
                                base * kRetryBudgetFactor, &cg.x);
    }();
    report.cg_iterations += retry.iterations;
    if (!(retry.converged && finite(retry.x)))
      report.rung_notes.push_back(
          retry.breakdown ? "cg_retry: breakdown (p'Ap not positive)"
                          : "cg_retry: stalled above tolerance");
    if (retry.converged && finite(retry.x)) {
      report.x = std::move(retry.x);
      report.method = SolveMethod::kCgRetry;
      report.converged = true;
      fill_residual(a, b, report);
      return report;
    }
    // A stalled retry can end on a *worse* iterate than rung 1 left
    // (the extra budget is no guarantee of monotone progress), so keep
    // whichever has the smaller residual for the failure report.
    internal::keep_better(cg, std::move(retry));
  }

  // Rung 3: dense direct solve — O(n^2) memory / O(n^3) time, so gated
  // by size. Cholesky first: half the flops of LU plus a built-in SPD
  // certificate; systems that are not numerically SPD (diagonal
  // defects, hollow permutations) fall through to pivoted LU.
  if (opt.allow_fallback && n <= kDenseFallbackLimit) {
    util::throw_if_cancelled("numeric.lu_fallback");
    obs::Span span("numeric.lu_fallback");
    ++report.lu_fallbacks;
    const std::vector<double> rows = a.to_dense_rows();
    DenseMatrix dense(n, n);
    for (std::size_t r = 0; r < n; ++r)
      for (std::size_t c = 0; c < n; ++c) dense(r, c) = rows[r * n + c];
    try {
      const CholeskyFactorization chol(dense);
      std::vector<double> x = chol.solve(b);
      if (finite(x)) {
        report.condition_estimate = chol.condition_estimate();
        report.x = std::move(x);
        report.method = SolveMethod::kDenseCholesky;
        report.converged = true;
        fill_residual(a, b, report);
        return report;
      }
    } catch (const util::CancelledError&) {
      // A watchdog expiry is a policy decision, not a singular matrix:
      // it must unwind to the sweep layer, never degrade to kFailed.
      throw;
    } catch (const std::runtime_error& e) {
      // Not numerically SPD — pivoted LU below handles it; keep the
      // rejection reason so a kFailed report explains the whole ladder.
      report.rung_notes.push_back(std::string("cholesky: ") + e.what());
    }
    try {
      const LuFactorization lu(std::move(dense));
      std::vector<double> x = lu.solve(b);
      if (finite(x)) {
        report.condition_estimate = lu.condition_estimate();
        report.x = std::move(x);
        report.method = SolveMethod::kDenseLu;
        report.converged = true;
        fill_residual(a, b, report);
        return report;
      }
    } catch (const util::CancelledError&) {
      throw;
    } catch (const std::runtime_error& e) {
      // Singular matrix: fall through to the failure report, reason
      // attached.
      report.rung_notes.push_back(std::string("lu: ") + e.what());
    }
  }

  // Everything failed: hand back the least-bad CG iterate with honest
  // diagnostics so the caller can decide to abort or degrade further.
  report.x = finite(cg.x) ? std::move(cg.x)
                          : std::vector<double>(n, 0.0);
  report.method = SolveMethod::kFailed;
  report.converged = false;
  fill_residual(a, b, report);
  return report;
}

}  // namespace mnsim::numeric
