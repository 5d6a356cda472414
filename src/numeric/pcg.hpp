// The one preconditioned conjugate-gradient loop of the solver ladder:
// Jacobi CG on the full MNA system (conjugate_gradient) and the
// Schur-side PCG (SchurFactorization::solve) differ only in the operator
// and the preconditioner they hand in. The loop takes them in fused
// form -- the operator also returns p'Ap, the preconditioner step also
// applies the x/r update and returns r'r and r'z -- so a kernel can fold
// those passes into its own sweeps; plain callbacks go through
// UnfusedPcg.
#pragma once

#include <cmath>
#include <cstddef>
#include <tuple>
#include <utility>
#include <vector>

#include "numeric/sparse.hpp"
#include "util/cancel.hpp"

namespace mnsim::numeric {

inline double dot(const std::vector<double>& a, const std::vector<double>& b) {
  double s = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) s += a[i] * b[i];
  return s;
}

// {a'a, a'b} in one pass: two independent left-to-right sums, each the
// float dot() returns.
inline std::pair<double, double> dot_self_and(const std::vector<double>& a,
                                              const std::vector<double>& b) {
  double aa = 0.0;
  double ab = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    aa += a[i] * a[i];
    ab += a[i] * b[i];
  }
  return {aa, ab};
}

// Iteration cap of an n-unknown solve whose caller passes 0.
inline std::size_t default_cg_iterations(std::size_t n) { return 4 * n + 100; }

// The update a PCG step makes before it preconditions: x += alpha p and
// r -= alpha Ap. The preconditioner step applies it to each element just
// before it reads r there.
struct CgUpdate {
  double alpha;
  const std::vector<double>& p;
  const std::vector<double>& ap;
  std::vector<double>& x;
};

// An operator and a preconditioner given as plain callbacks -- `apply(v,
// Av)` and `precondition(r, z)` (z = M^-1 r, z sized) -- in the fused
// form the loop below takes: each of their passes is followed by the
// separate update and reduction passes, in the order the loop used to
// run them, so a fused operator that keeps every sum's order gives the
// same floats.
template <typename MatVec, typename Precondition>
struct UnfusedPcg {
  const MatVec& matvec;
  const Precondition& preconditioner;

  // Av, and v'Av summed in ascending index.
  double apply(const std::vector<double>& v, std::vector<double>& av) const {
    matvec(v, av);
    return dot(v, av);
  }
  // Applies `update` (when given), then z = M^-1 r; returns {r'r, r'z}.
  std::pair<double, double> precondition(std::vector<double>& r,
                                         std::vector<double>& z,
                                         const CgUpdate* update) const {
    if (update != nullptr) {
      for (std::size_t i = 0; i < r.size(); ++i) {
        update->x[i] += update->alpha * update->p[i];
        r[i] -= update->alpha * update->ap[i];
      }
    }
    preconditioner(r, z);
    return dot_self_and(r, z);
  }
};

// Solves A x = b for SPD A preconditioned by M, the one PCG loop. `op`
// holds both in fused form (UnfusedPcg is the reference):
//   double op.apply(v, Av)                     -- Av, returns v'Av;
//   {r'r, r'z} op.precondition(r, z, update)   -- applies the update (if
//       not null) to x and r, then z = M^-1 r.
// Starts from `x0`, or from zero when it is empty; stops once
// ||b - A x|| <= `stop`, after `max_iterations` (0 = default cap), or
// with `breakdown` when p'Ap is not positive (A not SPD, or a NaN) or
// `stop` is not finite (a right-hand side whose norm overflowed: no
// iterate can be judged against it). Polls the watchdog
// (util/cancel.hpp) every 16 iterations under `cancel_label`.
template <typename Operator>
CgResult preconditioned_cg(const Operator& op, const std::vector<double>& b,
                           std::vector<double> x0, double stop,
                           std::size_t max_iterations,
                           const char* cancel_label) {
  const std::size_t n = b.size();
  if (max_iterations == 0) max_iterations = default_cg_iterations(n);

  CgResult result;
  result.x = std::move(x0);
  std::vector<double> r(n);
  if (!result.x.empty()) {
    (void)op.apply(result.x, r);
    for (std::size_t i = 0; i < n; ++i) r[i] = b[i] - r[i];
  } else {
    result.x.assign(n, 0.0);
    r = b;
  }
  std::vector<double> z(n), ap(n);
  double rr, rz;
  std::tie(rr, rz) = op.precondition(r, z, nullptr);
  std::vector<double> p = z;
  if (!std::isfinite(stop)) {
    result.residual_norm = std::sqrt(rr);
    result.breakdown = true;
    return result;
  }

  for (std::size_t it = 0; it < max_iterations; ++it) {
    if ((it & 15u) == 0) util::throw_if_cancelled(cancel_label);
    result.residual_norm = std::sqrt(rr);
    if (result.residual_norm <= stop) {
      result.converged = true;
      result.iterations = it;
      return result;
    }
    const double pap = op.apply(p, ap);
    if (!(pap > 0.0)) {
      result.breakdown = true;
      break;
    }
    const double alpha = rz / pap;
    const CgUpdate update{alpha, p, ap, result.x};
    double rz_next;
    std::tie(rr, rz_next) = op.precondition(r, z, &update);
    const double beta = rz_next / rz;
    rz = rz_next;
    for (std::size_t i = 0; i < n; ++i) p[i] = z[i] + beta * p[i];
    result.iterations = it + 1;
  }
  result.residual_norm = std::sqrt(rr);
  result.converged = result.residual_norm <= stop;
  return result;
}

// The same loop over a plain operator and preconditioner (UnfusedPcg).
template <typename MatVec, typename Precondition>
CgResult preconditioned_cg(const MatVec& apply,
                           const Precondition& precondition,
                           const std::vector<double>& b,
                           std::vector<double> x0, double stop,
                           std::size_t max_iterations,
                           const char* cancel_label) {
  return preconditioned_cg(
      UnfusedPcg<MatVec, Precondition>{apply, precondition}, b,
      std::move(x0), stop, max_iterations, cancel_label);
}

}  // namespace mnsim::numeric
