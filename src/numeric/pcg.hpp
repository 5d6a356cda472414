// The one preconditioned conjugate-gradient loop of the solver ladder:
// Jacobi CG on the full MNA system (conjugate_gradient) and the
// Schur-side PCG (SchurFactorization::solve) differ only in the operator
// and the preconditioner they hand in.
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

// Solves A x = b for SPD A given as `apply(v, Av)`, preconditioned by
// `precondition(r, z)` (z = M^-1 r, z sized). Starts from `x0`, or from
// zero when it is empty; stops once ||b - A x|| <= `stop`, after
// `max_iterations` (0 = default cap), or with `breakdown` on p'Ap <= 0
// (A not SPD). Polls the watchdog (util/cancel.hpp) every 16 iterations
// under `cancel_label`.
template <typename MatVec, typename Precondition>
CgResult preconditioned_cg(const MatVec& apply,
                           const Precondition& precondition,
                           const std::vector<double>& b,
                           std::vector<double> x0, double stop,
                           std::size_t max_iterations,
                           const char* cancel_label) {
  const std::size_t n = b.size();
  if (max_iterations == 0) max_iterations = default_cg_iterations(n);

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
  double rr, rz;
  std::tie(rr, rz) = dot_self_and(r, z);

  for (std::size_t it = 0; it < max_iterations; ++it) {
    if ((it & 15u) == 0) util::throw_if_cancelled(cancel_label);
    result.residual_norm = std::sqrt(rr);
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
    double rz_next;
    std::tie(rr, rz_next) = dot_self_and(r, z);
    const double beta = rz_next / rz;
    rz = rz_next;
    for (std::size_t i = 0; i < n; ++i) p[i] = z[i] + beta * p[i];
    result.iterations = it + 1;
  }
  result.residual_norm = std::sqrt(rr);
  result.converged = result.residual_norm <= stop;
  return result;
}

}  // namespace mnsim::numeric
