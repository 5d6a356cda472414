#pragma once

// Floating-point comparison and trap-control helpers.
//
// mnsim-analyze's fp-equality rule forbids raw `==` / `!=` between
// floating-point operands in the numeric core (src/numeric, src/spice,
// src/accuracy): two independently-computed doubles are almost never
// bit-identical, so a raw compare silently becomes "always false" (or,
// worse, flips with the optimization level). Route the comparison through
// one of the helpers below; each spells out which semantics it provides,
// so the choice is visible at the call site and to the analyzer.
//
// fpe_guard is the escape hatch for the -DMNSIM_FPE tripwire
// (tests/fpe_harness.cpp): the rare piece of library code that *means* to
// produce or probe a non-finite value opens a guard for the smallest
// possible scope, and the traps re-arm on scope exit.

#include <cfenv>
#include <cmath>

namespace mnsim::util {

// True when |a - b| is within `abs_tol` or within `rel_tol` of the larger
// magnitude. The defaults suit quantities that went through a handful of
// arithmetic operations; tighten abs_tol when comparing around zero with
// known scale. NaN compares unequal to everything, matching IEEE intent.
inline bool approx_equal(double a, double b, double rel_tol = 1e-12,
                         double abs_tol = 1e-15) {
  if (a == b) return true;  // fast path; also covers equal infinities
  const double diff = std::fabs(a - b);
  if (diff <= abs_tol) return true;
  const double scale = std::fmax(std::fabs(a), std::fabs(b));
  return diff <= rel_tol * scale;
}

// Bit-exact equality, for sentinel semantics only: a value that was
// assigned a literal and never touched by arithmetic (defaulted fields,
// "unset" markers, sparsity checks on stored-not-derived entries). Using
// this on a computed value is the exact bug fp-equality exists to catch —
// the name makes that choice auditable at the call site.
inline bool exactly_equal(double a, double b) { return a == b; }
inline bool exactly_zero(double x) { return x == 0.0; }

// RAII mask for the MNSIM_FPE tripwire: disables the given FP traps for
// the current scope and restores the previous trap mask on destruction.
// No-op (but still well-formed) on platforms without feenableexcept or
// when the tripwire is off — trap state is simply absent there.
class fpe_guard {
 public:
#if defined(__GLIBC__) && defined(__x86_64__)
  explicit fpe_guard(int excepts = FE_INVALID | FE_DIVBYZERO | FE_OVERFLOW)
      : restore_(::fedisableexcept(excepts) & excepts) {
    // fedisableexcept returns the previously-enabled set; re-arm exactly
    // the traps we masked that were armed before.
    std::feclearexcept(excepts);
    masked_ = excepts;
  }
  ~fpe_guard() {
    std::feclearexcept(masked_);
    ::feenableexcept(restore_);
  }

 private:
  int restore_;
  int masked_;
#else
  explicit fpe_guard(int = 0) {}
  ~fpe_guard() = default;
#endif

 public:
  fpe_guard(const fpe_guard&) = delete;
  fpe_guard& operator=(const fpe_guard&) = delete;
};

}  // namespace mnsim::util
