// Structure-exploiting crossbar solver: bipartite Schur complement.
//
// The reduced MNA matrix of an M x N crossbar has a known shape the
// generic CG / dense-LU ladder ignores: the free nodes split into
// row-wire taps and column-wire taps (+ sense nodes), each wire is a
// tridiagonal chain, and the only coupling between the two sides is one
// cell conductance per tap pair. In block form
//
//     [ A_rr  A_rc ] [x_r]   [b_r]      A_rr = M tridiagonal chains
//     [ A_rc' A_cc ] [x_c] = [b_c]      A_cc = N tridiagonal chains
//
// so the row side can be eliminated exactly with M Thomas solves and
// the remaining Schur system S = A_cc - A_rc' A_rr^-1 A_rc solved by
// conjugate gradients preconditioned with the exactly-invertible A_cc.
// Because the cross coupling (cell conductances, kilo-ohms and up) is
// weak against the wire chains (sub-ohm segments), the preconditioned
// spectrum clusters tightly around 1 and the iteration converges in a
// handful of steps regardless of crossbar size -- O(M N) per solve in
// practice, against thousands of plain-CG iterations on the full
// ill-conditioned system (see PAPERS.md: XbarSim and "A Fast Method for
// Steady-State Memristor Crossbar Array Circuit Simulation").
//
// The factorization object separates the factor-once work (structure
// extraction, chain LDL^T factors) from the per-RHS solve, so multi-RHS
// workloads on one matrix (a shared-matrix spice::solve_crossbar_batch, a
// linear transient) pay extraction once, through spice::MnaCache::factor.
// Everything here is deterministic: no randomness, no thread-count or
// schedule dependence, so the platform's bit-identity contracts hold.
#pragma once

#include <cstddef>
#include <vector>

#include "numeric/sparse.hpp"

namespace mnsim::numeric {

// Partition of the reduced system's unknown indices into wire chains.
// Chains list unknown indices in wire order (adjacent entries are
// expected to be tridiagonally coupled); every unknown must appear in
// exactly one chain. `eliminated_chains` is the side removed by the
// Thomas solves (row wires); `kept_chains` is the Schur side (column
// wires + sense nodes).
struct BipartitePartition {
  std::vector<std::vector<std::size_t>> eliminated_chains;
  std::vector<std::vector<std::size_t>> kept_chains;

  [[nodiscard]] bool empty() const {
    return eliminated_chains.empty() || kept_chains.empty();
  }
};

// Factor-once handle: extracts the chain structure from `a`, factors
// every chain (LDL^T), and keeps the cross-coupling block. build()
// never throws on a mismatch -- a matrix whose sparsity or values break
// the assumed structure (an entry outside the chains, a non-positive
// chain pivot) yields valid() == false and the caller falls back to the
// generic ladder. The factorization is tied to the exact values of `a`:
// reuse it only while the matrix is unchanged (spice::MnaCache keeps one
// only for refills its owner vouches reproduce `a`).
class SchurFactorization {
 public:
  SchurFactorization() = default;

  static SchurFactorization build(const CsrMatrix& a,
                                  const BipartitePartition& partition);

  [[nodiscard]] bool valid() const { return valid_; }
  [[nodiscard]] std::size_t size() const { return n_; }

  // Solves A x = b through the eliminated/Schur split, the Schur side
  // by the PCG kernel (numeric/pcg.hpp) preconditioned by the kept
  // chains. `initial_guess` (full-system size, may be null) seeds it.
  // Convergence criterion matches the CG rung: the Schur residual --
  // which equals the full-system residual, the eliminated side being
  // solved exactly -- must fall below tolerance * ||b||. x is the
  // full-system solution; the rest describes the Schur iteration.
  [[nodiscard]] CgResult solve(
      const std::vector<double>& b, double tolerance,
      const std::vector<double>* initial_guess = nullptr) const;

 private:
  bool valid_ = false;
  std::size_t n_ = 0;

  // Global index <-> (side, local) maps. Locals are dense and ordered
  // chain-by-chain so per-chain data can live in flat arrays.
  std::vector<std::size_t> b_global_;  // B-local -> global
  std::vector<std::size_t> c_global_;  // C-local -> global
  std::vector<int> side_;              // 0 = eliminated (B), 1 = kept (C)
  std::vector<std::size_t> local_;     // global -> side-local index

  // Chain layout: chain k's locals are [start[k], start[k+1]).
  std::vector<std::size_t> b_chain_start_;
  std::vector<std::size_t> c_chain_start_;

  // Factored chains (LDL^T): piv = D, lfac = unit-lower multipliers,
  // off = original sub-diagonal (off[first-of-chain] unused). The kept
  // side also keeps its original diagonal for the S matvec.
  std::vector<double> b_piv_, b_lfac_, b_off_;
  std::vector<double> c_piv_, c_lfac_, c_off_, c_diag_;

  // Cross block A_bc in CSR over B-locals (columns are C-locals).
  std::vector<std::size_t> bc_start_, bc_col_;
  std::vector<double> bc_val_;

  void chain_solve_b(std::vector<double>& v) const;
  void chain_solve_c(std::vector<double>& v) const;
  void acc_multiply(const std::vector<double>& x,
                    std::vector<double>& y) const;
  void apply_schur(const std::vector<double>& x, std::vector<double>& y,
                   std::vector<double>& scratch) const;
};

}  // namespace mnsim::numeric
