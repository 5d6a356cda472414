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
// The rung's input is a ChainSystem: the reduced matrix stored as the
// chain tridiagonals and cell couplings themselves, which the MNA
// assembly stamps straight into (spice/mna.cpp). Factoring it is the
// chain LDL^T alone -- there is no general sparse matrix to extract the
// structure from. A SchurFactorization separates that factor-once work
// from the per-RHS solve, so multi-RHS workloads on one matrix (a
// shared-matrix spice::solve_crossbar_batch, a linear transient) factor
// once, through spice::MnaCache::factor.
//
// A crossbar has M row chains of length N and N column chains of length
// M + 1, so the chain kernels (factor, forward/back substitution) run
// runs of equal-length chains in lockstep, a few chains per step: their
// recurrences overlap in the pipeline instead of each waiting on its own
// latency. Every element still sees the operations of a chain-by-chain
// sweep in the same order (division stays division, no contraction), so
// lockstep changes no bit; the lockstep factor checks each step's pivots
// before the next step divides by them. The Schur operator gathers: the
// cell products are summed as the eliminated chain solve reaches each
// row, and each kept row sums its chain terms and then its cells.
//
// A builder crossbar has exactly one cell per row tap and at most one
// per column-side position, and its layout says so (ChainLayout::
// one_cell, with each kept position's partner stored once, at layout
// time). The cell gathers of the three row-chain solves and the kept
// rows of the operator then read that partner directly, each kept chain
// with its two ends peeled off, instead of looping over a cell range;
// any other partition keeps the range loops. The PCG passes are folded
// into the chain sweeps: the operator's kept sweep also sums p'Sp, the
// preconditioner's forward sweep applies x += alpha p and r -= alpha Sp
// as it reads r, and r'r and r'z are summed per lockstep group right
// after its back sweep. Each sum keeps its ascending-index order, so
// neither path nor fusion moves a bit; numeric/pcg.hpp stays the one
// PCG loop, taking the operator and preconditioner step as callbacks.
// Everything here is deterministic: no randomness, no thread-count or
// schedule dependence, so the platform's bit-identity contracts hold.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <utility>
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
  // The unknown pairs a cell may couple across the two sides (a
  // crossbar's memristors), in either order. Pairs inside one side are
  // chain couplings and ignored here; repeats share one coupling.
  std::vector<std::pair<std::size_t, std::size_t>> cells;

  [[nodiscard]] bool empty() const {
    return eliminated_chains.empty() || kept_chains.empty();
  }
};

// Where a partition puts each unknown, shared (immutable) by a
// ChainSystem, its copies and the factorizations built from it. Every
// unknown has a position: the eliminated chains' unknowns first, chain
// by chain in wire order, [0, nb), then the kept chains', [nb, n).
struct ChainLayout {
  std::size_t n = 0;
  std::size_t nb = 0;
  std::vector<std::uint32_t> position;  // unknown -> position
  std::vector<std::uint32_t> unknown;   // position -> unknown
  std::vector<char> chain_first;        // position starts a chain
  // Chain k of a side covers side-local positions [start[k], start[k+1]).
  std::vector<std::size_t> b_chain_start;
  std::vector<std::size_t> c_chain_start;
  // Cell couplings, from the partition's cells: eliminated position p
  // couples to kept positions cross_col[k] for k in
  // [cross_start[p], cross_start[p+1]), in ascending unknown order.
  std::vector<std::uint32_t> cross_start;  // nb + 1 entries
  std::vector<std::uint32_t> cross_col;
  // The same couplings by kept side-local position c: entries
  // [kept_cross_start[c], kept_cross_start[c+1]) of kept_cross, each an
  // eliminated position b and its index k in cross_col, ascending in b.
  struct Cell {
    std::uint32_t b;
    std::uint32_t k;
  };
  std::vector<std::uint32_t> kept_cross_start;  // n - nb + 1 entries
  std::vector<Cell> kept_cross;
  // The crossbar shape: every eliminated position has exactly one cell
  // (so its index in cross_col is the position itself) and every kept
  // position at most one. The Schur kernels then index each position's
  // partner directly -- eliminated position b's is cross_col[b], kept
  // side-local position c's is kept_partner[c], or nb where c has none --
  // instead of looping over its cell range.
  bool one_cell = false;
  std::vector<std::uint32_t> kept_partner;  // n - nb entries when one_cell
  // Matrix-vector product plan: the entries of unknown g's row, in
  // ascending column unknown, are (value slot, column) pairs
  // [plan_start[g], plan_start[g+1]) -- CsrMatrix::multiply's order.
  struct Term {
    std::uint32_t slot;
    std::uint32_t col;
  };
  std::vector<std::uint32_t> plan_start;
  std::vector<Term> plan;
};

// The reduced matrix of a partitioned system in the Schur rung's own
// layout: per position its diagonal and its coupling to the previous and
// next position of its chain, and per cell coupling its two entries
// A(b, c) and A(c, b). It is a stamp sink (add(row, col, value)), so the
// MNA assembly fills it in place of a CSR matrix: every slot starts at
// 0.0 and sums its adds in the order they come, the same floats a CSR
// assembly of the same stamps holds.
//
// The pattern is fixed when the system is laid out: the chains and the
// partition's cells. An add that lands on no slot -- a coupling inside
// one side that is not a chain neighbour, a cross coupling that is not a
// cell, an out-of-range index -- makes finish() return false: the matrix
// does not have the claimed structure and the caller takes the generic
// path. When the first assembly misses, the system is broken() for good.
class ChainSystem {
 public:
  ChainSystem() = default;
  // Lays out `partition` over unknowns [0, n). A partition that does not
  // cover every unknown exactly once, names a cell outside [0, n) (or n
  // beyond what 32-bit slot indices address) yields an empty() system.
  ChainSystem(const BipartitePartition& partition, std::size_t n);

  [[nodiscard]] bool empty() const { return layout_ == nullptr; }
  // An assembly has finished with every add on a slot; later ones are
  // refills of the same pattern.
  [[nodiscard]] bool assembled() const { return assembled_; }
  [[nodiscard]] bool broken() const { return broken_; }
  [[nodiscard]] std::size_t size() const { return layout_ ? layout_->n : 0; }

  // --- assembly -------------------------------------------------------
  // Starts an assembly from all-zero slots.
  void begin();
  void add(std::size_t row, std::size_t col, double value) {
    const ChainLayout& l = *layout_;
    if (row >= l.n || col >= l.n) {
      ok_ = false;
      return;
    }
    const std::uint32_t p = l.position[row];
    if (row == col) {
      values_[p] += value;
      return;
    }
    const std::uint32_t q = l.position[col];
    if ((p < l.nb) == (q < l.nb))
      add_chain(p, q, value);
    else if (p < l.nb)
      add_cell(p, q, value, kCell);
    else
      add_cell(q, p, value, kMirror);
  }
  // The four adds of a conductance g between unknowns row != col: g on
  // both diagonals, -g on both couplings. Each lands on its own slot, so
  // one call sums exactly as the four add() calls would.
  void couple(std::size_t row, std::size_t col, double g) {
    const ChainLayout& l = *layout_;
    if (row >= l.n || col >= l.n || row == col) {
      ok_ = false;
      return;
    }
    const std::uint32_t p = l.position[row];
    const std::uint32_t q = l.position[col];
    values_[p] += g;
    values_[q] += g;
    if ((p < l.nb) == (q < l.nb)) {
      add_chain(p, q, -g);
      add_chain(q, p, -g);
    } else if (p < l.nb) {
      add_cell(p, q, -g, kCell | kMirror);
    } else {
      add_cell(q, p, -g, kCell | kMirror);
    }
  }
  // Snapshots the slots mid-assembly; restore_base() starts a later
  // assembly from that snapshot instead of from zero. Adds made after
  // the snapshot then sum onto the same partial sums a full assembly
  // would reach, so the values are unchanged. A restore copies the
  // diagonal and cell slots, and the chain couplings only when an add
  // has reached one since the snapshot or the last restore (a companion
  // across two chain neighbours, as an imported netlist may hold).
  void save_base();
  void restore_base();
  // A snapshot has been taken since the system was laid out.
  [[nodiscard]] bool has_base() const { return !base_.empty(); }
  // Ends an assembly; true when every add landed on a slot.
  bool finish();

  // y = A x, each row summed in ascending column unknown from 0.0, as
  // CsrMatrix::multiply sums it.
  void multiply(const std::vector<double>& x, std::vector<double>& y) const;
  // The true residual of x in one pass: {||b - A x||^2, ||b||^2}, each
  // row of A x summed as multiply() sums it, both squares summed in
  // ascending unknown order -- the floats of multiply(), b - A x and two
  // dot products.
  [[nodiscard]] std::pair<double, double> residual(
      const std::vector<double>& x, const std::vector<double>& b) const;

  // The slot (row, col) sums into, or nullopt when there is none.
  // mnsim-analyze: allow(unreferenced-api, test oracle: test_spice_mna compares every slot with the CSR assembly of the same stamps)
  [[nodiscard]] std::optional<double> value(std::size_t row,
                                            std::size_t col) const;

 private:
  friend class SchurFactorization;

  // Which entries of a cell coupling an add reaches: A(b, c), A(c, b).
  static constexpr unsigned kCell = 1;
  static constexpr unsigned kMirror = 2;

  // An add between positions p and q of one side: the previous- or
  // next-neighbour coupling of p, or a miss.
  void add_chain(std::uint32_t p, std::uint32_t q, double value) {
    const ChainLayout& l = *layout_;
    chain_written_ = true;
    if (q + 1 == p && !l.chain_first[p])
      values_[l.n + p] += value;
    else if (p + 1 == q && !l.chain_first[q])
      values_[2 * l.n + p] += value;
    else
      ok_ = false;
  }
  // An add to the coupling of eliminated position b and kept position c,
  // or a miss.
  void add_cell(std::uint32_t b, std::uint32_t c, double value,
                unsigned which) {
    const ChainLayout& l = *layout_;
    for (std::uint32_t k = l.cross_start[b]; k < l.cross_start[b + 1]; ++k) {
      if (l.cross_col[k] == c) {
        if (which & kCell) values_[3 * l.n + k] += value;
        if (which & kMirror) values_[3 * l.n + l.cross_col.size() + k] += value;
        return;
      }
    }
    ok_ = false;
  }

  std::shared_ptr<const ChainLayout> layout_;
  // Slots: diagonal [0, n), previous-neighbour coupling [n, 2n),
  // next-neighbour coupling [2n, 3n), by position; then A(b, c) and then
  // A(c, b) of every cell coupling, in cross_start/cross_col order.
  std::vector<double> values_;
  std::vector<double> base_;
  // A chain-coupling slot may differ from base_ (see restore_base).
  bool chain_written_ = true;
  bool base_ok_ = true;
  bool ok_ = true;
  bool assembled_ = false;
  bool broken_ = false;
};

class SchurFactorization;

namespace internal {
// SchurFactorization::solve through the range-loop cell gathers whatever
// the layout: the reference the direct-indexed crossbar kernels are
// tested against, bit for bit.
// mnsim-analyze: allow(unreferenced-api, test oracle: test_numeric_factorization compares the one-cell kernels with the range loops)
CgResult solve_with_range_loops(const SchurFactorization& factor,
                                const ChainSystem& system,
                                const std::vector<double>& b,
                                double tolerance,
                                const std::vector<double>* initial_guess);
}  // namespace internal

// Factor-once handle: factors every chain of an assembled ChainSystem
// (LDL^T) and keeps the factors, values only: the index arrays are the
// system's layout, which the factor shares. build() never throws -- a
// system that is not assembled, broken, or has a chain pivot that is not
// positive (NaN included) yields valid() == false and the caller falls
// back to the generic ladder. The factorization is tied to the system's
// values when it was built, and solve() reads the couplings from that
// system: reuse it only while they are unchanged (spice::MnaCache keeps
// one only for refills its owner vouches reproduce them). solve() is
// const and keeps its buffers local, so one factor serves several
// threads at once.
class SchurFactorization {
 public:
  SchurFactorization() = default;

  static SchurFactorization build(const ChainSystem& system);

  [[nodiscard]] bool valid() const { return valid_; }
  [[nodiscard]] std::size_t size() const { return n_; }

  // Solves A x = b through the eliminated/Schur split, the Schur side
  // by the PCG kernel (numeric/pcg.hpp) preconditioned by the kept
  // chains. `system` is the one the factor was built from (or a copy
  // holding the same values); `initial_guess` (full-system size, may be
  // null) seeds the PCG. Convergence criterion matches the CG rung: the
  // Schur residual -- which equals the full-system residual, the
  // eliminated side being solved exactly -- must fall below tolerance *
  // ||b||. x is the full-system solution; the rest describes the Schur
  // iteration.
  //
  // A crossbar layout (ChainLayout::one_cell) runs the direct-indexed
  // cell gathers, any other the range loops; both sum the same terms in
  // the same order. The PCG passes are fused into the chain sweeps: the
  // operator's kept sweep sums p'Ap, the preconditioner's forward sweep
  // applies x += alpha p and r -= alpha Ap, and r'r and r'z are summed
  // per lockstep group right after its back sweep -- each sum in
  // ascending index, so the floats are those of separate passes.
  [[nodiscard]] CgResult solve(
      const ChainSystem& system, const std::vector<double>& b,
      double tolerance,
      const std::vector<double>* initial_guess = nullptr) const;

 private:
  // mnsim-analyze: allow(unreferenced-api, test oracle: the range-loop reference of the one-cell kernels)
  friend CgResult internal::solve_with_range_loops(
      const SchurFactorization&, const ChainSystem&,
      const std::vector<double>&, double, const std::vector<double>*);

  // solve() with the direct-indexed (kOneCell) or the range-loop cell
  // gathers.
  template <bool kOneCell>
  CgResult solve_impl(const ChainSystem& system, const std::vector<double>& b,
                      double tolerance,
                      const std::vector<double>* initial_guess) const;

  bool valid_ = false;
  std::size_t n_ = 0;
  std::shared_ptr<const ChainLayout> layout_;

  // Factored chains (LDL^T): piv = D, lfac = unit-lower multipliers.
  std::vector<double> b_piv_, b_lfac_;
  std::vector<double> c_piv_, c_lfac_;
};

namespace internal {

// The chain kernels of SchurFactorization, over the chains of `start`
// (chain k covers side-local positions [start[k], start[k+1])). Runs of
// equal-length chains go in lockstep, a few at a time; each element sees
// the operations of a chain-by-chain sweep in their order, so the floats
// are those of one.
//
// LDL^T of each tridiagonal chain (diagonal `diag`, previous-neighbour
// coupling `off`): pivots `piv` (D), unit-lower multipliers `lfac`. False
// on a pivot that is not positive (or NaN), before any division by it.
bool factor_chains(const std::vector<std::size_t>& start, const double* diag,
                   const double* off, std::vector<double>& piv,
                   std::vector<double>& lfac);
// out = (L D L^T)^-1 in, chain by chain; `in` may be `out`.
// mnsim-analyze: allow(unreferenced-api, test oracle: test_numeric_factorization holds the lockstep solve that the fused preconditioner step runs to a sequential sweep)
void chain_solve(const std::vector<std::size_t>& start,
                 const std::vector<double>& piv,
                 const std::vector<double>& lfac, const double* in,
                 double* out);

}  // namespace internal

}  // namespace mnsim::numeric
