// Sparse symmetric matrices for the MNA solver.
//
// A crossbar's resistor network has ~5 nonzeros per node, so the DC
// operating point is solved with compressed-sparse-row storage and
// conjugate gradients (the conductance matrix of a grounded resistive
// network is symmetric positive definite).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace mnsim::numeric {

// Coordinate-format (triplet) builder; duplicate (row, col) entries
// accumulate when the triplets are compressed into a CsrMatrix. Indices
// are stored in 32 bits, so n is limited to 2^32 - 1 (the constructor
// throws std::length_error beyond that).
class SparseBuilder {
 public:
  explicit SparseBuilder(std::size_t n);

  // Capacity for `adds` add() calls, when the caller can bound them.
  void reserve(std::size_t adds);
  void add(std::size_t row, std::size_t col, double value);

  [[nodiscard]] std::size_t size() const { return n_; }

 private:
  friend class CsrMatrix;
  struct Triplet {
    std::uint32_t row;
    std::uint32_t col;
    double value;
  };
  std::size_t n_;
  std::vector<Triplet> triplets_;  // insertion order
};

// CSR matrix with a fixed sparsity pattern. The pattern is set once by
// construction from a SparseBuilder: a counting sort of the triplets by
// row, a column sort within each row that keeps duplicates in insertion
// order, and duplicates summed from 0.0 in that order; O(nnz + n) for
// the few entries per row of a circuit matrix. Afterwards the values can
// be refilled in place (zero_values + add_at / add_at_slot) without
// rebuilding the pattern, the hot path for sweeps that re-stamp one
// topology many times.
class CsrMatrix {
 public:
  CsrMatrix() = default;
  // When `slot_of_add` is non-null it receives, for the k-th add() made
  // to the builder, the CSR slot that add landed in: the scatter map
  // that lets a refill of the same stamp sequence skip the column search.
  explicit CsrMatrix(const SparseBuilder& builder,
                     std::vector<std::uint32_t>* slot_of_add = nullptr);

  [[nodiscard]] std::size_t size() const { return n_; }

  // y = A x
  void multiply(const std::vector<double>& x, std::vector<double>& y) const;

  // Diagonal (for Jacobi preconditioning); zero or structurally missing
  // diagonal entries are returned as 1.0 so the vector stays usable, but
  // when `defect` is non-null it is set to true in that case — a zero
  // diagonal makes the Jacobi preconditioner garbage (the matrix cannot
  // be SPD), so solvers should route such systems to a direct method
  // instead of burning CG iterations.
  [[nodiscard]] std::vector<double> jacobi_diagonal(
      bool* defect = nullptr) const;

  // --- value refill (pattern reuse) ---------------------------------
  // Resets every stored value to zero, keeping the sparsity pattern.
  void zero_values();
  // Accumulates `value` into the existing (row, col) slot. Returns false
  // (matrix unchanged) when the slot is not part of the pattern — the
  // caller must then fall back to a full rebuild.
  bool add_at(std::size_t row, std::size_t col, double value);
  // add_at through a scatter-map slot: accumulates into `slot` when it
  // lies in `row` and holds `col`, otherwise falls back to add_at's
  // column search (so a stale map never misplaces a value).
  bool add_at_slot(std::size_t slot, std::size_t row, std::size_t col,
                   double value) {
    if (row < n_ && slot >= row_start_[row] && slot < row_start_[row + 1] &&
        col_[slot] == col) {
      values_[slot] += value;
      return true;
    }
    return add_at(row, col, value);
  }

  // Row-major dense expansion (n x n doubles); used by the dense-LU
  // fallback of solve_spd_resilient. Callers should bound n themselves.
  [[nodiscard]] std::vector<double> to_dense_rows() const;

  // Raw CSR views (read-only): row r's entries live at
  // [row_start()[r], row_start()[r+1]) in cols()/values(), sorted by
  // column within each row.
  // mnsim-analyze: allow(unreferenced-api, test oracle: the chain-system tests compare numeric::ChainSystem with the CSR entry by entry)
  [[nodiscard]] const std::vector<std::size_t>& row_start() const {
    return row_start_;
  }
  [[nodiscard]] const std::vector<std::size_t>& cols() const { return col_; }
  [[nodiscard]] const std::vector<double>& values() const { return values_; }

 private:
  std::size_t n_ = 0;
  std::vector<std::size_t> row_start_;
  std::vector<std::size_t> col_;  // sorted within each row
  std::vector<double> values_;
};

struct CgResult {
  std::vector<double> x;
  std::size_t iterations = 0;
  double residual_norm = 0.0;
  bool converged = false;
  // True when the iteration stopped on p'Ap not positive (the matrix is
  // not SPD, rounding broke the recurrence, or a NaN reached it) or on a
  // stop threshold that is not finite, rather than on the iteration cap.
  bool breakdown = false;
  // True when the matrix had a zero / missing diagonal entry: the Jacobi
  // preconditioner is undefined and CG refuses to iterate (breakdown is
  // also set). solve_spd_resilient routes these to the dense fallback.
  bool diagonal_defect = false;
};

// Jacobi-preconditioned conjugate gradient for SPD systems. When
// `initial_guess` is non-null (size n) the iteration warm-starts from it
// instead of zero.
CgResult conjugate_gradient(const CsrMatrix& a, const std::vector<double>& b,
                            double tolerance = 1e-10,
                            std::size_t max_iterations = 0,
                            const std::vector<double>* initial_guess = nullptr);

}  // namespace mnsim::numeric
