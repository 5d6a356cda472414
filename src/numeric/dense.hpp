// Dense matrix with LU factorization.
//
// Used for small systems: the least-squares normal equations behind the
// Fig. 5 accuracy-model fit, and as the reference solver the sparse path
// is validated against in tests.
#pragma once

#include <cstddef>
#include <vector>

namespace mnsim::numeric {

class DenseMatrix {
 public:
  DenseMatrix() = default;
  DenseMatrix(std::size_t rows, std::size_t cols, double fill = 0.0);


  [[nodiscard]] std::size_t rows() const { return rows_; }
  [[nodiscard]] std::size_t cols() const { return cols_; }

  double& operator()(std::size_t r, std::size_t c) {
    return data_[r * cols_ + c];
  }
  double operator()(std::size_t r, std::size_t c) const {
    return data_[r * cols_ + c];
  }

  [[nodiscard]] DenseMatrix transpose() const;
  [[nodiscard]] DenseMatrix operator*(const DenseMatrix& rhs) const;
  [[nodiscard]] std::vector<double> operator*(
      const std::vector<double>& v) const;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

// Solves A x = b by LU with partial pivoting. `a` is consumed (factorized
// in place on a copy). Throws std::runtime_error on a (numerically)
// singular matrix — the pivot threshold scales with max|a_ij| (see
// numeric/factorization.hpp). For repeated solves against one matrix,
// factor once with LuFactorization instead.
// mnsim-analyze: allow(unreferenced-api, test oracle: the sparse CG and Schur solvers are checked against it)
std::vector<double> lu_solve(DenseMatrix a, std::vector<double> b);

}  // namespace mnsim::numeric
