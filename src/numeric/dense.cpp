#include "numeric/dense.hpp"

#include <stdexcept>
#include <utility>

#include "numeric/factorization.hpp"
#include "util/fp.hpp"

namespace mnsim::numeric {

DenseMatrix::DenseMatrix(std::size_t rows, std::size_t cols, double fill)
    : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

DenseMatrix DenseMatrix::transpose() const {
  DenseMatrix t(cols_, rows_);
  for (std::size_t r = 0; r < rows_; ++r)
    for (std::size_t c = 0; c < cols_; ++c) t(c, r) = (*this)(r, c);
  return t;
}

DenseMatrix DenseMatrix::operator*(const DenseMatrix& rhs) const {
  if (cols_ != rhs.rows_)
    throw std::invalid_argument("DenseMatrix::operator*: shape mismatch");
  DenseMatrix out(rows_, rhs.cols_);
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t k = 0; k < cols_; ++k) {
      double a = (*this)(r, k);
      if (util::exactly_zero(a)) continue;
      for (std::size_t c = 0; c < rhs.cols_; ++c) out(r, c) += a * rhs(k, c);
    }
  }
  return out;
}

std::vector<double> DenseMatrix::operator*(const std::vector<double>& v) const {
  if (cols_ != v.size())
    throw std::invalid_argument("DenseMatrix::operator*: vector size");
  std::vector<double> out(rows_, 0.0);
  for (std::size_t r = 0; r < rows_; ++r)
    for (std::size_t c = 0; c < cols_; ++c) out[r] += (*this)(r, c) * v[c];
  return out;
}

std::vector<double> lu_solve(DenseMatrix a, std::vector<double> b) {
  const std::size_t n = a.rows();
  if (a.cols() != n || b.size() != n)
    throw std::invalid_argument("lu_solve: shape mismatch");
  const LuFactorization lu(std::move(a));
  lu.solve_in_place(b);
  return b;
}

}  // namespace mnsim::numeric
