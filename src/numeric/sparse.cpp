#include "numeric/sparse.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "numeric/pcg.hpp"
#include "util/fp.hpp"

namespace mnsim::numeric {

namespace {

constexpr std::size_t kMaxIndex = std::numeric_limits<std::uint32_t>::max();

}  // namespace

SparseBuilder::SparseBuilder(std::size_t n) : n_(n) {
  if (n > kMaxIndex)
    throw std::length_error("SparseBuilder: dimension exceeds 32-bit index");
}

void SparseBuilder::reserve(std::size_t adds) { triplets_.reserve(adds); }

void SparseBuilder::add(std::size_t row, std::size_t col, double value) {
  if (row >= n_ || col >= n_)
    throw std::out_of_range("SparseBuilder::add: index out of range");
  triplets_.push_back({static_cast<std::uint32_t>(row),
                       static_cast<std::uint32_t>(col), value});
}

CsrMatrix::CsrMatrix(const SparseBuilder& builder,
                     std::vector<std::uint32_t>* slot_of_add)
    : n_(builder.size()) {
  const auto& trip = builder.triplets_;
  if (trip.size() > kMaxIndex)
    throw std::length_error("CsrMatrix: triplet count exceeds 32-bit index");

  // Counting sort by row of (column, insertion index) keys packed into 64
  // bits: sorting a row's keys then orders it by column, and the keys of
  // one column by insertion.
  std::vector<std::uint32_t> start(n_ + 1, 0);
  for (const auto& t : trip) ++start[t.row + 1];
  for (std::size_t r = 0; r < n_; ++r) start[r + 1] += start[r];
  std::vector<std::uint64_t> key(trip.size());
  {
    std::vector<std::uint32_t> cursor(start.begin(), start.end() - 1);
    for (std::size_t k = 0; k < trip.size(); ++k)
      key[cursor[trip[k].row]++] =
          (std::uint64_t{trip[k].col} << 32) | static_cast<std::uint32_t>(k);
  }

  // Column sort within each row (keys are unique, so the order is too),
  // counting the distinct columns.
  row_start_.assign(n_ + 1, 0);
  for (std::size_t r = 0; r < n_; ++r) {
    const auto first = key.begin() + start[r];
    const auto last = key.begin() + start[r + 1];
    std::sort(first, last);
    std::size_t distinct = 0;
    for (auto it = first; it != last; ++it)
      if (it == first || (*it >> 32) != (*(it - 1) >> 32)) ++distinct;
    row_start_[r + 1] = row_start_[r] + distinct;
  }

  // The pattern, and the slot every add lands in.
  std::vector<std::uint32_t> local_slots;
  std::vector<std::uint32_t>& slot = slot_of_add ? *slot_of_add : local_slots;
  slot.resize(trip.size());
  col_.resize(row_start_[n_]);
  std::size_t next = 0;
  for (std::size_t r = 0; r < n_; ++r) {
    for (std::size_t i = start[r]; i < start[r + 1]; ++i) {
      const auto c = static_cast<std::size_t>(key[i] >> 32);
      if (i == start[r] || c != col_[next - 1]) col_[next++] = c;
      slot[static_cast<std::uint32_t>(key[i])] =
          static_cast<std::uint32_t>(next - 1);
    }
  }

  // Values: every slot sums its adds from 0.0 in insertion order, the
  // same additions a refill through the scatter map performs.
  values_.assign(col_.size(), 0.0);
  for (std::size_t k = 0; k < trip.size(); ++k)
    values_[slot[k]] += trip[k].value;
}

void CsrMatrix::multiply(const std::vector<double>& x,
                         std::vector<double>& y) const {
  if (x.size() != n_)
    throw std::invalid_argument("CsrMatrix::multiply: size mismatch");
  y.assign(n_, 0.0);
  for (std::size_t r = 0; r < n_; ++r) {
    double acc = 0.0;
    for (std::size_t k = row_start_[r]; k < row_start_[r + 1]; ++k)
      acc += values_[k] * x[col_[k]];
    y[r] = acc;
  }
}

std::vector<double> CsrMatrix::to_dense_rows() const {
  std::vector<double> dense(n_ * n_, 0.0);
  for (std::size_t r = 0; r < n_; ++r)
    for (std::size_t k = row_start_[r]; k < row_start_[r + 1]; ++k)
      dense[r * n_ + col_[k]] += values_[k];
  return dense;
}

std::vector<double> CsrMatrix::jacobi_diagonal(bool* defect) const {
  if (defect) *defect = false;
  std::vector<double> d(n_, 1.0);
  for (std::size_t r = 0; r < n_; ++r) {
    bool found = false;
    for (std::size_t k = row_start_[r]; k < row_start_[r + 1]; ++k) {
      if (col_[k] == r && !util::exactly_zero(values_[k])) {
        d[r] = values_[k];
        found = true;
      }
    }
    if (!found && defect) *defect = true;
  }
  return d;
}

void CsrMatrix::zero_values() {
  std::fill(values_.begin(), values_.end(), 0.0);
}

bool CsrMatrix::add_at(std::size_t row, std::size_t col, double value) {
  if (row >= n_ || col >= n_) return false;
  const auto begin = col_.begin() + static_cast<std::ptrdiff_t>(row_start_[row]);
  const auto end = col_.begin() + static_cast<std::ptrdiff_t>(row_start_[row + 1]);
  const auto it = std::lower_bound(begin, end, col);
  if (it == end || *it != col) return false;
  values_[static_cast<std::size_t>(it - col_.begin())] += value;
  return true;
}

CgResult conjugate_gradient(const CsrMatrix& a, const std::vector<double>& b,
                            double tolerance, std::size_t max_iterations,
                            const std::vector<double>* initial_guess) {
  const std::size_t n = a.size();
  if (b.size() != n)
    throw std::invalid_argument("conjugate_gradient: size mismatch");
  if (initial_guess && initial_guess->size() != n)
    throw std::invalid_argument("conjugate_gradient: guess size mismatch");

  bool diag_defect = false;
  const std::vector<double> diag = a.jacobi_diagonal(&diag_defect);
  if (diag_defect) {
    // A zero / missing diagonal entry means the matrix is not SPD and
    // the Jacobi preconditioner is undefined: iterating would at best
    // stall and at worst silently converge to a wrong answer under the
    // substituted 1.0. Report the defect so the resilient ladder can
    // route straight to the pivoted dense fallback.
    CgResult result;
    result.diagonal_defect = result.breakdown = true;
    result.x = initial_guess ? *initial_guess : std::vector<double>(n, 0.0);
    std::vector<double> r;
    a.multiply(result.x, r);
    for (std::size_t i = 0; i < n; ++i) r[i] = b[i] - r[i];
    result.residual_norm = std::sqrt(dot(r, r));
    return result;
  }

  const double b_norm = std::sqrt(dot(b, b));
  return preconditioned_cg(
      [&a](const std::vector<double>& v, std::vector<double>& av) {
        a.multiply(v, av);
      },
      [&diag](const std::vector<double>& r, std::vector<double>& z) {
        for (std::size_t i = 0; i < r.size(); ++i) z[i] = r[i] / diag[i];
      },
      b, initial_guess ? *initial_guess : std::vector<double>(),
      tolerance * (b_norm > 0 ? b_norm : 1.0), max_iterations, "numeric.cg");
}

}  // namespace mnsim::numeric
