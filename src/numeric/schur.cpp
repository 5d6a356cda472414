#include "numeric/schur.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <utility>

#include "numeric/pcg.hpp"
#include "util/fp.hpp"

namespace mnsim::numeric {

namespace {

constexpr std::uint32_t kUnplaced = std::numeric_limits<std::uint32_t>::max();

// LDL^T of each tridiagonal chain (diagonal `diag`, previous-neighbour
// coupling `off`, both by side-local position); false on a non-positive
// pivot (the matrix restricted to the chain is not positive definite).
bool factor_chains(const std::vector<std::size_t>& start, const double* diag,
                   const double* off, std::vector<double>& piv,
                   std::vector<double>& lfac) {
  piv.resize(start.back());
  lfac.resize(start.back());
  for (std::size_t k = 0; k + 1 < start.size(); ++k) {
    for (std::size_t l = start[k]; l < start[k + 1]; ++l) {
      if (l > start[k]) {
        lfac[l] = off[l] / piv[l - 1];
        piv[l] = diag[l] - lfac[l] * off[l];
      } else {
        piv[l] = diag[l];
      }
      if (!(piv[l] > 0.0)) return false;
    }
  }
  return true;
}

void chain_solve(const std::vector<std::size_t>& start,
                 const std::vector<double>& piv,
                 const std::vector<double>& lfac, std::vector<double>& v) {
  for (std::size_t k = 0; k + 1 < start.size(); ++k) {
    const std::size_t s = start[k];
    const std::size_t e = start[k + 1];
    for (std::size_t l = s + 1; l < e; ++l) v[l] -= lfac[l] * v[l - 1];
    for (std::size_t l = s; l < e; ++l) v[l] /= piv[l];
    for (std::size_t l = e - 1; l-- > s;) v[l] -= lfac[l + 1] * v[l + 1];
  }
}

}  // namespace

ChainSystem::ChainSystem(const BipartitePartition& partition, std::size_t n) {
  // Slots (up to 5n) and positions are 32-bit.
  if (partition.empty() || n == 0 || n > kUnplaced / 8 ||
      partition.cells.size() > kUnplaced / 8)
    return;
  auto l = std::make_shared<ChainLayout>();
  l->n = n;
  l->position.assign(n, kUnplaced);
  l->unknown.reserve(n);
  l->chain_first.assign(n, 0);
  // Every unknown must land in exactly one chain.
  const auto place = [&](const std::vector<std::vector<std::size_t>>& chains,
                         std::vector<std::size_t>& start) {
    const std::size_t side_begin = l->unknown.size();
    start.assign(1, 0);
    for (const auto& chain : chains) {
      for (std::size_t i = 0; i < chain.size(); ++i) {
        const std::size_t g = chain[i];
        if (g >= n || l->position[g] != kUnplaced) return false;
        const auto p = static_cast<std::uint32_t>(l->unknown.size());
        l->chain_first[p] = i == 0 ? 1 : 0;
        l->position[g] = p;
        l->unknown.push_back(static_cast<std::uint32_t>(g));
      }
      start.push_back(l->unknown.size() - side_begin);
    }
    return true;
  };
  if (!place(partition.eliminated_chains, l->b_chain_start)) return;
  const std::size_t nb = l->unknown.size();
  l->nb = nb;
  if (!place(partition.kept_chains, l->c_chain_start) ||
      l->unknown.size() != n)
    return;

  // The cross-side cells as (eliminated, kept) positions, counting-sorted
  // by eliminated position; each position's few kept partners are then
  // insertion-sorted by unknown and repeats dropped.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> cross;
  cross.reserve(partition.cells.size());
  for (const auto& [u, v] : partition.cells) {
    if (u >= n || v >= n) return;
    const std::uint32_t p = l->position[u];
    const std::uint32_t q = l->position[v];
    if ((p < nb) == (q < nb)) continue;
    cross.emplace_back(std::min(p, q), std::max(p, q));
  }
  l->cross_start.assign(nb + 1, 0);
  for (const auto& [b, c] : cross) ++l->cross_start[b + 1];
  for (std::size_t p = 0; p < nb; ++p)
    l->cross_start[p + 1] += l->cross_start[p];
  std::vector<std::uint32_t>& col = l->cross_col;
  col.resize(cross.size());
  {
    std::vector<std::uint32_t> cursor(l->cross_start.begin(),
                                      l->cross_start.end() - 1);
    for (const auto& [b, c] : cross) col[cursor[b]++] = c;
  }
  std::size_t kept = 0;
  for (std::size_t p = 0; p < nb; ++p) {
    const std::uint32_t first = l->cross_start[p];
    const std::uint32_t last = l->cross_start[p + 1];
    for (std::uint32_t i = first + 1; i < last; ++i) {
      const std::uint32_t c = col[i];
      std::uint32_t j = i;
      for (; j > first && l->unknown[col[j - 1]] > l->unknown[c]; --j)
        col[j] = col[j - 1];
      col[j] = c;
    }
    l->cross_start[p] = static_cast<std::uint32_t>(kept);
    for (std::uint32_t i = first; i < last; ++i)
      if (i == first || col[i] != col[i - 1]) col[kept++] = col[i];
  }
  l->cross_start[nb] = static_cast<std::uint32_t>(kept);
  col.resize(kept);

  // The multiply plan: each row's slots in ascending column unknown. A
  // kept position's cell entries are the mirrors of the couplings that
  // name it. Each row is insertion-sorted (it has a handful of terms).
  const std::size_t cell = 3 * n;
  const std::size_t mirror = cell + col.size();
  std::vector<std::uint32_t> by_c(n - nb + 1, 0);
  for (std::uint32_t c : col) ++by_c[c - nb + 1];
  for (std::size_t c = 0; c + nb < n; ++c) by_c[c + 1] += by_c[c];
  std::vector<ChainLayout::Term> c_terms(col.size());
  {
    std::vector<std::uint32_t> cursor(by_c.begin(), by_c.end() - 1);
    for (std::uint32_t b = 0; b < nb; ++b)
      for (std::uint32_t k = l->cross_start[b]; k < l->cross_start[b + 1];
           ++k)
        c_terms[cursor[col[k] - nb]++] = {
            static_cast<std::uint32_t>(mirror + k), l->unknown[b]};
  }
  std::vector<ChainLayout::Term>& plan = l->plan;
  plan.reserve(3 * n + 2 * col.size());
  l->plan_start.resize(n + 1);
  l->plan_start[0] = 0;
  for (std::size_t g = 0; g < n; ++g) {
    const std::uint32_t p = l->position[g];
    const std::size_t row = plan.size();
    const auto put = [&](std::size_t slot_index, std::uint32_t c) {
      std::size_t j = plan.size();
      plan.push_back({static_cast<std::uint32_t>(slot_index), c});
      for (; j > row && plan[j - 1].col > c; --j)
        std::swap(plan[j], plan[j - 1]);
    };
    put(p, static_cast<std::uint32_t>(g));
    if (!l->chain_first[p]) put(n + p, l->unknown[p - 1]);
    if (p + 1 < n && !l->chain_first[p + 1]) put(2 * n + p, l->unknown[p + 1]);
    if (p < nb) {
      for (std::uint32_t k = l->cross_start[p]; k < l->cross_start[p + 1];
           ++k)
        put(cell + k, l->unknown[col[k]]);
    } else {
      for (std::uint32_t i = by_c[p - nb]; i < by_c[p - nb + 1]; ++i)
        put(c_terms[i].slot, c_terms[i].col);
    }
    l->plan_start[g + 1] = static_cast<std::uint32_t>(plan.size());
  }
  layout_ = std::move(l);
}

void ChainSystem::begin() {
  ok_ = true;
  values_.assign(3 * layout_->n + 2 * layout_->cross_col.size(), 0.0);
}

void ChainSystem::save_base() {
  base_ = values_;
  base_ok_ = ok_;
}

void ChainSystem::restore_base() {
  values_ = base_;
  ok_ = base_ok_;
}

bool ChainSystem::finish() {
  if (!ok_) {
    if (!assembled_) broken_ = true;
    return false;
  }
  assembled_ = true;
  return true;
}

void ChainSystem::multiply(const std::vector<double>& x,
                           std::vector<double>& y) const {
  const ChainLayout& l = *layout_;
  if (x.size() != l.n)
    throw std::invalid_argument("ChainSystem::multiply: size mismatch");
  y.assign(l.n, 0.0);
  for (std::size_t g = 0; g < l.n; ++g) {
    double acc = 0.0;
    for (std::uint32_t k = l.plan_start[g]; k < l.plan_start[g + 1]; ++k)
      acc += values_[l.plan[k].slot] * x[l.plan[k].col];
    y[g] = acc;
  }
}

std::optional<double> ChainSystem::value(std::size_t row,
                                         std::size_t col) const {
  const ChainLayout& l = *layout_;
  if (row >= l.n || col >= l.n) return std::nullopt;
  const std::uint32_t p = l.position[row];
  const std::uint32_t q = l.position[col];
  if (p == q) return values_[p];
  if ((p < l.nb) == (q < l.nb)) {
    if (q + 1 == p && !l.chain_first[p]) return values_[l.n + p];
    if (p + 1 == q && !l.chain_first[q]) return values_[2 * l.n + p];
    return std::nullopt;
  }
  const std::uint32_t b = std::min(p, q);
  const std::uint32_t c = std::max(p, q);
  for (std::uint32_t k = l.cross_start[b]; k < l.cross_start[b + 1]; ++k)
    if (l.cross_col[k] == c)
      return values_[3 * l.n + (p == b ? 0 : l.cross_col.size()) + k];
  return std::nullopt;
}

SchurFactorization SchurFactorization::build(const ChainSystem& system) {
  SchurFactorization f;
  if (system.empty() || !system.assembled() || !system.ok_) return f;
  const ChainLayout& l = *system.layout_;
  f.n_ = l.n;
  f.layout_ = system.layout_;
  const double* diag = system.values_.data();
  const double* prev = diag + l.n;
  if (!factor_chains(l.b_chain_start, diag, prev, f.b_piv_, f.b_lfac_))
    return f;
  f.c_diag_.assign(diag + l.nb, diag + l.n);
  f.c_off_.assign(prev + l.nb, prev + l.n);
  if (!factor_chains(l.c_chain_start, f.c_diag_.data(), f.c_off_.data(),
                     f.c_piv_, f.c_lfac_))
    return f;
  const double* bc = diag + 3 * l.n;
  f.bc_val_.assign(bc, bc + l.cross_start[l.nb]);
  f.valid_ = true;
  return f;
}

void SchurFactorization::chain_solve_b(std::vector<double>& v) const {
  chain_solve(layout_->b_chain_start, b_piv_, b_lfac_, v);
}

void SchurFactorization::chain_solve_c(std::vector<double>& v) const {
  chain_solve(layout_->c_chain_start, c_piv_, c_lfac_, v);
}

void SchurFactorization::acc_multiply(const std::vector<double>& x,
                                      std::vector<double>& y) const {
  const std::vector<std::size_t>& start = layout_->c_chain_start;
  y.assign(x.size(), 0.0);
  for (std::size_t l = 0; l < x.size(); ++l) y[l] = c_diag_[l] * x[l];
  for (std::size_t k = 0; k + 1 < start.size(); ++k) {
    for (std::size_t l = start[k] + 1; l < start[k + 1]; ++l) {
      y[l] += c_off_[l] * x[l - 1];
      y[l - 1] += c_off_[l] * x[l];
    }
  }
}

void SchurFactorization::apply_schur(const std::vector<double>& x,
                                     std::vector<double>& y,
                                     std::vector<double>& scratch) const {
  const std::size_t nb = layout_->nb;
  const std::vector<std::uint32_t>& start = layout_->cross_start;
  const std::vector<std::uint32_t>& col = layout_->cross_col;
  scratch.assign(nb, 0.0);
  for (std::size_t lb = 0; lb < nb; ++lb) {
    double acc = 0.0;
    for (std::size_t k = start[lb]; k < start[lb + 1]; ++k)
      acc += bc_val_[k] * x[col[k] - nb];
    scratch[lb] = acc;
  }
  chain_solve_b(scratch);
  acc_multiply(x, y);
  for (std::size_t lb = 0; lb < nb; ++lb) {
    const double w = scratch[lb];
    if (util::exactly_zero(w)) continue;
    for (std::size_t k = start[lb]; k < start[lb + 1]; ++k)
      y[col[k] - nb] -= bc_val_[k] * w;
  }
}

CgResult SchurFactorization::solve(
    const std::vector<double>& b, double tolerance,
    const std::vector<double>* initial_guess) const {
  const std::size_t nb = layout_->nb;
  const std::size_t nc = n_ - nb;
  const std::vector<std::uint32_t>& unknown = layout_->unknown;
  const std::vector<std::uint32_t>& start = layout_->cross_start;
  const std::vector<std::uint32_t>& col = layout_->cross_col;

  std::vector<double> b_b(nb), b_c(nc);
  for (std::size_t l = 0; l < nb; ++l) b_b[l] = b[unknown[l]];
  for (std::size_t l = 0; l < nc; ++l) b_c[l] = b[unknown[nb + l]];

  // Schur right-hand side: b~ = b_c - A_cb A_bb^-1 b_b.
  std::vector<double> t = b_b;
  chain_solve_b(t);
  std::vector<double> rhs = b_c;
  for (std::size_t lb = 0; lb < nb; ++lb) {
    const double w = t[lb];
    if (util::exactly_zero(w)) continue;
    for (std::size_t k = start[lb]; k < start[lb + 1]; ++k)
      rhs[col[k] - nb] -= bc_val_[k] * w;
  }

  // The stopping criterion matches the full-system CG rung: the Schur
  // residual equals the full residual (the eliminated side is exact).
  const double b_norm = std::sqrt(dot(b, b));
  std::vector<double> guess;
  if (initial_guess) {
    guess.resize(nc);
    for (std::size_t l = 0; l < nc; ++l)
      guess[l] = (*initial_guess)[unknown[nb + l]];
  }
  std::vector<double> scratch;
  CgResult result = preconditioned_cg(
      [&](const std::vector<double>& v, std::vector<double>& sv) {
        apply_schur(v, sv, scratch);
      },
      [this](const std::vector<double>& r, std::vector<double>& z) {
        z = r;
        chain_solve_c(z);
      },
      rhs, std::move(guess), tolerance * (b_norm > 0 ? b_norm : 1.0), 0,
      "numeric.schur");
  const std::vector<double>& x = result.x;

  // Back-substitute the eliminated side: x_b = A_bb^-1 (b_b - A_bc x_c).
  std::vector<double> xb = b_b;
  for (std::size_t lb = 0; lb < nb; ++lb) {
    double acc = 0.0;
    for (std::size_t k = start[lb]; k < start[lb + 1]; ++k)
      acc += bc_val_[k] * x[col[k] - nb];
    xb[lb] -= acc;
  }
  chain_solve_b(xb);

  std::vector<double> full(n_, 0.0);
  for (std::size_t l = 0; l < nb; ++l) full[unknown[l]] = xb[l];
  for (std::size_t l = 0; l < nc; ++l) full[unknown[nb + l]] = x[l];
  result.x = std::move(full);
  return result;
}

}  // namespace mnsim::numeric
