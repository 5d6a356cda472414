#include "numeric/schur.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <type_traits>
#include <utility>

#include "numeric/pcg.hpp"
#include "util/fp.hpp"

namespace mnsim::numeric {

namespace {

constexpr std::uint32_t kUnplaced = std::numeric_limits<std::uint32_t>::max();
// Equal-length chains factored and solved side by side: their
// recurrences overlap in the pipeline instead of waiting on each other.
constexpr std::size_t kLockstep = 4;

// Runs `step(integral_constant<G>, s, len)` over the chains of `start`
// (chain k covers [start[k], start[k+1])): each run of kLockstep
// consecutive chains of one length as one group of G = kLockstep chains
// at s, s + len, ..., every other chain alone (G = 1). Stops at the first
// step that returns false and returns false.
template <typename Step>
bool for_each_group(const std::vector<std::size_t>& start, const Step& step) {
  const std::size_t chains = start.size() - 1;
  for (std::size_t k = 0; k < chains;) {
    const std::size_t s = start[k];
    const std::size_t len = start[k + 1] - s;
    std::size_t same = 1;
    while (same < kLockstep && k + same < chains &&
           start[k + same + 1] - start[k + same] == len)
      ++same;
    if (len == 0) {
      ++k;
    } else if (same == kLockstep) {
      if (!step(std::integral_constant<std::size_t, kLockstep>{}, s, len))
        return false;
      k += kLockstep;
    } else {
      if (!step(std::integral_constant<std::size_t, 1>{}, s, len))
        return false;
      ++k;
    }
  }
  return true;
}

// LDL^T of the G chains at s + g len (g < G), all of length len, one
// position of every chain per step. Each chain sees the sequential
// recurrence, so every pivot and multiplier has the same bits. After
// each step the group's pivots are checked (quietly: a NaN must not trap)
// before the next step divides by them.
template <std::size_t G>
bool factor_group(std::size_t s, std::size_t len, const double* diag,
                  const double* off, double* piv, double* lfac) {
  double prev[G];
  bool ok = true;
  for (std::size_t g = 0; g < G; ++g) {
    const std::size_t p = s + g * len;
    prev[g] = piv[p] = diag[p];
    ok &= std::isgreater(prev[g], 0.0);
  }
  if (!ok) return false;
  for (std::size_t l = 1; l < len; ++l) {
    for (std::size_t g = 0; g < G; ++g) {
      const std::size_t p = s + g * len + l;
      const double m = off[p] / prev[g];
      lfac[p] = m;
      prev[g] = piv[p] = diag[p] - m * off[p];
      ok &= std::isgreater(prev[g], 0.0);
    }
    if (!ok) return false;
  }
  return true;
}

// out = (L D L^T)^-1 in over the G chains at s + g len, where in(p) is
// the right-hand side at position p (it may read out[p], not out[q] for
// q != p). Forward elimination and the division by the pivot share one
// sweep (the undivided value carries to the next position), then the
// back substitution: per element the sequential operations, in order.
template <std::size_t G, typename In>
void solve_group(std::size_t s, std::size_t len, const double* piv,
                 const double* lfac, const In& in, double* out) {
  double w[G];
  for (std::size_t g = 0; g < G; ++g) {
    const std::size_t p = s + g * len;
    w[g] = in(p);
    out[p] = w[g] / piv[p];
  }
  for (std::size_t l = 1; l < len; ++l) {
    for (std::size_t g = 0; g < G; ++g) {
      const std::size_t p = s + g * len + l;
      w[g] = in(p) - lfac[p] * w[g];
      out[p] = w[g] / piv[p];
    }
  }
  for (std::size_t g = 0; g < G; ++g) w[g] = out[s + g * len + len - 1];
  for (std::size_t l = len - 1; l-- > 0;) {
    for (std::size_t g = 0; g < G; ++g) {
      const std::size_t p = s + g * len + l;
      w[g] = out[p] - lfac[p + 1] * w[g];
      out[p] = w[g];
    }
  }
}

// Every chain of `start` through solve_group.
template <typename In>
void solve_chains(const std::vector<std::size_t>& start,
                  const std::vector<double>& piv,
                  const std::vector<double>& lfac, const In& in, double* out) {
  for_each_group(start, [&](auto group, std::size_t s, std::size_t len) {
    solve_group<decltype(group)::value>(s, len, piv.data(), lfac.data(), in,
                                        out);
    return true;
  });
}

}  // namespace

namespace internal {

bool factor_chains(const std::vector<std::size_t>& start, const double* diag,
                   const double* off, std::vector<double>& piv,
                   std::vector<double>& lfac) {
  piv.resize(start.back());
  lfac.resize(start.back());
  return for_each_group(start, [&](auto group, std::size_t s,
                                   std::size_t len) {
    return factor_group<decltype(group)::value>(s, len, diag, off,
                                                piv.data(), lfac.data());
  });
}

void chain_solve(const std::vector<std::size_t>& start,
                 const std::vector<double>& piv,
                 const std::vector<double>& lfac, const double* in,
                 double* out) {
  solve_chains(start, piv, lfac, [in](std::size_t p) { return in[p]; }, out);
}

}  // namespace internal

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

  // The same couplings by kept position, counting-sorted: each kept
  // position's list comes out in ascending eliminated position.
  std::vector<std::uint32_t>& by_c = l->kept_cross_start;
  by_c.assign(n - nb + 1, 0);
  for (std::uint32_t c : col) ++by_c[c - nb + 1];
  for (std::size_t c = 0; c + nb < n; ++c) by_c[c + 1] += by_c[c];
  l->kept_cross.resize(col.size());
  {
    std::vector<std::uint32_t> cursor(by_c.begin(), by_c.end() - 1);
    for (std::uint32_t b = 0; b < nb; ++b)
      for (std::uint32_t k = l->cross_start[b]; k < l->cross_start[b + 1];
           ++k)
        l->kept_cross[cursor[col[k] - nb]++] = {b, k};
  }

  // The multiply plan: each row's slots in ascending column unknown. A
  // kept position's cell entries are the mirrors of the couplings that
  // name it. Each row is insertion-sorted (it has a handful of terms).
  const std::size_t cell = 3 * n;
  const std::size_t mirror = cell + col.size();
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
        put(mirror + l->kept_cross[i].k, l->unknown[l->kept_cross[i].b]);
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

std::pair<double, double> ChainSystem::residual(
    const std::vector<double>& x, const std::vector<double>& b) const {
  const ChainLayout& l = *layout_;
  if (x.size() != l.n || b.size() != l.n)
    throw std::invalid_argument("ChainSystem::residual: size mismatch");
  double rr = 0.0;
  double bb = 0.0;
  for (std::size_t g = 0; g < l.n; ++g) {
    double acc = 0.0;
    for (std::uint32_t k = l.plan_start[g]; k < l.plan_start[g + 1]; ++k)
      acc += values_[l.plan[k].slot] * x[l.plan[k].col];
    const double r = b[g] - acc;
    rr += r * r;
    bb += b[g] * b[g];
  }
  return {rr, bb};
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
  if (!internal::factor_chains(l.b_chain_start, diag, prev, f.b_piv_,
                               f.b_lfac_))
    return f;
  f.c_diag_.assign(diag + l.nb, diag + l.n);
  f.c_off_.assign(prev + l.nb, prev + l.n);
  if (!internal::factor_chains(l.c_chain_start, f.c_diag_.data(),
                               f.c_off_.data(), f.c_piv_, f.c_lfac_))
    return f;
  const double* bc = diag + 3 * l.n;
  f.bc_val_.assign(bc, bc + l.cross_start[l.nb]);
  f.valid_ = true;
  return f;
}

double SchurFactorization::cross_product(std::size_t lb,
                                         const std::vector<double>& x) const {
  const std::size_t nb = layout_->nb;
  const std::vector<std::uint32_t>& start = layout_->cross_start;
  const std::vector<std::uint32_t>& col = layout_->cross_col;
  double acc = 0.0;
  for (std::size_t k = start[lb]; k < start[lb + 1]; ++k)
    acc += bc_val_[k] * x[col[k] - nb];
  return acc;
}

void SchurFactorization::subtract_cells(std::size_t lc,
                                        const std::vector<double>& w,
                                        double& y) const {
  const ChainLayout& l = *layout_;
  for (std::uint32_t i = l.kept_cross_start[lc];
       i < l.kept_cross_start[lc + 1]; ++i) {
    const double wb = w[l.kept_cross[i].b];
    if (!util::exactly_zero(wb)) y -= bc_val_[l.kept_cross[i].k] * wb;
  }
}

void SchurFactorization::apply_schur(const std::vector<double>& x,
                                     std::vector<double>& y,
                                     std::vector<double>& scratch) const {
  // scratch = A_bb^-1 A_bc x, the cell products gathered as the chain
  // solve reaches them.
  solve_chains(
      layout_->b_chain_start, b_piv_, b_lfac_,
      [&](std::size_t lb) { return cross_product(lb, x); }, scratch.data());
  // y = A_cc x - A_cb scratch, row by row, in a fixed order the pinned
  // outputs depend on: (d x[l] + off[l] x[l-1]) + off[l+1] x[l+1], then
  // the cells in ascending eliminated position.
  const std::vector<std::size_t>& start = layout_->c_chain_start;
  const double* d = c_diag_.data();
  const double* off = c_off_.data();
  y.resize(x.size());
  for (std::size_t k = 0; k + 1 < start.size(); ++k) {
    const std::size_t s = start[k];
    const std::size_t e = start[k + 1];
    for (std::size_t l = s; l < e; ++l) {
      double acc = d[l] * x[l];
      if (l > s) acc += off[l] * x[l - 1];
      if (l + 1 < e) acc += off[l + 1] * x[l + 1];
      subtract_cells(l, scratch, acc);
      y[l] = acc;
    }
  }
}

CgResult SchurFactorization::solve(
    const std::vector<double>& b, double tolerance,
    const std::vector<double>* initial_guess) const {
  const std::size_t nb = layout_->nb;
  const std::size_t nc = n_ - nb;
  const std::vector<std::uint32_t>& unknown = layout_->unknown;

  // Schur right-hand side: b~ = b_c - A_cb A_bb^-1 b_b.
  std::vector<double> t(nb);
  solve_chains(
      layout_->b_chain_start, b_piv_, b_lfac_,
      [&](std::size_t lb) { return b[unknown[lb]]; }, t.data());
  std::vector<double> rhs(nc);
  for (std::size_t l = 0; l < nc; ++l) {
    double v = b[unknown[nb + l]];
    subtract_cells(l, t, v);
    rhs[l] = v;
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
  // t is free until the back substitution: the operator's scratch.
  CgResult result = preconditioned_cg(
      [&](const std::vector<double>& v, std::vector<double>& sv) {
        apply_schur(v, sv, t);
      },
      [this](const std::vector<double>& r, std::vector<double>& z) {
        internal::chain_solve(layout_->c_chain_start, c_piv_, c_lfac_,
                              r.data(), z.data());
      },
      rhs, std::move(guess), tolerance * (b_norm > 0 ? b_norm : 1.0), 0,
      "numeric.schur");
  const std::vector<double>& x = result.x;

  // Back-substitute the eliminated side: x_b = A_bb^-1 (b_b - A_bc x_c).
  solve_chains(
      layout_->b_chain_start, b_piv_, b_lfac_,
      [&](std::size_t lb) { return b[unknown[lb]] - cross_product(lb, x); },
      t.data());

  std::vector<double> full(n_);
  for (std::size_t l = 0; l < nb; ++l) full[unknown[l]] = t[l];
  for (std::size_t l = 0; l < nc; ++l) full[unknown[nb + l]] = x[l];
  result.x = std::move(full);
  return result;
}

}  // namespace mnsim::numeric
