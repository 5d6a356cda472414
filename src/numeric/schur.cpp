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

// Every chain of `start` through solve_group, calling `done(s, e)` after
// each group's back sweep with the positions [s, e) it covered: the
// groups cover the chains in ascending position.
template <typename In, typename Done>
void solve_chains(const std::vector<std::size_t>& start,
                  const std::vector<double>& piv,
                  const std::vector<double>& lfac, const In& in, double* out,
                  const Done& done) {
  for_each_group(start, [&](auto group, std::size_t s, std::size_t len) {
    constexpr std::size_t G = decltype(group)::value;
    solve_group<G>(s, len, piv.data(), lfac.data(), in, out);
    done(s, s + G * len);
    return true;
  });
}

template <typename In>
void solve_chains(const std::vector<std::size_t>& start,
                  const std::vector<double>& piv,
                  const std::vector<double>& lfac, const In& in, double* out) {
  solve_chains(start, piv, lfac, in, out, [](std::size_t, std::size_t) {});
}

// The cell gathers of the Schur kernels. A(b, c) of every cell coupling
// serves both A_bc and A_cb (the matrix is symmetric). `x` is indexed by
// kept side-local position, `w` by eliminated position and has a zero
// at nb.
//
// Range loops, for any layout: eliminated position lb's cells are its
// cross_start range, kept position lc's its kept_cross range.
struct RangeCells {
  const ChainLayout& l;
  const double* bc;

  // (A_bc x)[lb], summed from 0.0 in the layout's cell order.
  double cross(std::size_t lb, const double* x) const {
    double acc = 0.0;
    for (std::uint32_t k = l.cross_start[lb]; k < l.cross_start[lb + 1]; ++k)
      acc += bc[k] * x[l.cross_col[k] - l.nb];
    return acc;
  }
  // y -= (A_cb w)[lc], the cells in ascending eliminated position, each
  // skipped where w is zero.
  void subtract(std::size_t lc, const double* w, double& y) const {
    for (std::uint32_t i = l.kept_cross_start[lc];
         i < l.kept_cross_start[lc + 1]; ++i) {
      const double wb = w[l.kept_cross[i].b];
      if (!util::exactly_zero(wb)) y -= bc[l.kept_cross[i].k] * wb;
    }
  }
};

// The same sums on a one_cell layout, each partner read directly: a kept
// position without a cell reads the zero at w[nb] and is skipped as the
// range loop skips a zero.
struct OneCell {
  const std::uint32_t* col;
  const std::uint32_t* partner;
  std::size_t nb;
  const double* bc;

  double cross(std::size_t lb, const double* x) const {
    return 0.0 + bc[lb] * x[col[lb] - nb];
  }
  void subtract(std::size_t lc, const double* w, double& y) const {
    const std::uint32_t b = partner[lc];
    const double wb = w[b];
    if (!util::exactly_zero(wb)) y -= bc[b] * wb;
  }
};

// y = A_cc x - A_cb w over the kept chains of `start` (diagonal `d`,
// previous-neighbour coupling `off`), each row summed in a fixed order
// the pinned outputs depend on: (d x[l] + off[l] x[l-1]) + off[l+1]
// x[l+1], then the cells. Each chain's ends are peeled off its middle.
// Returns x'y, summed in ascending position.
template <typename Cells>
double kept_sweep(const std::vector<std::size_t>& start, const double* d,
                  const double* off, const Cells& cells, const double* x,
                  const double* w, double* y) {
  double xy = 0.0;
  const auto row = [&](std::size_t l, double acc) {
    cells.subtract(l, w, acc);
    y[l] = acc;
    xy += x[l] * acc;
  };
  for (std::size_t k = 0; k + 1 < start.size(); ++k) {
    const std::size_t s = start[k];
    const std::size_t e = start[k + 1];
    if (e == s) continue;
    if (e - s == 1) {
      row(s, d[s] * x[s]);
      continue;
    }
    row(s, d[s] * x[s] + off[s + 1] * x[s + 1]);
    for (std::size_t l = s + 1; l + 1 < e; ++l)
      row(l, d[l] * x[l] + off[l] * x[l - 1] + off[l + 1] * x[l + 1]);
    row(e - 1, d[e - 1] * x[e - 1] + off[e - 1] * x[e - 2]);
  }
  return xy;
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
  // The crossbar shape and its direct partner index. Decided after the
  // plan: placed before it, the plan loop ran about 1.6x slower at 64x64
  // (GCC 12, -O3), which a cold solve pays in full.
  l->one_cell = kept == nb;
  for (std::size_t p = 0; p < nb && l->one_cell; ++p)
    l->one_cell = l->cross_start[p + 1] == p + 1;
  for (std::size_t c = 0; c + nb < n && l->one_cell; ++c)
    l->one_cell = by_c[c + 1] - by_c[c] <= 1;
  if (l->one_cell) {
    l->kept_partner.assign(n - nb, static_cast<std::uint32_t>(nb));
    for (std::uint32_t b = 0; b < nb; ++b) l->kept_partner[col[b] - nb] = b;
  }
  layout_ = std::move(l);
}

void ChainSystem::begin() {
  ok_ = true;
  values_.assign(3 * layout_->n + 2 * layout_->cross_col.size(), 0.0);
  chain_written_ = true;
}

void ChainSystem::save_base() {
  base_ = values_;
  base_ok_ = ok_;
  chain_written_ = false;
}

void ChainSystem::restore_base() {
  const std::size_t n = layout_->n;
  const auto from = base_.begin();
  if (chain_written_ || values_.size() != base_.size()) {
    values_ = base_;
  } else {
    std::copy(from, from + static_cast<std::ptrdiff_t>(n), values_.begin());
    std::copy(from + static_cast<std::ptrdiff_t>(3 * n), base_.end(),
              values_.begin() + static_cast<std::ptrdiff_t>(3 * n));
  }
  ok_ = base_ok_;
  chain_written_ = false;
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
                               f.b_lfac_) ||
      !internal::factor_chains(l.c_chain_start, diag + l.nb, prev + l.nb,
                               f.c_piv_, f.c_lfac_))
    return f;
  f.valid_ = true;
  return f;
}

CgResult SchurFactorization::solve(
    const ChainSystem& system, const std::vector<double>& b,
    double tolerance, const std::vector<double>* initial_guess) const {
  return layout_->one_cell
             ? solve_impl<true>(system, b, tolerance, initial_guess)
             : solve_impl<false>(system, b, tolerance, initial_guess);
}

CgResult internal::solve_with_range_loops(
    const SchurFactorization& factor, const ChainSystem& system,
    const std::vector<double>& b, double tolerance,
    const std::vector<double>* initial_guess) {
  return factor.solve_impl<false>(system, b, tolerance, initial_guess);
}

template <bool kOneCell>
CgResult SchurFactorization::solve_impl(
    const ChainSystem& system, const std::vector<double>& b,
    double tolerance, const std::vector<double>* initial_guess) const {
  if (system.layout_ != layout_ || b.size() != n_)
    throw std::invalid_argument(
        "SchurFactorization::solve: not the factored system");
  const ChainLayout& l = *layout_;
  const std::size_t nb = l.nb;
  const std::size_t nc = n_ - nb;
  const std::vector<std::uint32_t>& unknown = l.unknown;
  const double* values = system.values_.data();
  const double* c_diag = values + nb;
  const double* c_off = values + n_ + nb;
  const double* bc = values + 3 * n_;
  using Cells = std::conditional_t<kOneCell, OneCell, RangeCells>;
  const Cells cells = [&] {
    if constexpr (kOneCell)
      return OneCell{l.cross_col.data(), l.kept_partner.data(), nb, bc};
    else
      return RangeCells{l, bc};
  }();

  // Schur right-hand side: b~ = b_c - A_cb A_bb^-1 b_b. t (with its zero
  // at nb) is the eliminated side's buffer throughout.
  std::vector<double> t(nb + 1, 0.0);
  solve_chains(
      l.b_chain_start, b_piv_, b_lfac_,
      [&](std::size_t lb) { return b[unknown[lb]]; }, t.data());
  std::vector<double> rhs(nc);
  for (std::size_t lc = 0; lc < nc; ++lc) {
    double v = b[unknown[nb + lc]];
    cells.subtract(lc, t.data(), v);
    rhs[lc] = v;
  }

  // The stopping criterion matches the full-system CG rung: the Schur
  // residual equals the full residual (the eliminated side is exact).
  const double b_norm = std::sqrt(dot(b, b));
  std::vector<double> guess;
  if (initial_guess) {
    guess.resize(nc);
    for (std::size_t lc = 0; lc < nc; ++lc)
      guess[lc] = (*initial_guess)[unknown[nb + lc]];
  }

  // The PCG operator and preconditioner step, their reductions and
  // updates folded into the chain sweeps. t is free until the back
  // substitution: the operator's middle product A_bb^-1 A_bc v.
  struct Schur {
    const SchurFactorization& f;
    const Cells& gather;
    const double* c_diag;
    const double* c_off;
    std::vector<double>& t;

    double apply(const std::vector<double>& v, std::vector<double>& sv) const {
      const ChainLayout& l = *f.layout_;
      solve_chains(
          l.b_chain_start, f.b_piv_, f.b_lfac_,
          [&](std::size_t lb) { return gather.cross(lb, v.data()); },
          t.data());
      sv.resize(v.size());
      return kept_sweep(l.c_chain_start, c_diag, c_off, gather, v.data(),
                        t.data(), sv.data());
    }
    std::pair<double, double> precondition(std::vector<double>& r,
                                           std::vector<double>& z,
                                           const CgUpdate* update) const {
      double rr = 0.0;
      double rz = 0.0;
      const auto sums = [&](std::size_t s, std::size_t e) {
        for (std::size_t i = s; i < e; ++i) {
          rr += r[i] * r[i];
          rz += r[i] * z[i];
        }
      };
      const std::vector<std::size_t>& start = f.layout_->c_chain_start;
      if (update == nullptr) {
        solve_chains(
            start, f.c_piv_, f.c_lfac_, [&](std::size_t p) { return r[p]; },
            z.data(), sums);
      } else {
        const double alpha = update->alpha;
        const double* p_dir = update->p.data();
        const double* ap = update->ap.data();
        double* x = update->x.data();
        solve_chains(
            start, f.c_piv_, f.c_lfac_,
            [&](std::size_t p) {
              x[p] += alpha * p_dir[p];
              return r[p] -= alpha * ap[p];
            },
            z.data(), sums);
      }
      return {rr, rz};
    }
  };
  CgResult result = preconditioned_cg(
      Schur{*this, cells, c_diag, c_off, t}, rhs, std::move(guess),
      tolerance * (b_norm > 0 ? b_norm : 1.0), 0, "numeric.schur");
  const std::vector<double>& x = result.x;

  // Back-substitute the eliminated side: x_b = A_bb^-1 (b_b - A_bc x_c).
  solve_chains(
      l.b_chain_start, b_piv_, b_lfac_,
      [&](std::size_t lb) {
        return b[unknown[lb]] - cells.cross(lb, x.data());
      },
      t.data());

  std::vector<double> full(n_);
  for (std::size_t lb = 0; lb < nb; ++lb) full[unknown[lb]] = t[lb];
  for (std::size_t lc = 0; lc < nc; ++lc) full[unknown[nb + lc]] = x[lc];
  result.x = std::move(full);
  return result;
}

}  // namespace mnsim::numeric
