#include "numeric/schur.hpp"

#include <cmath>
#include <utility>

#include "numeric/pcg.hpp"
#include "util/fp.hpp"

namespace mnsim::numeric {

namespace {

// Flat chain layout shared by both sides during extraction.
struct ChainLayout {
  std::vector<std::size_t> start;  // chain k -> first local index
  std::vector<std::size_t> chain_of;  // local -> chain id
};

ChainLayout layout_chains(const std::vector<std::vector<std::size_t>>& chains) {
  ChainLayout out;
  out.start.reserve(chains.size() + 1);
  out.start.push_back(0);
  for (const auto& chain : chains)
    out.start.push_back(out.start.back() + chain.size());
  out.chain_of.resize(out.start.back());
  for (std::size_t k = 0; k < chains.size(); ++k)
    for (std::size_t p = 0; p < chains[k].size(); ++p)
      out.chain_of[out.start[k] + p] = k;
  return out;
}

// LDL^T of each tridiagonal chain; false on a non-positive pivot (the
// matrix restricted to the chain is not positive definite).
bool factor_chains(const std::vector<std::size_t>& start,
                   const std::vector<double>& diag,
                   const std::vector<double>& off, std::vector<double>& piv,
                   std::vector<double>& lfac) {
  piv.assign(diag.size(), 0.0);
  lfac.assign(diag.size(), 0.0);
  for (std::size_t k = 0; k + 1 < start.size(); ++k) {
    for (std::size_t l = start[k]; l < start[k + 1]; ++l) {
      if (l == start[k]) {
        piv[l] = diag[l];
      } else {
        lfac[l] = off[l] / piv[l - 1];
        piv[l] = diag[l] - lfac[l] * off[l];
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

SchurFactorization SchurFactorization::build(
    const CsrMatrix& a, const BipartitePartition& partition) {
  SchurFactorization f;
  f.n_ = a.size();
  if (partition.empty() || f.n_ == 0) return f;

  // Index maps; every unknown must land in exactly one chain.
  f.side_.assign(f.n_, -1);
  f.local_.assign(f.n_, 0);
  std::size_t covered = 0;
  const auto assign_side = [&](const std::vector<std::vector<std::size_t>>&
                                   chains,
                               int side, std::vector<std::size_t>& globals) {
    std::size_t local = 0;
    for (const auto& chain : chains) {
      for (std::size_t g : chain) {
        if (g >= f.n_ || f.side_[g] != -1) return false;
        f.side_[g] = side;
        f.local_[g] = local++;
        globals.push_back(g);
        ++covered;
      }
    }
    return true;
  };
  if (!assign_side(partition.eliminated_chains, 0, f.b_global_) ||
      !assign_side(partition.kept_chains, 1, f.c_global_) ||
      covered != f.n_)
    return f;

  const ChainLayout bl = layout_chains(partition.eliminated_chains);
  const ChainLayout cl = layout_chains(partition.kept_chains);
  f.b_chain_start_ = bl.start;
  f.c_chain_start_ = cl.start;
  const std::size_t nb = f.b_global_.size();
  const std::size_t nc = f.c_global_.size();

  std::vector<double> b_diag(nb, 0.0);
  f.b_off_.assign(nb, 0.0);
  f.c_diag_.assign(nc, 0.0);
  f.c_off_.assign(nc, 0.0);
  f.bc_start_.assign(nb + 1, 0);

  const auto& row_start = a.row_start();
  const auto& cols = a.cols();
  const auto& values = a.values();

  // Pass 1: classify every entry, bail on anything outside the assumed
  // chain-tridiagonal + cross-coupling pattern. Cross entries are
  // counted per B row so pass 2 can fill a CSR block without growing.
  for (std::size_t g = 0; g < f.n_; ++g) {
    const int side = f.side_[g];
    const std::size_t lg = f.local_[g];
    const ChainLayout& mine = side == 0 ? bl : cl;
    for (std::size_t k = row_start[g]; k < row_start[g + 1]; ++k) {
      const std::size_t c = cols[k];
      if (c == g) {
        (side == 0 ? b_diag : f.c_diag_)[lg] = values[k];
        continue;
      }
      if (f.side_[c] == side) {
        const std::size_t lc = f.local_[c];
        // Tridiagonal within one chain: adjacent locals of one chain.
        const bool adjacent =
            (lc + 1 == lg || lg + 1 == lc) &&
            mine.chain_of[lc] == mine.chain_of[lg];
        if (!adjacent) return f;  // structure violated
        if (lc + 1 == lg) (side == 0 ? f.b_off_ : f.c_off_)[lg] = values[k];
        // The upper mirror (lc == lg + 1) is implied by symmetry.
      } else if (side == 0) {
        ++f.bc_start_[lg + 1];
      }
      // side == 1, cross entry: the A_cb mirror of A_bc -- implied.
    }
  }
  for (std::size_t i = 0; i < nb; ++i) f.bc_start_[i + 1] += f.bc_start_[i];
  f.bc_col_.resize(f.bc_start_[nb]);
  f.bc_val_.resize(f.bc_start_[nb]);
  std::vector<std::size_t> cursor(f.bc_start_.begin(), f.bc_start_.end() - 1);
  for (std::size_t lb = 0; lb < nb; ++lb) {
    const std::size_t g = f.b_global_[lb];
    for (std::size_t k = row_start[g]; k < row_start[g + 1]; ++k) {
      const std::size_t c = cols[k];
      if (c != g && f.side_[c] == 1) {
        const std::size_t slot = cursor[lb]++;
        f.bc_col_[slot] = f.local_[c];
        f.bc_val_[slot] = values[k];
      }
    }
  }

  if (!factor_chains(f.b_chain_start_, b_diag, f.b_off_, f.b_piv_, f.b_lfac_))
    return f;
  if (!factor_chains(f.c_chain_start_, f.c_diag_, f.c_off_, f.c_piv_,
                     f.c_lfac_))
    return f;
  f.valid_ = true;
  return f;
}

void SchurFactorization::chain_solve_b(std::vector<double>& v) const {
  chain_solve(b_chain_start_, b_piv_, b_lfac_, v);
}

void SchurFactorization::chain_solve_c(std::vector<double>& v) const {
  chain_solve(c_chain_start_, c_piv_, c_lfac_, v);
}

void SchurFactorization::acc_multiply(const std::vector<double>& x,
                                      std::vector<double>& y) const {
  y.assign(x.size(), 0.0);
  for (std::size_t l = 0; l < x.size(); ++l) y[l] = c_diag_[l] * x[l];
  for (std::size_t k = 0; k + 1 < c_chain_start_.size(); ++k) {
    for (std::size_t l = c_chain_start_[k] + 1; l < c_chain_start_[k + 1];
         ++l) {
      y[l] += c_off_[l] * x[l - 1];
      y[l - 1] += c_off_[l] * x[l];
    }
  }
}

void SchurFactorization::apply_schur(const std::vector<double>& x,
                                     std::vector<double>& y,
                                     std::vector<double>& scratch) const {
  const std::size_t nb = b_global_.size();
  scratch.assign(nb, 0.0);
  for (std::size_t lb = 0; lb < nb; ++lb) {
    double acc = 0.0;
    for (std::size_t k = bc_start_[lb]; k < bc_start_[lb + 1]; ++k)
      acc += bc_val_[k] * x[bc_col_[k]];
    scratch[lb] = acc;
  }
  chain_solve_b(scratch);
  acc_multiply(x, y);
  for (std::size_t lb = 0; lb < nb; ++lb) {
    const double w = scratch[lb];
    if (util::exactly_zero(w)) continue;
    for (std::size_t k = bc_start_[lb]; k < bc_start_[lb + 1]; ++k)
      y[bc_col_[k]] -= bc_val_[k] * w;
  }
}

CgResult SchurFactorization::solve(
    const std::vector<double>& b, double tolerance,
    const std::vector<double>* initial_guess) const {
  const std::size_t nb = b_global_.size();
  const std::size_t nc = c_global_.size();

  std::vector<double> b_b(nb), b_c(nc);
  for (std::size_t l = 0; l < nb; ++l) b_b[l] = b[b_global_[l]];
  for (std::size_t l = 0; l < nc; ++l) b_c[l] = b[c_global_[l]];

  // Schur right-hand side: b~ = b_c - A_cb A_bb^-1 b_b.
  std::vector<double> t = b_b;
  chain_solve_b(t);
  std::vector<double> rhs = b_c;
  for (std::size_t lb = 0; lb < nb; ++lb) {
    const double w = t[lb];
    if (util::exactly_zero(w)) continue;
    for (std::size_t k = bc_start_[lb]; k < bc_start_[lb + 1]; ++k)
      rhs[bc_col_[k]] -= bc_val_[k] * w;
  }

  // The stopping criterion matches the full-system CG rung: the Schur
  // residual equals the full residual (the eliminated side is exact).
  const double b_norm = std::sqrt(dot(b, b));
  std::vector<double> guess;
  if (initial_guess) {
    guess.resize(nc);
    for (std::size_t l = 0; l < nc; ++l)
      guess[l] = (*initial_guess)[c_global_[l]];
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
    for (std::size_t k = bc_start_[lb]; k < bc_start_[lb + 1]; ++k)
      acc += bc_val_[k] * x[bc_col_[k]];
    xb[lb] -= acc;
  }
  chain_solve_b(xb);

  std::vector<double> full(n_, 0.0);
  for (std::size_t l = 0; l < nb; ++l) full[b_global_[l]] = xb[l];
  for (std::size_t l = 0; l < nc; ++l) full[c_global_[l]] = x[l];
  result.x = std::move(full);
  return result;
}

}  // namespace mnsim::numeric
