#include "spice/mna.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "check/netlist_check.hpp"
#include "numeric/pcg.hpp"
#include "numeric/resilient.hpp"
#include "numeric/sparse.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/cancel.hpp"
#include "util/fp.hpp"

namespace mnsim::spice {

void SolverDiagnostics::absorb(const SolverDiagnostics& other) {
  newton_iterations += other.newton_iterations;
  newton_residual = std::max(newton_residual, other.newton_residual);
  cg_iterations += other.cg_iterations;
  cg_retries += other.cg_retries;
  lu_fallbacks += other.lu_fallbacks;
  damped_steps += other.damped_steps;
  linear_residual = std::max(linear_residual, other.linear_residual);
  faults_injected += other.faults_injected;
  cache_hits += other.cache_hits;
  warm_starts += other.warm_starts;
  schur_solves += other.schur_solves;
  schur_iterations += other.schur_iterations;
  schur_rejects += other.schur_rejects;
  factor_reuses += other.factor_reuses;
  condition_estimate = std::max(condition_estimate, other.condition_estimate);
  threads = std::max(threads, other.threads);
}

namespace {

struct Indexer {
  // Maps node id -> unknown index, or -1 for ground / pinned nodes.
  std::vector<int> unknown_of_node;
  std::vector<double> pinned_voltage;  // by node id (0 where free)
  int unknown_count = 0;
};

Indexer build_indexer(const Netlist& nl) {
  const int nodes = nl.node_count() + 1;  // include ground slot
  Indexer ix;
  ix.unknown_of_node.assign(nodes, -2);
  ix.pinned_voltage.assign(nodes, 0.0);
  ix.unknown_of_node[kGround] = -1;
  for (const auto& s : nl.sources()) {
    ix.unknown_of_node[s.node] = -1;
    ix.pinned_voltage[s.node] = s.volts;
  }
  for (int n = 1; n < nodes; ++n) {
    if (ix.unknown_of_node[n] == -2)
      ix.unknown_of_node[n] = ix.unknown_count++;
  }
  return ix;
}

// Sink adapter for stamping into a CSR matrix with a frozen sparsity
// pattern (values-only refill). The k-th add goes straight to
// scatter[k], the slot the k-th stamp landed in when the pattern was
// built; add_at_slot verifies that slot and falls back to a column
// search when the stamp sequence has changed. `ok` drops to false when a
// stamp misses the pattern altogether — the caller must then rebuild
// from a SparseBuilder.
struct CsrRefillSink {
  numeric::CsrMatrix* matrix = nullptr;
  const std::vector<std::uint32_t>* scatter = nullptr;
  std::size_t next = 0;
  bool ok = true;

  void add(std::size_t row, std::size_t col, double value) {
    const std::size_t k = next++;
    const bool hit = k < scatter->size()
                         ? matrix->add_at_slot((*scatter)[k], row, col, value)
                         : matrix->add_at(row, col, value);
    if (!hit) ok = false;
  }
};

// A sink that drops every matrix add: stamps through it only touch the
// right-hand side.
struct RhsOnly {
  void add(std::size_t, std::size_t, double) {}
};

// A conductance g between two free unknowns: g on both diagonals, -g on
// both couplings, in the order a SparseBuilder records them (its scatter
// map follows this order).
template <typename MatrixSink>
void couple(MatrixSink& a, std::size_t ua, std::size_t ub, double g) {
  a.add(ua, ua, g);
  a.add(ua, ub, -g);
  a.add(ub, ub, g);
  a.add(ub, ua, -g);
}

// The chain system takes the four adds in one call: each lands on its
// own slot, so the sums are the same.
void couple(numeric::ChainSystem& a, std::size_t ua, std::size_t ub,
            double g) {
  a.couple(ua, ub, g);
}

// Stamps a conductance g between nodes a and b, with a parallel current
// source i_src flowing a -> b (companion model) when kSource, into
// (A, rhs). Without one the right-hand side skips the source's zero:
// the assembled sums start at +0.0 and so are never -0.0, which makes
// adding +-0.0 an exact no-op. MatrixSink is anything
// with add(row, col, value): a SparseBuilder on first assembly, a
// CsrRefillSink when the pattern is cached, or the chain system of a
// structured netlist.
template <bool kSource, typename MatrixSink>
void stamp(const Indexer& ix, MatrixSink& a, std::vector<double>& rhs,
           NodeId na, NodeId nb, double g, double i_src) {
  const int ua = ix.unknown_of_node[na];
  const int ub = ix.unknown_of_node[nb];
  if (ua >= 0 && ub >= 0) {
    couple(a, static_cast<std::size_t>(ua), static_cast<std::size_t>(ub), g);
    if (kSource) {
      rhs[static_cast<std::size_t>(ua)] -= i_src;
      rhs[static_cast<std::size_t>(ub)] += i_src;
    }
    return;
  }
  if (ua >= 0) {
    a.add(static_cast<std::size_t>(ua), static_cast<std::size_t>(ua), g);
    if (kSource) rhs[static_cast<std::size_t>(ua)] -= i_src;
    rhs[static_cast<std::size_t>(ua)] += g * ix.pinned_voltage[nb];
  }
  if (ub >= 0) {
    a.add(static_cast<std::size_t>(ub), static_cast<std::size_t>(ub), g);
    if (kSource) rhs[static_cast<std::size_t>(ub)] += i_src;
    rhs[static_cast<std::size_t>(ub)] += g * ix.pinned_voltage[na];
  }
}

// One backward-Euler time step: the step size and the node voltages (by
// node id) of the previous accepted step. A DC solve has none.
struct StepContext {
  double dt;
  const std::vector<double>& v_prev;
};

// The resistor stamps: wires, sense loads, anything linear. They do not
// depend on the iterate.
template <typename MatrixSink>
void stamp_resistors(const Netlist& nl, const Indexer& ix, MatrixSink& sink,
                     std::vector<double>& rhs) {
  for (const auto& r : nl.resistors())
    stamp<false>(ix, sink, rhs, r.a, r.b, 1.0 / r.ohms, 0.0);
}

// The companion stamps, linearized around `voltages` (by node id): every
// memristor, and with a step context every capacitor; without one they
// are open, as at a DC operating point.
template <typename MatrixSink>
void stamp_companions(const Netlist& nl, const Indexer& ix,
                      const std::vector<double>& voltages, MatrixSink& sink,
                      std::vector<double>& rhs, const StepContext* step) {
  const auto& dev = nl.device();
  // The sinh/cosh companion model overflows for iterates far outside the
  // physical range; clamp the argument so a wild Newton step degrades
  // into damping instead of NaN propagation.
  for (const auto& m : nl.memristors()) {
    if (nl.linear_memristors()) {
      stamp<false>(ix, sink, rhs, m.a, m.b, 1.0 / m.r_state, 0.0);
      continue;
    }
    // Companion model around the previous iterate, linearized at the
    // saturated point vc = clamp(v0, +-max_arg * vt):
    //   I(v) ~= I(vc) + g_d (v - vc), g_d = dI/dV(vc)
    // stamped as conductance g_d plus current source I(vc) - g_d vc.
    // Linearizing at vc (not v0) keeps the tangent consistent with the
    // point the law was evaluated at when an iterate overshoots.
    const double v0 = voltages[m.a] - voltages[m.b];
    if (util::exactly_zero(v0)) {
      // At v0 = +-0 the companion is the chord 1/r with a +0.0 source:
      // sinh(+-0) = +-0 and cosh(+-0) = 1 exactly, so i0 - gd * vc is
      // +0.0 either way, and adding it changes no sum (see stamp). The
      // first Newton step of every cold solve stamps every cell here.
      stamp<false>(ix, sink, rhs, m.a, m.b, 1.0 / m.r_state, 0.0);
      continue;
    }
    const double vt = dev.nonlinearity_vt.value();
    const double vc = std::clamp(v0, -tech::kMaxSinhArg * vt,
                                 tech::kMaxSinhArg * vt);
    const double a_coef = vt / m.r_state;
    const double i0 = a_coef * std::sinh(vc / vt);
    const double gd = std::cosh(vc / vt) / m.r_state;
    stamp<true>(ix, sink, rhs, m.a, m.b, gd, i0 - gd * vc);
  }

  if (step == nullptr) return;
  // Backward-Euler capacitor companion: G = C/dt with a history current
  // source -G * v_prev flowing a -> b.
  for (const auto& c : nl.capacitors()) {
    const double g = c.farads / step->dt;
    const double v_prev = step->v_prev[c.a] - step->v_prev[c.b];
    stamp<true>(ix, sink, rhs, c.a, c.b, g, -g * v_prev);
  }
}

// Stamps every element of `nl` into (sink, rhs), resistors first. One
// call = one assembly.
template <typename MatrixSink>
void assemble(const Netlist& nl, const Indexer& ix,
              const std::vector<double>& voltages, MatrixSink& sink,
              std::vector<double>& rhs, const StepContext* step = nullptr) {
  stamp_resistors(nl, ix, sink, rhs);
  stamp_companions(nl, ix, voltages, sink, rhs, step);
}

// Upper bound on the matrix adds of one assembly: four per stamped
// element.
std::size_t max_stamps(const Netlist& nl, const StepContext* step) {
  const std::size_t capacitors = step ? nl.capacitors().size() : 0;
  return 4 * (nl.resistors().size() + nl.memristors().size() + capacitors);
}

// Vets the topology before any numeric work. With preflight on this is
// refuse-with-diagnosis: the warnings-off analysis decides, and only a
// refused netlist pays for the full one, so the thrown diagnostics
// (warnings included) are exactly check_netlist(nl)'s. With it off, the
// invariant subset, Netlist::validate().
void vet(const Netlist& nl, bool preflight) {
  if (!preflight) {
    nl.validate();
    return;
  }
  obs::Span span("spice.preflight");
  check::NetlistCheckOptions quick;
  quick.warnings = false;
  if (check::check_netlist(nl, quick).has_errors())
    throw check::CheckError(check::check_netlist(nl));
}

// Translates wire-chain node ids to reduced-system unknown indices, and
// each memristor between two free nodes to a cell. An unusable structure
// (a pinned node inside a chain, chains that do not cover every unknown
// exactly once) yields an empty partition — the solver then simply skips
// the Schur rung.
numeric::BipartitePartition translate_partition(const Netlist& nl,
                                                const Indexer& ix,
                                                std::size_t n_unknowns) {
  const WireStructure& ws = nl.wire_structure();
  numeric::BipartitePartition p;
  std::size_t covered = 0;
  const auto convert = [&](const std::vector<std::vector<NodeId>>& chains,
                           std::vector<std::vector<std::size_t>>& out) {
    out.reserve(chains.size());
    for (const auto& chain : chains) {
      std::vector<std::size_t> c;
      c.reserve(chain.size());
      for (NodeId node : chain) {
        if (node <= 0 ||
            static_cast<std::size_t>(node) >= ix.unknown_of_node.size())
          return false;
        const int u = ix.unknown_of_node[static_cast<std::size_t>(node)];
        if (u < 0) return false;
        c.push_back(static_cast<std::size_t>(u));
      }
      if (!c.empty()) {
        covered += c.size();
        out.push_back(std::move(c));
      }
    }
    return true;
  };
  if (!convert(ws.row_chains, p.eliminated_chains) ||
      !convert(ws.col_chains, p.kept_chains) || covered != n_unknowns)
    return {};
  p.cells.reserve(nl.memristors().size());
  for (const auto& m : nl.memristors()) {
    const int ua = ix.unknown_of_node[m.a];
    const int ub = ix.unknown_of_node[m.b];
    if (ua >= 0 && ub >= 0)
      p.cells.emplace_back(static_cast<std::size_t>(ua),
                           static_cast<std::size_t>(ub));
  }
  return p;
}

// The chain system the Schur rung solves, laid out from the wire
// structure and the memristors and cached with the topology; null when
// the rung is off or the netlist carries no usable structure. A fresh
// layout drops the factor kept for the old one.
numeric::ChainSystem* structured_system(const Netlist& nl,
                                        const DcOptions& opt,
                                        const Indexer& ix, MnaCache& mc) {
  if (!opt.allow_schur || nl.wire_structure().empty()) return nullptr;
  const auto n = static_cast<std::size_t>(ix.unknown_count);
  if (!mc.system_valid || (!mc.system.empty() && mc.system.size() != n)) {
    mc.system = numeric::ChainSystem(
        translate_partition(nl, ix, n), n);
    mc.system_valid = true;
    mc.factor.reset();
  }
  return mc.system.empty() ? nullptr : &mc.system;
}

// This solve's wire-only snapshot of the chain system and right-hand
// side: the resistor stamps, which every Newton iteration repeats.
// `kept` marks a chain-system snapshot an earlier solve took of the same
// resistors (MnaCache::reprogrammed_only): this solve only re-stamps the
// resistors' right-hand side, which the source voltages enter.
struct WireBase {
  bool saved = false;
  bool kept = false;
  std::vector<double> rhs;
};

// The snapshot a solve on `mc` assembles with, or null when it assembles
// once from zero: a nonlinear solve takes one on its first assembly and
// starts every later one from it; on a cache whose owner vouches for its
// wires every solve takes one, or starts from the one kept in the chain
// system.
WireBase* wire_base_for(const Netlist& nl, const MnaCache& mc,
                        const numeric::ChainSystem* system, WireBase& base) {
  const bool nonlinear = !nl.linear_memristors() && !nl.memristors().empty();
  if (!nonlinear && !mc.reprogrammed_only) return nullptr;
  base.kept = mc.reprogrammed_only && system != nullptr && system->has_base();
  return &base;
}

// One assembly into the chain system; false when a stamp missed its
// slots (see numeric::ChainSystem). With a base that holds a snapshot,
// the assembly starts from it and re-stamps only the companions (and,
// first in a solve on a kept snapshot, the resistors' right-hand side);
// with one that does not yet, it takes the snapshot after the resistors.
// Resistors are stamped first either way, so every slot sums the same
// adds in the same order.
bool assemble_chains(const Netlist& nl, const Indexer& ix,
                     const std::vector<double>& voltages,
                     numeric::ChainSystem& system, std::vector<double>& rhs,
                     const StepContext* step, WireBase* base) {
  if (base != nullptr && base->saved) {
    system.restore_base();
    rhs = base->rhs;
  } else if (base != nullptr && base->kept) {
    system.restore_base();
    RhsOnly no_matrix;
    stamp_resistors(nl, ix, no_matrix, rhs);
    base->rhs = rhs;
    base->saved = true;
  } else {
    system.begin();
    stamp_resistors(nl, ix, system, rhs);
    if (base != nullptr) {
      system.save_base();
      base->rhs = rhs;
      base->saved = true;
    }
  }
  stamp_companions(nl, ix, voltages, system, rhs, step);
  return system.finish();
}

// Assembles `nl` into a fresh CSR pattern and records the scatter map
// later refills follow.
void build_pattern(const Netlist& nl, const Indexer& ix,
                   const std::vector<double>& voltages,
                   std::vector<double>& rhs, const StepContext* step,
                   MnaCache& mc) {
  numeric::SparseBuilder builder(static_cast<std::size_t>(ix.unknown_count));
  builder.reserve(max_stamps(nl, step));
  assemble(nl, ix, voltages, builder, rhs, step);
  mc.matrix = numeric::CsrMatrix(builder, &mc.scatter);
  mc.pattern_valid = true;
}

// One assembly into the cache's CSR pattern: a refill through the
// scatter map when the topology matches, else (first assembly, or
// structure changed) a rebuild that re-primes the cache. True on a
// refill.
bool assemble_csr(const Netlist& nl, const Indexer& ix,
                  const std::vector<double>& voltages,
                  std::vector<double>& rhs, const StepContext* step,
                  MnaCache& mc) {
  if (mc.pattern_valid && mc.matrix.size() == rhs.size()) {
    mc.matrix.zero_values();
    CsrRefillSink sink{&mc.matrix, &mc.scatter};
    assemble(nl, ix, voltages, sink, rhs, step);
    if (sink.ok) return true;
    std::fill(rhs.begin(), rhs.end(), 0.0);
    mc.pattern_valid = false;
    // The structure the cache was laid out for has changed; its chain
    // system no longer describes this matrix either.
    mc.system_valid = false;
  }
  build_pattern(nl, ix, voltages, rhs, step, mc);
  return false;
}

// What one Newton iteration's assembly did.
struct Assembly {
  bool on_chain = false;  // the chain system holds the matrix
  bool refilled = false;  // it refilled a pattern (a cache hit)
};

// One Newton iteration's assembly at `voltages`: into the chain system
// when it holds the structure, else into the CSR pattern. Either refills
// the pattern an earlier assembly of this topology laid out, or builds
// it. `system` is the solve's chain system (null without one); it is
// laid out afresh when a rewired netlist no longer fits it, and set to
// null once the CSR pattern had to be rebuilt. `base` is the solve's
// wire-only snapshot (wire_base_for).
Assembly assemble_iteration(const Netlist& nl, const DcOptions& opt,
                            const Indexer& ix,
                            const std::vector<double>& voltages,
                            std::vector<double>& rhs, const StepContext* step,
                            MnaCache& mc, numeric::ChainSystem*& system,
                            WireBase* base) {
  obs::Span asm_span("spice.assemble");
  Assembly a;
  if (system != nullptr && !system->broken()) {
    a.refilled = system->assembled();
    if (a.refilled && mc.factor != nullptr && mc.reprogrammed_only) {
      // The system holds the matrix the kept factor was built from, and
      // its owner vouches the values do not change: only the right-hand
      // side is new.
      RhsOnly no_matrix;
      assemble(nl, ix, voltages, no_matrix, rhs, step);
      a.on_chain = true;
      return a;
    }
    a.on_chain = assemble_chains(nl, ix, voltages, *system, rhs, step, base);
    if (!a.on_chain && a.refilled) {
      // The netlist no longer fits the pattern (a rewired netlist on this
      // cache): lay the structure out afresh.
      std::fill(rhs.begin(), rhs.end(), 0.0);
      mc.system_valid = false;
      if (base != nullptr) *base = WireBase{};
      a.refilled = false;
      system = structured_system(nl, opt, ix, mc);
      if (system != nullptr)
        a.on_chain =
            assemble_chains(nl, ix, voltages, *system, rhs, step, base);
    }
    if (!a.on_chain) std::fill(rhs.begin(), rhs.end(), 0.0);
  }
  if (!a.on_chain) {
    a.refilled = assemble_csr(nl, ix, voltages, rhs, step, mc);
    // A rebuilt CSR pattern means the topology moved: this solve stops
    // trusting the chain system.
    if (!mc.system_valid) system = nullptr;
  }
  return a;
}

// The actual solve; the public solve_dc wraps it in a trace span and
// publishes the diagnostics into the metrics registry on every exit
// path. `step` makes this one backward-Euler time step (solve_transient);
// it is null for a DC solve.
DcResult solve_dc_impl(const Netlist& nl, const DcOptions& opt,
                       MnaCache* cache, const StepContext* step = nullptr) {
  // Refuse-with-diagnosis: vet the topology before any numeric work.
  // A cache with a valid pattern means this structure already passed, so
  // sweep iterations skip the preflight; a netlist its owner vouches for
  // (MnaCache::reprogrammed_only) has kept the invariants since, so it
  // skips validate() too.
  const bool vetted = cache != nullptr &&
                      (cache->pattern_valid || cache->system.assembled());
  if (!(vetted && cache->reprogrammed_only))
    vet(nl, opt.preflight && !vetted);
  const Indexer ix = build_indexer(nl);
  const int nodes = nl.node_count() + 1;
  const auto n_unknowns = static_cast<std::size_t>(ix.unknown_count);

  // The pattern slot: the caller's cache when supplied (reuse across
  // solves), otherwise a local one so Newton iterations within this solve
  // still refill instead of rebuilding. Counters only track cross-solve
  // reuse — the thing sweeps care about — so they stay zero without an
  // external cache.
  MnaCache local_cache;
  const bool external = cache != nullptr;
  MnaCache& mc = external ? *cache : local_cache;

  // A netlist with a usable wire structure assembles into its chain
  // system and is solved there by the Schur rung; the CSR pattern is
  // built only when the rung rejects. A broken system (a stamp off its
  // chain and cell slots) assembles into the CSR and counts one reject
  // per linear solve.
  numeric::ChainSystem* system = structured_system(nl, opt, ix, mc);

  DcResult result;
  result.node_voltages.assign(nodes, 0.0);
  const bool warm =
      external &&
      mc.warm_start_voltages.size() == static_cast<std::size_t>(nodes);
  for (int n = 0; n < nodes; ++n) {
    if (ix.unknown_of_node[n] < 0)
      result.node_voltages[n] = ix.pinned_voltage[n];
    else if (warm)
      result.node_voltages[n] = mc.warm_start_voltages[n];
  }
  if (warm) ++result.diagnostics.warm_starts;

  const bool nonlinear = !nl.linear_memristors() && !nl.memristors().empty();
  const int max_iter = nonlinear ? kMaxNewtonIterations : 1;

  double prev_delta = 0.0;
  int damping_budget = kMaxDampingRetries;
  // From the second Newton iteration on, the chain assembly starts from
  // the wire-only snapshot the first one took.
  WireBase wire_base;
  WireBase* const base = wire_base_for(nl, mc, system, wire_base);
  // Per-iteration buffers: the right-hand side, the linear solve's warm
  // start and the damped iterate (by node id; its pinned entries stay
  // those of result.node_voltages, as the two are swapped on commit).
  std::vector<double> rhs;
  std::vector<double> guess;
  std::vector<double> stepped = result.node_voltages;

  for (int it = 0; it < max_iter; ++it) {
    // Watchdog poll between Newton iterations (util/cancel.hpp); the
    // inner CG/LU rungs poll at finer granularity.
    util::throw_if_cancelled("spice.newton");
    obs::Span iter_span("spice.newton_iteration");
    rhs.assign(n_unknowns, 0.0);

    const Assembly assembly = assemble_iteration(
        nl, opt, ix, result.node_voltages, rhs, step, mc, system, base);
    const bool on_chain = assembly.on_chain;
    if (assembly.refilled && external) ++result.diagnostics.cache_hits;

    // Warm-start the inner CG from the current iterate whenever it is
    // informative: always past the first Newton iteration, and on the
    // first one when the cache supplied a reference solution. The guess
    // depends only on the netlist and the cache contents — never on
    // sweep scheduling — so parallel runs stay bit-identical to serial.
    const bool have_guess = warm || it > 0;
    if (have_guess) {
      guess.resize(n_unknowns);
      for (int n = 1; n < nodes; ++n) {
        const int u = ix.unknown_of_node[n];
        if (u >= 0) guess[static_cast<std::size_t>(u)] =
            result.node_voltages[n];
      }
    }

    // Rung 0 runs on the chain system, through the factor the cache
    // keeps or one built for this matrix; a rejected solve assembles the
    // CSR at the same iterate and continues down the generic ladder. A
    // linear transient keeps the factor it builds: its step matrix is
    // the same at every step of the run.
    const bool keep = step != nullptr && !nonlinear;
    bool reused = false;
    bool unnormed = false;
    const auto solve = [&] {
      obs::Span solve_span("spice.linear_solve");
      numeric::ResilientSolveOptions solve_opt;
      solve_opt.tolerance = opt.cg_tolerance;
      solve_opt.max_iterations = opt.cg_max_iterations;
      solve_opt.allow_fallback = opt.allow_fallback;
      solve_opt.initial_guess = have_guess ? &guess : nullptr;
      numeric::ResilientSolveReport report;
      if (system != nullptr) {
        numeric::SchurFactorization built;
        const numeric::SchurFactorization* factor = mc.factor.get();
        reused = factor != nullptr;
        if (!reused) {
          obs::Span build_span("numeric.schur_build");
          built = numeric::SchurFactorization::build(*system);
          factor = &built;
        }
        report = numeric::solve_schur(*system, *factor, rhs, solve_opt);
        if (keep && !reused)
          mc.factor = std::make_shared<const numeric::SchurFactorization>(
              std::move(built));
      }
      if (report.converged) return report;
      // A right-hand side whose norm overflows (a source of 1e300 V) has
      // no relative residual to stop on: no rung can accept an iterate.
      unnormed = !std::isfinite(numeric::dot(rhs, rhs));
      if (unnormed) return report;
      if (on_chain) {
        obs::Span asm_span("spice.assemble");
        std::vector<double> csr_rhs(n_unknowns, 0.0);
        (void)assemble_csr(nl, ix, result.node_voltages, csr_rhs, step, mc);
      }
      return numeric::solve_spd_resilient(mc.matrix, rhs, solve_opt,
                                          std::move(report));
    }();
    result.diagnostics.cg_iterations +=
        static_cast<long>(solve.cg_iterations);
    result.diagnostics.cg_retries += solve.cg_retries;
    result.diagnostics.lu_fallbacks += solve.lu_fallbacks;
    result.diagnostics.schur_iterations +=
        static_cast<long>(solve.schur_iterations);
    result.diagnostics.schur_rejects += solve.schur_rejects;
    if (solve.method == numeric::SolveMethod::kSchur) {
      ++result.diagnostics.schur_solves;
      if (reused) ++result.diagnostics.factor_reuses;
    }
    result.diagnostics.condition_estimate = std::max(
        result.diagnostics.condition_estimate, solve.condition_estimate);
    result.diagnostics.linear_residual = std::max(
        result.diagnostics.linear_residual, solve.relative_residual);
    if (unnormed) {
      // Reported, not thrown: the netlist is valid, its scale is not
      // solvable. The iterate stays the last accepted one.
      result.diagnostics.newton_iterations = result.newton_iterations;
      result.diagnostics.newton_residual = prev_delta;
      result.converged = false;
      return result;
    }
    if (!solve.converged) {
      std::string why;  // every rejected rung: a failed sweep point says why
      for (const auto& note : solve.rung_notes)
        why += (why.empty() ? "" : "; ") + note;
      throw std::runtime_error("solve_dc: linear solve failed (" + why + ")");
    }

    // Newton update with step damping: a non-finite iterate, or an update
    // that doubles instead of contracting, takes a half step (repeatedly,
    // within the damping budget) from the previous iterate.
    // The damped iterate is formed once, into `stepped`, and committed
    // by a swap.
    double damping = 1.0;
    double max_delta = 0.0;
    for (;;) {
      max_delta = 0.0;
      bool bad = false;
      for (int n = 1; n < nodes; ++n) {
        const int u = ix.unknown_of_node[n];
        if (u < 0) continue;
        const double target = solve.x[u];
        if (!std::isfinite(target)) {
          bad = true;
          break;
        }
        const double v = result.node_voltages[n];
        stepped[n] = v + damping * (target - v);
        max_delta = std::max(max_delta, std::fabs(stepped[n] - v));
      }
      const bool diverging = nonlinear && it > 0 && prev_delta > 0 &&
                             max_delta > 2.0 * prev_delta;
      if ((bad || diverging) && damping_budget > 0) {
        damping *= 0.5;
        --damping_budget;
        ++result.diagnostics.damped_steps;
        continue;
      }
      if (bad) {
        // Out of damping budget with a non-finite step: keep the previous
        // iterate and report non-convergence honestly.
        result.diagnostics.newton_iterations = result.newton_iterations;
        result.diagnostics.newton_residual = prev_delta;
        result.converged = false;
        return result;
      }
      break;
    }
    result.node_voltages.swap(stepped);
    prev_delta = max_delta;
    result.newton_iterations = it + 1;
    result.diagnostics.newton_iterations = result.newton_iterations;
    result.diagnostics.newton_residual = max_delta;
    if (!nonlinear || max_delta < kNewtonTolerance) {
      result.converged = true;
      break;
    }
  }
  if (!nonlinear) result.converged = true;
  return result;
}

}  // namespace

DcResult solve_dc(const Netlist& nl, const DcOptions& opt, MnaCache* cache) {
  obs::Span span("spice.solve_dc");
  DcResult result = solve_dc_impl(nl, opt, cache);

  // Publish the per-solve diagnostics into the uniform metrics layer.
  // The struct keeps riding in DcResult for per-result reporting; the
  // registry aggregates across every solve of the process, whichever
  // sweep engine drove them.
  obs::Registry& reg = obs::Registry::global();
  if (reg.enabled()) {
    const SolverDiagnostics& d = result.diagnostics;
    reg.add("spice.solves");
    reg.add("spice.newton_iterations", d.newton_iterations);
    reg.add("spice.cg_iterations", d.cg_iterations);
    if (d.cg_retries) reg.add("spice.cg_retries", d.cg_retries);
    if (d.lu_fallbacks) reg.add("spice.lu_fallbacks", d.lu_fallbacks);
    if (d.damped_steps) reg.add("spice.damped_steps", d.damped_steps);
    if (d.cache_hits) reg.add("spice.cache_hits", d.cache_hits);
    if (d.warm_starts) reg.add("spice.warm_starts", d.warm_starts);
    if (d.schur_solves) reg.add("spice.schur_solves", d.schur_solves);
    if (d.schur_iterations)
      reg.add("spice.schur_iterations", d.schur_iterations);
    if (d.schur_rejects) reg.add("spice.schur_rejects", d.schur_rejects);
    if (d.factor_reuses) reg.add("spice.factor_reuses", d.factor_reuses);
    if (!result.converged) reg.add("spice.nonconverged_solves");
    reg.observe("spice.linear_residual", d.linear_residual);
  }
  return result;
}

void prime_cache(const Netlist& nl, const DcOptions& opt, MnaCache& cache) {
  vet(nl, opt.preflight);
  const Indexer ix = build_indexer(nl);
  obs::Span asm_span("spice.assemble");
  std::vector<double> rhs(static_cast<std::size_t>(ix.unknown_count), 0.0);
  cache.pattern_valid = false;
  cache.matrix = numeric::CsrMatrix();
  cache.scatter.clear();
  cache.system_valid = false;
  cache.factor.reset();
  numeric::ChainSystem* system = structured_system(nl, opt, ix, cache);
  WireBase base;  // kept in the chain system for reprogrammed_only solves
  if (system != nullptr && assemble_chains(nl, ix, ix.pinned_voltage,
                                           *system, rhs, nullptr, &base))
    return;
  std::fill(rhs.begin(), rhs.end(), 0.0);
  build_pattern(nl, ix, ix.pinned_voltage, rhs, nullptr, cache);
}

std::vector<double> assemble_newton(
    const Netlist& nl, const DcOptions& opt,
    const std::vector<std::vector<double>>& iterates, MnaCache& cache,
    double time_step, const std::vector<double>* previous) {
  const Indexer ix = build_indexer(nl);
  numeric::ChainSystem* system = structured_system(nl, opt, ix, cache);
  WireBase wire_base;
  WireBase* const base = wire_base_for(nl, cache, system, wire_base);
  std::vector<double> rhs;
  for (const auto& voltages : iterates) {
    const StepContext step{time_step, previous ? *previous : voltages};
    rhs.assign(static_cast<std::size_t>(ix.unknown_count), 0.0);
    (void)assemble_iteration(nl, opt, ix, voltages, rhs,
                             time_step > 0 ? &step : nullptr, cache, system,
                             base);
  }
  return rhs;
}

double memristor_current(const Netlist& nl, const MemristorElement& m,
                         const DcResult& dc) {
  const double v = dc.voltage(m.a) - dc.voltage(m.b);
  if (nl.linear_memristors()) return v / m.r_state;
  return nl.device()
      .current(units::Ohms{m.r_state}, units::Volts{v})
      .value();
}

double total_source_power(const Netlist& nl, const DcResult& dc) {
  // P = sum over sources of V * I(source). The source current equals the
  // sum of element currents leaving the pinned node. One pass over the
  // elements accumulates that current for every pinned node, adding the
  // same terms in the same order (resistors, then memristors, each in
  // insertion order) as a per-source scan of the element lists would.
  std::vector<char> pinned(dc.node_voltages.size(), 0);
  for (const auto& s : nl.sources()) pinned[s.node] = 1;
  std::vector<double> i_out(dc.node_voltages.size(), 0.0);
  for (const auto& r : nl.resistors()) {
    if (pinned[r.a])
      i_out[r.a] += (dc.voltage(r.a) - dc.voltage(r.b)) / r.ohms;
    if (pinned[r.b] && r.b != r.a)
      i_out[r.b] += (dc.voltage(r.b) - dc.voltage(r.a)) / r.ohms;
  }
  for (const auto& m : nl.memristors()) {
    if (!pinned[m.a] && !pinned[m.b]) continue;
    const double i = memristor_current(nl, m, dc);
    if (pinned[m.a]) i_out[m.a] += i;
    if (pinned[m.b] && m.b != m.a) i_out[m.b] -= i;
  }
  double power = 0.0;
  for (const auto& s : nl.sources()) power += s.volts * i_out[s.node];
  return power;
}

double TransientResult::settling_time(std::size_t probe,
                                      double tolerance) const {
  if (probe >= probe_voltages.size())
    throw std::out_of_range("TransientResult::settling_time: probe");
  const auto& v = probe_voltages[probe];
  if (v.empty()) return 0.0;
  const double final_v = v.back();
  const double band = tolerance * std::fabs(final_v) + 1e-15;
  // Walk backwards: the settling time is the first instant after the last
  // excursion outside the band.
  for (std::size_t i = v.size(); i-- > 0;) {
    if (std::fabs(v[i] - final_v) > band)
      return i + 1 < time.size() ? time[i + 1] : time.back();
  }
  return time.front();
}

TransientResult solve_transient(const Netlist& nl,
                                const std::vector<NodeId>& probes,
                                const TransientOptions& opt) {
  // isfinite first: an ordered compare on a NaN raises FE_INVALID.
  if (!std::isfinite(opt.time_step) || !std::isfinite(opt.end_time) ||
      !(opt.time_step > 0) || !(opt.end_time > 0))
    throw std::invalid_argument("solve_transient: time step / end time");
  // The step count ceil(end_time / dt) must fit in long before it is
  // cast, or the cast is undefined behaviour. The first test keeps a
  // quotient that would overflow to inf from being formed at all.
  constexpr auto kMaxSteps =
      static_cast<double>(std::numeric_limits<long>::max());
  if (!(opt.end_time / kMaxSteps < opt.time_step) ||
      !(std::ceil(opt.end_time / opt.time_step) < kMaxSteps))
    throw std::invalid_argument("solve_transient: too many time steps");
  const int nodes = nl.node_count() + 1;
  for (NodeId p : probes) {
    if (p < 0 || p >= nodes)
      throw std::invalid_argument("solve_transient: probe node");
  }
  obs::Span span("spice.transient");
  const double dt = opt.time_step;
  const long steps = static_cast<long>(std::ceil(opt.end_time / dt));

  // One cache for the whole run: the first step preflights and primes the
  // pattern, every later step refills it. Its warm start is the previous
  // step's solution, which is also the capacitors' history; the initial
  // condition is every node at zero, the sources stepping at t = 0+.
  MnaCache cache;
  cache.warm_start_voltages.assign(static_cast<std::size_t>(nodes), 0.0);
  cache.reprogrammed_only = true;  // the netlist is the same at every step

  TransientResult result;
  result.converged = true;
  result.time.reserve(static_cast<std::size_t>(steps) + 1);
  result.probe_voltages.assign(probes.size(), {});
  const auto record = [&](double t) {
    result.time.push_back(t);
    const std::vector<double>& v = cache.warm_start_voltages;
    for (std::size_t i = 0; i < probes.size(); ++i)
      result.probe_voltages[i].push_back(v[probes[i]]);
  };
  record(0.0);

  const DcOptions dc;
  for (long k = 1; k <= steps; ++k) {
    const StepContext step{dt, cache.warm_start_voltages};
    DcResult r = solve_dc_impl(nl, dc, &cache, &step);
    if (!r.converged) result.converged = false;
    result.diagnostics.absorb(r.diagnostics);
    cache.warm_start_voltages = std::move(r.node_voltages);
    record(static_cast<double>(k) * dt);
  }

  obs::Registry& reg = obs::Registry::global();
  if (reg.enabled()) reg.add("spice.transient_steps", steps);
  return result;
}

}  // namespace mnsim::spice
