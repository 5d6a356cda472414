// Modified nodal analysis with Newton iteration.
//
// Solves the DC operating point of a Netlist: node voltages of the
// resistive network with nonlinear memristors. Grounded ideal voltage
// sources pin their nodes, so the unknowns are the free node voltages and
// the system is the (symmetric positive definite) reduced conductance
// matrix — solved with Jacobi-preconditioned conjugate gradients. The
// nonlinear elements are Newton-linearized with the standard companion
// model (conductance = dI/dV at the previous iterate, plus an equivalent
// current source).
//
// This is the same equation system a general-purpose SPICE solves for
// this circuit class; it is the repository's stand-in for the paper's
// HSPICE baseline (DESIGN.md, substitution table).
//
// The transient solve (solve_transient, below) runs every backward-Euler
// step through the same Newton loop: a step is a DC solve whose assembly
// also stamps each capacitor's companion model.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "numeric/schur.hpp"
#include "numeric/sparse.hpp"
#include "spice/netlist.hpp"

namespace mnsim::spice {

// Newton loop limits: converged once the largest node-voltage update
// falls below kNewtonTolerance; a non-finite or growing update is halved
// and re-applied, at most kMaxDampingRetries times per solve.
inline constexpr double kNewtonTolerance = 1e-9;  // [V]
inline constexpr int kMaxNewtonIterations = 60;
inline constexpr int kMaxDampingRetries = 8;

struct DcOptions {
  double cg_tolerance = 1e-12;
  std::size_t cg_max_iterations = 0;  // 0 = auto (4n + 100)

  // Graceful-degradation ladder for the inner linear solves: a stalled
  // CG is retried warm-started with a larger budget, then falls back to
  // dense LU (numeric/resilient.hpp). Off, a stalled solve throws, as
  // the historical behavior. Config key: [solver] Allow_Fallback.
  bool allow_fallback = true;

  // Structure-exploiting rung: when the netlist carries wire-chain
  // metadata (WireStructure, attached by build_crossbar_netlist), try
  // the bipartite Schur solver before generic CG. Acceptance is judged
  // on the true residual, so disabling this only costs performance.
  // Config key: [solver] Structured.
  bool allow_schur = true;

  // Semantic pre-flight (check/netlist_check.hpp): run the structural
  // analyzer (construction invariants, connectivity via union-find)
  // with warnings off before assembling anything, and throw
  // check::CheckError on a netlist that can only fail numerically. Only
  // on an error is the full analysis re-run, so the thrown diagnostics
  // carry the warnings too. Skipped on cache hits — the topology was
  // vetted when the pattern was primed — so repeated sweeps pay the
  // cost once per structure; with preflight off (or on a cache hit) the
  // solve runs the invariant subset, Netlist::validate(), unless the
  // cache's owner vouches for the netlist (MnaCache::reprogrammed_only).
  bool preflight = true;
};

// What the solver actually did — threaded up through DcResult,
// CrossbarSolution and the accelerator report so degraded (retried,
// fallback, damped, non-converged) solves are visible, never silent.
struct SolverDiagnostics {
  int newton_iterations = 0;
  double newton_residual = 0.0;   // final max |dV| of the Newton loop [V]
  long cg_iterations = 0;         // summed over all linear solves
  int cg_retries = 0;             // warm-started CG retries taken
  int lu_fallbacks = 0;           // dense-LU fallback solves taken
  int damped_steps = 0;           // halved Newton steps
  double linear_residual = 0.0;   // worst relative residual of any solve
  int faults_injected = 0;        // defects applied to the netlist's array
  // Sweep-acceleration bookkeeping (docs/PERFORMANCE.md): assemblies
  // that refilled a cached pattern (chain system or CSR) instead of
  // building it, and linear solves that warm-started CG from a previous
  // solution of the same topology.
  long cache_hits = 0;
  long warm_starts = 0;
  // Structure-exploiting solver bookkeeping: linear solves served by the
  // bipartite Schur rung, PCG iterations it spent, attempts it rejected
  // back to the generic ladder, and Schur solves through the factor an
  // MnaCache keeps (MnaCache::factor) instead of a freshly built one.
  long schur_solves = 0;
  long schur_iterations = 0;
  int schur_rejects = 0;
  long factor_reuses = 0;
  // Worst diagonal-growth condition estimate reported by the dense
  // direct rung (0 when that rung never factored a matrix).
  double condition_estimate = 0.0;
  // Worker threads that produced this (aggregated) report; 1 for a
  // single solve, the sweep's pool size after absorb() across a
  // parallel sweep.
  int threads = 1;

  [[nodiscard]] bool degraded() const {
    return cg_retries > 0 || lu_fallbacks > 0 || damped_steps > 0;
  }
  // Aggregation for bank-/accelerator-level reporting.
  void absorb(const SolverDiagnostics& other);
};

// Reusable per-topology solver state for repeated DC solves of netlists
// sharing one structure (same nodes, same element connectivity, values
// free to change), and an optional warm-start voltage vector (by node
// id) used as the Newton/CG starting iterate.
//
// A netlist with a usable WireStructure is assembled straight into its
// chain system: the Schur rung's own arrays (numeric::ChainSystem), its
// pattern laid out from the wire chains and the memristors and refilled
// in place by every assembly. The CSR sparsity pattern of the reduced conductance matrix
// -- refilled in place per assembly through the scatter map (the CSR
// slot of every stamp, in stamp order) -- is built only for netlists
// without one, and for iterates the Schur rung rejects.
//
// One cache serves one structure. A refill verifies every stamp's slot
// (the CSR one falls back to a column search when the stamp sequence
// moved: a rewired netlist with the same element count); solve_dc lays
// the chain system out afresh, or rebuilds the CSR pattern, whenever a
// stamp misses the pattern altogether. A cache must not be shared
// between threads — sweep engines keep one per worker, cloned from a
// serially primed master so results stay schedule-independent (see
// util/parallel.hpp's determinism contract: warm_start_voltages is
// caller-managed and never auto-updated).
//
// Deliberately carries no mutex and no MN_GUARDED_BY annotations: the
// thread-safety story is compartmentalization, not locking. Each worker
// owns its clone outright, so the hot refill path stays synchronization
// free; the worker-slot indexing that enforces this in the batch solver
// is checked by mnsim-analyze's parallel-capture rule (the compile-time
// capability layer in util/thread_safety.hpp covers the *locked* shared
// state; this struct is the documented lock-free counterpart).
struct MnaCache {
  bool pattern_valid = false;
  numeric::CsrMatrix matrix;             // pattern + last stamped values
  std::vector<std::uint32_t> scatter;    // CSR slot of the k-th stamp
  std::vector<double> warm_start_voltages;  // by node id; empty = cold
  // The wire structure laid out over this topology's unknowns (empty
  // when the netlist carries no usable structure, broken() when its
  // stamps do not fit it) and the values of its last assembly.
  bool system_valid = false;
  numeric::ChainSystem system;
  // Schur factor of the chain system every refill of this pattern
  // reproduces, or null. Whoever sets it vouches that the values will
  // not change: solve_crossbar_batch for a shared-matrix batch (its
  // worker clones share the one immutable factor), and a linear
  // transient for its fixed step matrix. Solves on a refilled system use
  // it instead of factoring (counted in factor_reuses; an invalid one
  // counts one schur_reject), and on a reprogrammed_only cache assemble
  // only the right-hand side; a fresh layout drops it.
  std::shared_ptr<const numeric::SchurFactorization> factor;
  // Set by an owner that vouches every solve on this cache is of the
  // netlist it was primed with, changed since only through
  // set_memristor_state / set_source_voltage: CrossbarSolveCache, whose
  // netlist is reprogrammed per solve, and a transient run, whose netlist
  // does not change. Its structure, pinned nodes and resistors are then
  // those the cache was vetted and laid out for, and the setters keep
  // Netlist::validate()'s invariants, so a solve skips validate() and
  // starts its first chain assembly from the wire-only snapshot an
  // earlier one took, re-stamping only the resistors' right-hand side.
  bool reprogrammed_only = false;
};

struct DcResult {
  std::vector<double> node_voltages;  // index = NodeId (0 = ground = 0 V)
  int newton_iterations = 0;
  // True only when the Newton loop met kNewtonTolerance; a run that
  // exhausted kMaxNewtonIterations reports false with the final update
  // size in diagnostics.newton_residual.
  bool converged = false;
  SolverDiagnostics diagnostics;

  [[nodiscard]] double voltage(NodeId n) const { return node_voltages[n]; }
};

// Solves the DC operating point. When `cache` is non-null the assembly
// pattern is reused across calls (values-only refill) and the
// solve warm-starts from cache->warm_start_voltages when set; the
// corresponding cache_hits / warm_starts land in the result's
// diagnostics. Passing nullptr keeps the historical one-shot behavior
// (the pattern is still reused across Newton iterations internally).
DcResult solve_dc(const Netlist& netlist, const DcOptions& options = {},
                  MnaCache* cache = nullptr);

// Primes `cache` for value-only re-solves of `netlist`'s topology
// without solving it: vets the netlist (the preflight, or validate()
// with options.preflight off) and assembles it once -- into its chain
// system when options.allow_schur and its wire structure holds, else
// into the CSR pattern and scatter map -- the same pattern build
// solve_dc runs on a cold cache. Every later solve_dc on the cache
// starts with a refill. The warm start is left as it was; a kept factor
// goes.
void prime_cache(const Netlist& netlist, const DcOptions& options,
                 MnaCache& cache);

// The assemblies a Newton solve of `netlist` runs at `iterates` (node
// voltages by node id, in order) on a cache primed by prime_cache with
// the same options, through the per-iteration assembly solve_dc runs:
// the chain system (a nonlinear netlist's from the second iterate on
// starting from the first one's wire-only snapshot), or the CSR pattern.
// With time_step > 0 each is a backward-Euler step from `previous` (by
// node id; the iterate itself when null), capacitors stamped. Returns
// the last assembly's right-hand side; the cache holds its matrix.
// mnsim-analyze: allow(unreferenced-api, test oracle: test_spice_mna compares the chain system it fills with the CSR refill, slot by slot)
std::vector<double> assemble_newton(
    const Netlist& netlist, const DcOptions& options,
    const std::vector<std::vector<double>>& iterates, MnaCache& cache,
    double time_step = 0.0, const std::vector<double>* previous = nullptr);

// Current through a memristor element at the solved operating point
// (positive a -> b); honours the netlist's linear_memristors flag.
double memristor_current(const Netlist& netlist, const MemristorElement& m,
                         const DcResult& dc);

// Total power delivered by all voltage sources at the operating point
// (equals the total dissipation of the resistive network).
double total_source_power(const Netlist& netlist, const DcResult& dc);

// --- transient (time-domain) solves -----------------------------------
//
// The behavior-level platform ignores wire capacitance (paper Sec. VI-B,
// approximation 2) and estimates settling with a fixed multiple of the
// Elmore time constant. The transient keeps the capacitors and integrates
// the full nonlinear network through a compute cycle (step inputs at
// t = 0), the ground truth the RC-ablation bench compares the Elmore and
// behavior estimates against.
//
// Integration: backward Euler. Each step is one solve_dc-style Newton
// solve whose assembly adds the capacitor companion model (G = C/dt in
// parallel with a history current source -G * v_prev), warm-started from
// the previous step and sharing one MnaCache across the whole run, with
// default DcOptions: preflight, pattern refill, the Schur rung, damping,
// the degradation ladder and the spice.newton cancellation poll all
// apply. The transient therefore refuses exactly the netlists solve_dc
// refuses (check::CheckError from the preflight, e.g. MN-NET-001 for a
// node with no DC path to ground, even when a capacitor ties it there).
// On a linear netlist the step matrix (G + C/dt) is the same at every
// step, so the Schur factor built on the first step stays in the cache
// and every later step only refills and solves (factor_reuses).

struct TransientOptions {
  double time_step = 1e-12;  // dt [s]
  double end_time = 1e-9;    // total simulated time [s]
};

struct TransientResult {
  std::vector<double> time;                         // sample instants
  std::vector<std::vector<double>> probe_voltages;  // [probe][step]
  bool converged = false;                           // every step converged
  SolverDiagnostics diagnostics;                    // summed over steps

  // First instant after which the probe stays within `tolerance`
  // (relative) of its final value; returns end_time when it never
  // settles within the window.
  [[nodiscard]] double settling_time(std::size_t probe,
                                     double tolerance = 0.01) const;
};

// Integrates from all-zero initial conditions with the sources stepping
// to their DC values at t = 0. `probes` selects the recorded nodes.
// Throws std::invalid_argument on a time step or end time that is not
// positive and finite, on more steps (ceil(end_time / time_step)) than
// fit in long, and on a probe outside the netlist.
TransientResult solve_transient(const Netlist& netlist,
                                const std::vector<NodeId>& probes,
                                const TransientOptions& options = {});

}  // namespace mnsim::spice
