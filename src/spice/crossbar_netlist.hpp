// Crossbar network construction for circuit-level simulation.
//
// Builds the full resistor network of an M x N crossbar (paper Sec. VI):
// M*N memristor cells, 2*M*N interconnect segments (r along every row and
// column), N column sense resistors, and M input sources — the network a
// circuit-level simulator must solve where the behavior-level model uses
// Eq. 9-11. Row m is driven from the left; column n is sensed at the
// bottom; the worst-case column of the paper's analysis is the one
// farthest from the drivers (largest n).
#pragma once

#include <vector>

#include "spice/mna.hpp"
#include "spice/netlist.hpp"
#include "tech/memristor.hpp"

namespace mnsim::spice {

struct CrossbarSpec {
  int rows = 32;
  int cols = 32;
  tech::MemristorModel device;
  double segment_resistance = 0.022; // r between neighbouring cells [ohm]
  double sense_resistance = 60.0;    // column load R_s [ohm]
  std::vector<double> input_voltages;              // size rows
  std::vector<std::vector<double>> cell_resistance; // [rows][cols]
  bool linear_memristors = false;    // ablation: ideal linear cells
  bool ideal_wires = false;          // ablation: r = 0 (drop wire segments)
  // When > 0, a grounded capacitor of this value is attached to every
  // wire tap node — the full RC interconnect the behavior model drops
  // (paper Sec. VI-B); used by the transient solver / RC ablation.
  double segment_capacitance = 0.0;

  // Convenience: every input at the device read voltage, every cell at
  // `r_state` (pass device.r_min for the paper's worst case).
  static CrossbarSpec uniform(int rows, int cols,
                              const tech::MemristorModel& device,
                              double segment_resistance,
                              double sense_resistance, double r_state);

  void validate() const;
};

struct CrossbarSolution {
  DcResult dc;
  std::vector<NodeId> column_output_nodes;   // sense node per column
  std::vector<double> column_output_voltage; // V at each sense resistor
  double total_power = 0.0;                  // delivered by the sources
};

// Builds the netlist. If `out_column_nodes` is non-null it receives the
// sense-node id of each column.
Netlist build_crossbar_netlist(const CrossbarSpec& spec,
                               std::vector<NodeId>* out_column_nodes);

// Reusable state for repeated crossbar solves sharing one topology
// (same rows/cols/wiring/device; cell resistances and input voltages
// free to vary): the built netlist, reprogrammed value-only per call,
// and the MNA-level cache (CSR pattern + optional warm start). The
// cache re-primes itself automatically whenever the spec's topology
// stops matching. Copyable so sweep engines can clone a serially
// primed master per worker thread (one cache must never be shared
// between threads); see docs/PERFORMANCE.md. Like MnaCache it is
// deliberately lock-free — per-worker ownership, enforced by worker-slot
// indexing and the parallel-capture analyzer rule, replaces locking
// (see mna.hpp's MnaCache note and util/thread_safety.hpp).
struct CrossbarSolveCache {
  bool valid = false;
  // The topology fields of the spec the netlist matches; its value
  // arrays (input_voltages, cell_resistance) stay empty.
  CrossbarSpec key;
  // Built once, values reprogrammed per solve. Change it only through
  // set_memristor_state / set_source_voltage: `mna` relies on that
  // (MnaCache::reprogrammed_only).
  Netlist netlist;
  std::vector<NodeId> column_nodes;
  MnaCache mna;

  // True when `spec` can be served by value-only reprogramming.
  [[nodiscard]] bool matches(const CrossbarSpec& spec) const;
};

// Builds and solves the DC operating point. When `cache` is non-null the
// netlist and CSR pattern are reused across calls with matching topology
// (value-only reprogramming + refill), and the solve warm-starts from
// cache->mna.warm_start_voltages when the caller set it.
CrossbarSolution solve_crossbar(const CrossbarSpec& spec,
                                const DcOptions& options = {},
                                CrossbarSolveCache* cache = nullptr);

// --- batched crossbar solves ------------------------------------------
//
// Sweep-shaped workloads (Monte-Carlo trials, per-input inference) are
// many solves of one crossbar topology with varying values. The batch
// primes one master CrossbarSolveCache (netlist built, preflight and CSR
// pattern once; spice::prime_cache) and runs every entry on a per-worker
// clone through the same reprogram-and-solve step a cached
// solve_crossbar takes. When only input voltages vary over linear cells,
// every entry shares one conductance matrix: the Schur factor is built
// once into the master's MnaCache::factor and the clones share it.
// Results and diagnostics are bit-identical to per-entry solve_crossbar
// calls served from caches primed on the base spec, at any thread count,
// except that the shared factor counts one factor_reuses per entry.

// Value-only overrides; empty containers keep the base spec's values.
// Non-empty ones must match the base shape (rows / rows x cols).
struct CrossbarBatchEntry {
  std::vector<double> input_voltages;
  std::vector<std::vector<double>> cell_resistance;
};

// The per-entry reduction of a batched solve: what sweep engines score
// on, without retaining every node voltage of every entry.
struct CrossbarBatchResult {
  std::vector<double> column_output_voltage;  // V at each sense resistor
  double total_power = 0.0;                   // delivered by the sources
  bool converged = false;
  SolverDiagnostics diagnostics;
};

// result[i] corresponds to entries[i]. `warm_start_from_base` seeds every
// entry identically (schedule-independent) from the base spec's operating
// point, solved once on the primed master; otherwise entries solve cold.
std::vector<CrossbarBatchResult> solve_crossbar_batch(
    const CrossbarSpec& base, const std::vector<CrossbarBatchEntry>& entries,
    const DcOptions& options = {}, int threads = 1,
    bool warm_start_from_base = false);

// The ideal (wire-free, linear-cell) column outputs from the voltage
// divider Eq. 9 generalized to per-cell states: the analytic reference
// the error rate is measured against.
std::vector<double> ideal_column_outputs(const CrossbarSpec& spec);

}  // namespace mnsim::spice
