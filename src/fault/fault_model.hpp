// Hard-defect and drift fault injection (robustness subsystem).
//
// The accuracy chain of Eq. 9-16 models soft non-idealities (wire drops,
// sinh nonlinearity, bounded variation). Real RRAM arrays additionally
// suffer hard defects the platform must inject and survive:
//   * stuck-at cells — SA0 (stuck at minimum conductance, r_max) and SA1
//     (stuck at maximum conductance, r_min), from forming failures and
//     over-SET/RESET,
//   * broken wordlines / bitlines — an entire row or column electrically
//     open,
//   * retention drift — every cell's resistance inflated by the classical
//     (t/t0)^nu law (accuracy/retention.hpp).
//
// One seed-deterministic DefectMap drives all three simulation layers so
// behavior-level and circuit-level results can be cross-validated under
// the *same* defects:
//   * nn/functional_sim  — apply_to_signed_weights + run_monte_carlo_faulted
//     (inference accuracy under faults),
//   * accuracy chain     — estimate_fault_error composes the fault-induced
//     output deviation with the Eq. 16 variation bound,
//   * spice/crossbar_netlist — apply_to_spec rewrites the programmed cell
//     resistances of the circuit-level netlist (broken lines become
//     kOpenResistance, which is exactly what makes the conductance matrix
//     ill-conditioned — see numeric/resilient.hpp for how the solver
//     survives it).
#pragma once

#include <cstdint>
#include <vector>

#include "accuracy/voltage_error.hpp"
#include "nn/quantization.hpp"
#include "spice/crossbar_netlist.hpp"
#include "tech/memristor.hpp"

namespace mnsim::fault {

// Resistance of an electrically open cell or line segment [ohm]. Finite
// so the MNA system stays solvable; large enough (1e12) that the leakage
// through an open is far below any programmed state.
inline constexpr double kOpenResistance = 1e12;

enum class FaultKind {
  kStuckAtZero,     // SA0: conductance stuck at g_min (r_max)
  kStuckAtOne,      // SA1: conductance stuck at g_max (r_min)
};

struct FaultConfig {
  double stuck_at_zero_rate = 0.0;    // fraction of cells SA0 (0..1)
  double stuck_at_one_rate = 0.0;     // fraction of cells SA1 (0..1)
  double broken_wordline_rate = 0.0;  // fraction of rows open (0..1)
  double broken_bitline_rate = 0.0;   // fraction of columns open (0..1)
  double retention_time = 0.0;        // array age for drift [s]; 0 = fresh
  std::uint32_t seed = 1;             // defect-map seed (reproducibility)
  // Architecture-flow knob: additionally solve a defect-injected crossbar
  // circuit-level per bank and record the solver diagnostics.
  bool circuit_check = false;
  int circuit_check_size = 32;        // validation sub-array bound

  [[nodiscard]] bool enabled() const;
  void validate() const;

  bool operator==(const FaultConfig&) const = default;
};

struct CellFault {
  int row = 0;
  int col = 0;
  FaultKind kind = FaultKind::kStuckAtZero;
};

// A concrete defect realization for one rows x cols array; deterministic
// given (rows, cols, config). Broken lines exclude their cells from the
// stuck-cell draw (the line defect dominates).
struct DefectMap {
  int rows = 0;
  int cols = 0;
  std::uint32_t seed = 0;  // the exact seed this map was drawn with
  std::vector<CellFault> stuck_cells;
  std::vector<int> broken_wordlines;  // row indices, ascending
  std::vector<int> broken_bitlines;   // column indices, ascending
  double drift_factor = 1.0;          // resistance multiplier (>= 1)

  [[nodiscard]] int fault_count() const;
  [[nodiscard]] bool row_broken(int row) const;
  [[nodiscard]] bool col_broken(int col) const;
};

// Draws a defect map for a rows x cols array. `seed_offset` decorrelates
// maps of different layers / polarities under one configured seed (the
// effective seed, config.seed + offset, is recorded in the map).
DefectMap generate_defect_map(int rows, int cols, const FaultConfig& config,
                              const tech::MemristorModel& device,
                              std::uint32_t seed_offset = 0);

// --- shared behavior/circuit application ---------------------------------

// Rewrites programmed cell resistances [rows][cols] in place: SA0 cells
// to r_max, SA1 cells to r_min, every cell on a broken line to
// kOpenResistance, then all non-open cells scaled by drift_factor.
void apply_to_resistance_map(
    const DefectMap& map, const tech::MemristorModel& device,
    std::vector<std::vector<double>>& cell_resistance);

// Circuit-level hook: applies the map to a crossbar spec's programmed
// states (spec.cell_resistance is [rows][cols], rows = inputs).
void apply_to_spec(const DefectMap& map, spice::CrossbarSpec& spec);

// --- behavior-level (functional-sim) hook --------------------------------

// Effective signed weights [out][in] under the faults of the positive and
// negative cell arrays (both oriented [row=in][col=out], matching the
// crossbar mapping of weights_to_cells). SA0 zeroes the polarity's
// contribution, SA1 pins it to the full-scale code, broken wordlines kill
// one input's contribution, broken bitlines kill one output, and drift
// scales every surviving conductance (weight) by 1/drift_factor. Of two
// stuck entries for one cell the later wins; entries outside the array
// are ignored. Linear in cells plus defects.
void apply_to_signed_weights(const DefectMap& positive,
                             const DefectMap& negative, int weight_bits,
                             nn::Matrix& weights);

// --- accuracy-chain hook --------------------------------------------------

struct FaultErrorResult {
  // Fault-induced relative output deviation of the defect-injected
  // uniform crossbar against the defect-free one (behavior-level star
  // model), worst column and column average.
  double fault_worst = 0.0;
  double fault_average = 0.0;
  // Composed with the Eq. 9-16 chain (estimate_voltage_error): the fault
  // deviation adds to the wire/nonlinearity/variation bound.
  double combined_worst = 0.0;
  double combined_average = 0.0;
  int faults_injected = 0;
  std::uint32_t seed = 0;
};

// Evaluates the fault contribution for a crossbar described by the
// accuracy-chain inputs and composes it with the variation chain.
FaultErrorResult estimate_fault_error(const accuracy::CrossbarErrorInputs& in,
                                      const FaultConfig& config);

}  // namespace mnsim::fault
