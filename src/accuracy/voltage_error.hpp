// Behavior-level computing-accuracy model, analog part
// (paper Sec. VI-A/B/C/D, Eq. 9-11 and Eq. 16).
//
// Three approximations turn the nonlinear Kirchhoff system into a closed
// form the simulator can evaluate in microseconds:
//   1. decouple the nonlinear V-I law: solve the linear operating point,
//      then re-evaluate each cell's chord resistance R_act at its
//      operating voltage (a one-dimensional fixed point, iterated here),
//   2. drop wire capacitance/inductance: the crossbar becomes a resistor
//      network, and the worst-case column collapses to Eq. 10,
//   3. evaluate only the average and worst cases instead of per-matrix
//      results.
//
// The relative output-voltage error combines an interconnect term (the
// shared-current effective wire resistance, which grows ~quadratically
// with crossbar size — see tech::effective_wire_segments; the coefficient
// is fitted against the circuit-level solver exactly as the paper fits
// Eq. 11 against SPICE in Fig. 5) and a nonlinearity term (R_act - R_idl,
// which grows as the crossbar shrinks because the column parallel
// resistance — and with it the cell operating voltage — rises). Together
// they reproduce the paper's U-shaped error-vs-size curve (Table V).
// Device variation enters as (1 +/- sigma) * R_act (Eq. 16).
#pragma once

#include "tech/interconnect.hpp"
#include "tech/memristor.hpp"
#include "util/quantity.hpp"

namespace mnsim::accuracy {

struct CrossbarErrorInputs {
  int rows = 128;   // M
  int cols = 128;   // N
  tech::MemristorModel device;
  units::Ohms segment_resistance{0.022};  // r
  units::Ohms sense_resistance{60.0};     // R_s
  double wire_alpha = tech::kSharedCurrentAlpha;  // fitted (Fig. 5)

  void validate() const;
  // Every input equal (arch::VoltageErrorMemo keys on this).
  bool operator==(const CrossbarErrorInputs&) const = default;
};

struct VoltageError {
  // Relative output-voltage error bound for the worst case (every cell at
  // r_min, farthest column, variation pushed in the worsening direction;
  // the interconnect and nonlinearity deviations push in opposite
  // directions, so the worst-case bound is the sum of magnitudes) and the
  // average case (harmonic-mean cells, mean wire distance, no variation).
  double worst = 0.0;
  double average = 0.0;

  // Diagnostics: the two signed contributions at the worst case.
  double interconnect_term = 0.0;  // from the effective wire resistance
  double nonlinear_term = 0.0;     // from R_act - R_idl (negative: the
                                   // sinh law conducts more than linear)
  units::Volts cell_operating_voltage;  // worst-case V across a cell
};

// Evaluates the closed-form model. The fixed point between the cell
// operating voltage and R_act converges in a few iterations (the coupling
// is weak); 8 iterations are used.
VoltageError estimate_voltage_error(const CrossbarErrorInputs& in);

// Signed relative output-voltage error for a given uniform cell state and
// wire distance in segments (the Eq. 11 kernel); exposed for the Fig. 5
// fit and for tests. `sigma_direction` is -1, 0, or +1 (Eq. 16).
double relative_output_error(const CrossbarErrorInputs& in,
                             units::Ohms cell_state_resistance,
                             double wire_segments, int sigma_direction);

// The same kernel with linear cells (no sinh correction): the pure
// interconnect term, used by the Fig. 5 fit where the wire coefficient is
// calibrated in isolation.
double relative_output_error_linear(const CrossbarErrorInputs& in,
                                    units::Ohms cell_state_resistance,
                                    double wire_segments);

// Kernel with an arbitrary multiplicative deviation on the programmed
// state: the ideal output is evaluated at `cell_state_resistance`, the
// actual at `state_factor * R_act` (plus wires and the sinh correction).
// `state_factor = 1 +/- sigma` reproduces Eq. 16; retention drift passes
// its unbounded (t/t0)^nu factor.
double relative_output_error_scaled(const CrossbarErrorInputs& in,
                                    units::Ohms cell_state_resistance,
                                    double wire_segments,
                                    double state_factor);

}  // namespace mnsim::accuracy
