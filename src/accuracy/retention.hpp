// Conductance retention drift.
//
// Programmed memristor states drift over time — most prominently in PCM,
// whose amorphous phase relaxes as R(t) = R(t0) * (t/t0)^nu (the
// classical drift law), and far more weakly in RRAM; STT-MRAM holds
// binary states without drift. Drift inflates every cell's resistance,
// which lowers the column outputs exactly like a one-sided device
// variation, so it folds into the Eq. 16 machinery: the drifted state is
// an extra multiplicative factor on R_act.
//
// The practical question for an inference accelerator that writes
// weights once (Sec. II-B.1) is the *retuning interval*: how long until
// drift alone pushes the accelerator's worst-case error past the design
// constraint and the arrays must be reprogrammed.
#pragma once

#include <vector>

#include "accuracy/voltage_error.hpp"

namespace mnsim::accuracy {

// Drift exponent nu by device kind (0 disables drift).
double drift_exponent(tech::DeviceKind kind);

// Resistance multiplier after `elapsed` seconds for a state programmed at
// `reference_time` (default 1 s, the conventional t0). Returns 1 for
// elapsed <= reference_time.
double drift_factor(double nu, double elapsed, double reference_time = 1.0);

struct RetentionPoint {
  double elapsed = 0.0;       // [s]
  double drift = 1.0;         // resistance multiplier
  double worst_error = 0.0;   // crossbar worst-case error at this age
};

// Worst-case crossbar error as a function of age: evaluates the Eq. 11
// kernel with every cell's resistance inflated by the drift factor.
// mnsim-analyze: allow(unreferenced-api, test oracle: test_accuracy_retention checks retuning_interval's bisection against it)
std::vector<RetentionPoint> retention_sweep(
    const CrossbarErrorInputs& inputs, double nu,
    const std::vector<double>& ages);

// The largest age (searched over [1 s, horizon]) at which the worst-case
// error still meets `error_budget`; returns `horizon` when drift never
// violates it, and 0 when the budget is violated even fresh.
double retuning_interval(const CrossbarErrorInputs& inputs, double nu,
                         double error_budget, double horizon = 1e9);

}  // namespace mnsim::accuracy
