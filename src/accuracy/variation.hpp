// Device-variation analysis (paper Sec. VI-D, Eq. 16).
//
// The closed form bounds the output error when every cell's resistance
// deviates by up to +/- sigma; this module cross-checks the bound by
// Monte-Carlo: per-cell resistances drawn uniformly from
// [(1-sigma) R, (1+sigma) R] around R = r_min (the paper's worst case:
// every cell at its lowest resistance), the full crossbar solved
// circuit-level, and each trial scored as the worst relative error over
// ALL columns against the variation-free ideal (variation is i.i.d. per
// cell, so any column can be the worst one — not just the far column the
// wire analysis singles out).
#pragma once

#include <cstdint>
#include <vector>

#include "accuracy/voltage_error.hpp"

namespace mnsim::accuracy {

struct VariationMcOptions {
  int trials = 50;
  std::uint32_t seed = 7;
  // Worker threads for the trial sweep: 1 = serial, 0 = hardware
  // concurrency. Each trial draws from its own counter-derived RNG
  // stream, so the results are bit-identical for every thread count.
  int threads = 1;
};

struct VariationMcResult {
  double mean_error = 0.0;        // mean per-trial worst-column |error|
  double max_error = 0.0;         // worst trial
  double closed_form_bound = 0.0; // Eq. 16 worst case
  std::vector<double> samples;    // per-trial worst-column |error|
  std::uint32_t seed = 0;         // RNG seed the trials used (echoed)
  // Sweep-acceleration bookkeeping (docs/PERFORMANCE.md).
  long cache_hits = 0;            // solves served by the cached topology
  long warm_starts = 0;           // solves warm-started from the base case
  int threads = 1;                // worker threads actually used
};

// Throws std::invalid_argument when sigma is zero (nothing to sample) or
// options are degenerate. Cost: one circuit-level solve per trial — keep
// rows/cols modest (<= 48) for interactive use.
VariationMcResult variation_monte_carlo(const CrossbarErrorInputs& inputs,
                                        const VariationMcOptions& options);

}  // namespace mnsim::accuracy
