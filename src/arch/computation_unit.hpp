// Level-3: Computation Unit (paper Sec. III-C, Fig. 1d).
//
// A unit owns one (unsigned) or two (signed, method 1) memristor
// crossbars, per-row input DACs with transfer-gate switches, a
// computation-oriented row decoder per crossbar, and the read path:
// column MUXes, analog subtractors merging the two polarities, and
// `p = Parallelism_Degree` ADCs driven by a counter-based controller —
// each crossbar computes p columns per read cycle and sequentially scans
// ceil(cols_used / p) cycles (Sec. III-C.4).
#pragma once

#include "arch/params.hpp"
#include "circuit/crossbar.hpp"
#include "circuit/module.hpp"

namespace mnsim::arch {

class DesignContext;

struct UnitReport {
  int rows_used = 0;
  int cols_used = 0;
  int lanes = 0;         // ADC lanes (effective parallelism)
  int read_cycles = 0;   // ceil(cols_used / lanes)

  double fixed_latency = 0.0;   // input conversion + decode + settle [s]
  double cycle_latency = 0.0;   // mux + subtract + ADC per read cycle [s]
  double pass_latency = 0.0;    // fixed + cycles * cycle [s]
  double dynamic_energy_per_pass = 0.0;  // [J]
  double leakage_power = 0.0;            // [W]
  double area = 0.0;                     // [m^2]

  // Per-pass dynamic-energy breakdown (sums to dynamic_energy_per_pass).
  double crossbar_energy = 0.0;
  double dac_energy = 0.0;
  double adc_energy = 0.0;
  double digital_energy = 0.0;

  // Per-module breakdown (area/power/latency of one instance group).
  circuit::Ppa crossbars, dacs, decoders, muxes, subtractors, adcs, control;

  // Aggregate quadruple: latency = pass_latency, dynamic power = dynamic
  // energy averaged over the pass.
  [[nodiscard]] circuit::Ppa total() const;
};

// Simulates one computation unit holding a rows_used x cols_used weight
// block (cols_used counts physical cell columns, i.e. after the
// cells-per-weight expansion). `input_bits`/`weight_bits` come from the
// network description; each outside 1..16 throws std::invalid_argument
// coded MN-NN-002, as check::check_network_rules reports it. Validates
// `config` first.
UnitReport simulate_unit(int rows_used, int cols_used, int input_bits,
                         int weight_bits, const AcceleratorConfig& config);

// The same unit over the already-checked configuration of `context`
// (DesignContext::unit memoizes it per geometry).
UnitReport simulate_unit(const DesignContext& context, int rows_used,
                         int cols_used, int input_bits, int weight_bits);

}  // namespace mnsim::arch
