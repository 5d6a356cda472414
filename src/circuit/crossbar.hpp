// Memristor crossbar model (paper Sec. II-A, V-A).
//
// The crossbar stores a weight sub-matrix as cell conductances and
// performs one analog matrix-vector product per compute cycle. This model
// provides its area (Eq. 7/8), its computing and memory-read power (the
// paper's harmonic-mean average-case rule), the electrical quantities the
// accuracy model needs (column parallel resistance, output voltage, cell
// operating voltage), and the settling latency.
#pragma once

#include "circuit/module.hpp"
#include "tech/interconnect.hpp"
#include "tech/memristor.hpp"
#include "util/quantity.hpp"

namespace mnsim::circuit {

struct CrossbarModel {
  int rows = 128;                  // M (inputs)
  int cols = 128;                  // N (outputs)
  tech::MemristorModel device;
  tech::CellType cell = tech::CellType::k1T1R;
  int interconnect_node_nm = 28;      // wire technology inside the array
  units::Ohms sense_resistance{60.0}; // equivalent column load R_s

  // --- electrical helpers -------------------------------------------------

  // Interconnect resistance r between neighbouring cells.
  [[nodiscard]] units::Ohms wire_segment_resistance() const;

  // Column parallel resistance including wires (paper Eq. 10).
  // `cell_resistance` is the per-cell state (use device.r_min for the
  // worst case or the harmonic mean for the average case); pass the
  // nonlinearity-corrected value for R_act analyses.
  [[nodiscard]] units::Ohms column_parallel_resistance(
      units::Ohms cell_resistance) const;

  // Column output voltage for equal inputs v_in (paper Eq. 9).
  // mnsim-analyze: allow(unreferenced-api, paper inventory: PAPER.md section 1 rows 3 and 5, the crossbar output voltage of Eq. 9)
  [[nodiscard]] units::Volts output_voltage(units::Volts v_in,
                                            units::Ohms cell_resistance) const;

  // Voltage across one cell — its share of the series divider formed by
  // the effective wire resistance, the cell, and the column load; this is
  // the operating point the nonlinear V-I correction is evaluated at.
  [[nodiscard]] units::Volts cell_operating_voltage(
      units::Volts v_in, units::Ohms cell_resistance) const;

  // --- performance --------------------------------------------------------

  [[nodiscard]] units::Area area() const;  // cells only (decoders separate)

  // Power while computing, all cells selected (paper Sec. V-A): inputs at
  // v_read, every cell at the harmonic-mean resistance (average case).
  [[nodiscard]] units::Watts compute_power_average() const;

  // Memory READ power: one selected cell driven at v_read.
  [[nodiscard]] units::Watts read_power() const;

  // Analog settling time of a compute cycle: device read latency plus the
  // distributed-RC settling of the worst-case line (Elmore-style).
  [[nodiscard]] units::Seconds compute_latency() const;

  // Aggregate quadruple for a compute cycle (uses average-case power).
  [[nodiscard]] Ppa compute_ppa() const;

  // Validates invariants; throws std::invalid_argument when violated.
  void validate() const;

 private:
  [[nodiscard]] units::Watts total_compute_power(units::Ohms cell_resistance) const;
};

}  // namespace mnsim::circuit
