#include "circuit/crossbar.hpp"

#include <cmath>
#include <stdexcept>

namespace mnsim::circuit {

using namespace mnsim::units;
using namespace mnsim::units::literals;

Ohms CrossbarModel::wire_segment_resistance() const {
  return tech::interconnect_tech(interconnect_node_nm).segment_resistance;
}

Ohms CrossbarModel::column_parallel_resistance(Ohms cell_resistance) const {
  // Paper Eq. 10 with the shared-current effective wire segment count
  // (tech::effective_wire_segments, fitted against the circuit-level
  // solver): 1/R_par ~= M / (R + w_eff * r) for the worst (farthest)
  // column.
  const Ohms r = wire_segment_resistance();
  const double w = tech::effective_wire_segments(rows, cols);
  return (cell_resistance + w * r) / rows;
}

Volts CrossbarModel::output_voltage(Volts v_in, Ohms cell_resistance) const {
  // Paper Eq. 9: the column is a divider between R_par and R_s.
  const Ohms r_par = column_parallel_resistance(cell_resistance);
  return v_in * sense_resistance / (r_par + sense_resistance);
}

Volts CrossbarModel::cell_operating_voltage(Volts v_in,
                                            Ohms cell_resistance) const {
  // The input divides across the wire share, the cell, and the sense
  // resistor; only the cell's share of the series path drops across the
  // device (the rest is lost in the wires or appears at the output).
  const Ohms wire =
      tech::effective_wire_segments(rows, cols) * wire_segment_resistance();
  return v_in * cell_resistance /
         (cell_resistance + wire + sense_resistance * rows);
}

Area CrossbarModel::area() const {
  return static_cast<double>(rows) * cols * tech::cell_area(device, cell);
}

Watts CrossbarModel::total_compute_power(Ohms cell_resistance) const {
  // Every cell conducts at its operating voltage; the total power drawn
  // from the input drivers is sum(v_in * i_cell) with the per-cell
  // current v_cell / R set by the cell's share of the series path.
  const Volts v_in = device.v_read;
  const Volts v_cell = cell_operating_voltage(v_in, cell_resistance);
  return static_cast<double>(rows) * cols * v_in * v_cell / cell_resistance;
}

Watts CrossbarModel::compute_power_average() const {
  return total_compute_power(device.harmonic_mean_resistance());
}

Watts CrossbarModel::read_power() const {
  // Memory READ: a single selected cell, average resistance, full v_read
  // across the cell-plus-sense divider.
  const Ohms r = device.harmonic_mean_resistance() + sense_resistance;
  return device.v_read * device.v_read / r;
}

Seconds CrossbarModel::compute_latency() const {
  // Settling of the worst column: device read latency plus the Elmore
  // time constant of the line (total line resistance times total line
  // capacitance over two) against the column load.
  const auto ic = tech::interconnect_tech(interconnect_node_nm);
  const Ohms line_r = (rows + cols) * ic.segment_resistance;
  const Farads line_c = (rows + cols) * ic.segment_capacitance;
  const Ohms r_par =
      column_parallel_resistance(device.harmonic_mean_resistance());
  const Seconds tau = (r_par + sense_resistance + 0.5 * line_r) * line_c;
  // Settle to within half an LSB of an 8-bit output: ~6 time constants.
  return device.read_latency + 6.0 * tau;
}

Ppa CrossbarModel::compute_ppa() const {
  Ppa p;
  p.area = area().value();
  p.dynamic_power = compute_power_average().value();
  // 1T1R arrays have negligible standby leakage (access device off).
  p.leakage_power = 0.0;
  p.latency = compute_latency().value();
  return p;
}

void CrossbarModel::validate() const {
  if (rows <= 0 || cols <= 0)
    throw std::invalid_argument("CrossbarModel: rows/cols must be positive");
  if (sense_resistance <= 0_Ohm)
    throw std::invalid_argument("CrossbarModel: sense resistance");
  device.validate();
  (void)tech::interconnect_tech(interconnect_node_nm);  // range check
}

}  // namespace mnsim::circuit
