// Ablation: dropping wire capacitance (the paper's approximation 2,
// Sec. VI-B).
//
// Compares three settling-latency estimates for a compute cycle across
// crossbar sizes and interconnect nodes:
//   * transient   — backward-Euler integration of the full nonlinear RC
//                   network (the ground truth this repository can offer),
//   * Elmore      — the circuit-level closed form with capacitance kept,
//   * behavior    — MNSIM's capacitance-free estimate (device read
//                   latency + 6 RC time constants of the lumped column).
// The takeaway the paper asserts: interconnect capacitance is a
// negligible share of the compute-cycle latency (the read circuits
// dominate), so dropping it is safe.
#include <cstdio>

#include "bench_common.hpp"
#include "circuit/adc.hpp"
#include "circuit/crossbar.hpp"
#include "spice/delay.hpp"
#include "spice/mna.hpp"
#include "tech/interconnect.hpp"
#include "util/table.hpp"
#include "util/units.hpp"

using namespace mnsim;
using namespace mnsim::units;

int main() {
  const auto device = tech::default_rram();

  util::Table table(
      "Ablation: settling latency with vs without wire capacitance");
  table.set_header({"Size", "Node (nm)", "Transient (ns)", "Elmore (ns)",
                    "Behavior (ns)", "Share of read cycle"});
  util::CsvWriter csv;
  csv.set_header({"size", "node", "transient_ns", "elmore_ns",
                  "behavior_ns", "cycle_share"});

  // The read cycle an ADC lane imposes (8-bit SA at 50 MHz).
  circuit::AdcModel adc{circuit::AdcKind::kMultiLevelSA, 8,
                        mnsim::units::Hertz{50e6}, tech::cmos_tech(45)};
  const double read_cycle = adc.conversion_latency().value();

  for (int node : {45, 18}) {
    const auto wires = tech::interconnect_tech(node);
    for (int size : {8, 16, 32}) {
      auto spec = spice::CrossbarSpec::uniform(
          size, size, device, wires.segment_resistance.value(), 60.0,
          device.r_min.value());
      spec.segment_capacitance = wires.segment_capacitance.value();

      std::vector<spice::NodeId> columns;
      auto nl = spice::build_crossbar_netlist(spec, &columns);
      spice::TransientOptions opt;
      opt.time_step = 20e-12;
      opt.end_time = 30e-9;
      const auto tr = spice::solve_transient(nl, {columns.back()}, opt);
      const double measured =
          device.read_latency.value() + tr.settling_time(0, 0.002);

      const double elmore = spice::crossbar_settling_latency(
          spec, wires.segment_capacitance.value(), 8);

      circuit::CrossbarModel model;
      model.rows = size;
      model.cols = size;
      model.device = device;
      model.interconnect_node_nm = node;
      const double behavior = model.compute_latency().value();

      table.add_row({std::to_string(size), std::to_string(node),
                     util::Table::num(measured / ns, 3),
                     util::Table::num(elmore / ns, 3),
                     util::Table::num(behavior / ns, 3),
                     util::Table::num(100.0 * measured / read_cycle, 2) +
                         "%"});
      csv.add_row(std::vector<double>{double(size), double(node),
                                      measured / ns, elmore / ns,
                                      behavior / ns,
                                      measured / read_cycle});
    }
  }
  table.print();
  std::printf(
      "8-bit SA read cycle for reference: %.1f ns. Wire-RC settling is a "
      "few percent of it, so the capacitance-free behavior model loses "
      "little accuracy — the paper's justification for approximation 2.\n",
      read_cycle / ns);
  bench::save_csv(csv, "ablation_interconnect_rc.csv");
  return 0;
}
