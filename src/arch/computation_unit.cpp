#include "arch/computation_unit.hpp"

#include <stdexcept>
#include <string>
#include <utility>

#include "arch/design_context.hpp"
#include "circuit/adc.hpp"
#include "circuit/dac.hpp"
#include "circuit/decoder.hpp"
#include "circuit/logic.hpp"

namespace mnsim::arch {

circuit::Ppa UnitReport::total() const {
  circuit::Ppa p;
  p.area = area;
  p.latency = pass_latency;
  p.leakage_power = leakage_power;
  p.dynamic_power =
      pass_latency > 0 ? dynamic_energy_per_pass / pass_latency : 0.0;
  return p;
}

UnitReport simulate_unit(int rows_used, int cols_used, int input_bits,
                         int weight_bits, const AcceleratorConfig& config) {
  return simulate_unit(DesignContext(config), rows_used, cols_used,
                       input_bits, weight_bits);
}

UnitReport simulate_unit(const DesignContext& context, int rows_used,
                         int cols_used, int input_bits, int weight_bits) {
  const AcceleratorConfig& config = context.config();
  // The network's bit widths, held to the range check_network_rules
  // gives them, before the DAC and ADC models see them.
  for (const auto& [name, bits] : {std::pair{"input_bits", input_bits},
                                   {"weight_bits", weight_bits}})
    if (bits < 1 || bits > 16)
      throw std::invalid_argument(
          std::string("simulate_unit: ") + name + " = " +
          std::to_string(bits) +
          " is outside the supported 1..16 range [MN-NN-002]");
  if (rows_used <= 0 || cols_used <= 0 ||
      rows_used > config.crossbar_size || cols_used > config.crossbar_size)
    throw std::invalid_argument("simulate_unit: used extent out of range");

  const tech::CmosTech& cmos = context.cmos();
  const tech::MemristorModel& device = context.device();
  const int crossbar_count =
      (config.weight_polarity == 2 && config.signed_two_crossbars) ? 2 : 1;

  UnitReport rep;
  rep.rows_used = rows_used;
  rep.cols_used = cols_used;
  rep.lanes = config.effective_parallelism(cols_used);
  rep.read_cycles = (cols_used + rep.lanes - 1) / rep.lanes;

  // --- crossbars -----------------------------------------------------------
  circuit::CrossbarModel xbar;
  xbar.rows = config.crossbar_size;
  xbar.cols = config.crossbar_size;
  xbar.device = device;
  xbar.cell = config.cell_type;
  xbar.interconnect_node_nm = config.interconnect_node_nm;
  xbar.sense_resistance = units::Ohms{config.sense_resistance};
  xbar.validate();

  // Unused rows get zero input and unused columns stay unsensed, so the
  // computing power scales with the used fraction of the array.
  const double used_fraction =
      static_cast<double>(rows_used) * cols_used /
      (static_cast<double>(xbar.rows) * xbar.cols);
  rep.crossbars.area = crossbar_count * xbar.area().value();
  rep.crossbars.dynamic_power =
      crossbar_count * used_fraction * xbar.compute_power_average().value();
  rep.crossbars.leakage_power = 0.0;
  rep.crossbars.latency = xbar.compute_latency().value();

  // --- input peripherals (shared by both polarity crossbars) ---------------
  circuit::DacModel dac{input_bits, cmos};
  dac.validate();
  rep.dacs = dac.ppa().times(rows_used);

  circuit::DecoderModel dec{config.crossbar_size,
                            circuit::DecoderKind::kComputationOriented,
                            cmos};
  dec.validate();
  rep.decoders = dec.ppa().times(crossbar_count);

  // --- read path ------------------------------------------------------------
  const int adc_bits = circuit::AdcModel::required_bits(
      input_bits, weight_bits, rows_used, config.output_bits);
  circuit::AdcModel adc{config.adc_kind, adc_bits,
                        units::Hertz{config.adc_clock}, cmos};
  adc.validate();
  rep.adcs = adc.ppa().times(rep.lanes);

  // One column MUX per crossbar per lane selecting among read_cycles
  // columns.
  rep.muxes = circuit::mux_ppa(rep.read_cycles, 1, cmos)
                  .times(static_cast<double>(crossbar_count) * rep.lanes);

  if (crossbar_count == 2) {
    // Analog subtractor merging the two polarities ahead of each ADC.
    rep.subtractors = circuit::subtractor_ppa(adc_bits, cmos).times(rep.lanes);
  }

  // Counter-based MUX controller (Sec. III-C.4).
  int counter_bits = 1;
  while ((1 << counter_bits) < rep.read_cycles) ++counter_bits;
  rep.control = circuit::counter_ppa(counter_bits, cmos);

  // --- roll-up ---------------------------------------------------------------
  rep.area = rep.crossbars.area + rep.dacs.area + rep.decoders.area +
             rep.adcs.area + rep.muxes.area + rep.subtractors.area +
             rep.control.area;
  rep.leakage_power = rep.dacs.leakage_power + rep.decoders.leakage_power +
                      rep.adcs.leakage_power + rep.muxes.leakage_power +
                      rep.subtractors.leakage_power +
                      rep.control.leakage_power;

  // Latency: inputs convert and the decoder opens while the array settles;
  // then read_cycles sequential column groups, each mux-switch + subtract
  // + ADC conversion.
  rep.fixed_latency = dac.conversion_latency().value() +
                      rep.decoders.latency +
                      rep.crossbars.latency;
  rep.cycle_latency = rep.muxes.latency + rep.subtractors.latency +
                      adc.conversion_latency().value();
  rep.pass_latency =
      rep.fixed_latency + rep.read_cycles * rep.cycle_latency;

  // Dynamic energy of one pass: one input conversion per used row, the
  // crossbar conducting for the whole pass, one ADC conversion per lane
  // per cycle, and the switching of the digital read path.
  rep.crossbar_energy =
      rep.crossbars.dynamic_power *
      (rep.crossbars.latency + rep.read_cycles * rep.cycle_latency);
  rep.dac_energy = rows_used * dac.conversion_energy().value();
  rep.adc_energy = static_cast<double>(rep.read_cycles) * rep.lanes *
                   adc.conversion_energy().value();
  rep.digital_energy =
      (rep.muxes.dynamic_power * rep.muxes.latency +
       rep.subtractors.dynamic_power * rep.subtractors.latency +
       rep.control.dynamic_power * rep.control.latency +
       rep.decoders.dynamic_power * rep.decoders.latency) *
      rep.read_cycles;
  rep.dynamic_energy_per_pass = rep.crossbar_energy + rep.dac_energy +
                                rep.adc_energy + rep.digital_energy;
  return rep;
}

}  // namespace mnsim::arch
