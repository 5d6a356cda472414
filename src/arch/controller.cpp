#include "arch/controller.hpp"

#include <sstream>

#include "arch/design_context.hpp"
#include "arch/mapper.hpp"

namespace mnsim::arch {

std::string Instruction::to_string() const {
  const char* names[] = {"WRITE", "READ", "COMPUTE"};
  std::ostringstream os;
  os << names[static_cast<int>(opcode)] << " bank=" << bank
     << " unit=" << unit << " addr=" << address << " len=" << length;
  return os.str();
}

std::vector<Instruction> generate_inference_trace(
    const nn::Network& network, const AcceleratorConfig& config) {
  network.validate();
  config.validate();
  std::vector<Instruction> trace;
  int bank = 0;
  for (const auto& layer : network.layers) {
    if (!layer.is_weighted()) continue;
    for (long pass = 0; pass < layer.compute_iterations(); ++pass) {
      Instruction inst;
      inst.opcode = Opcode::kCompute;
      inst.bank = bank;
      inst.unit = -1;  // all units of the bank fire together
      inst.address = pass;
      inst.length = 1;
      trace.push_back(inst);
    }
    ++bank;
  }
  return trace;
}

std::vector<Instruction> generate_program_trace(
    const nn::Network& network, const AcceleratorConfig& config) {
  network.validate();
  const DesignContext context(config);
  std::vector<Instruction> trace;
  int bank = 0;
  for (const auto& layer : network.layers) {
    if (!layer.is_weighted()) continue;
    const LayerMapping m = map_layer(layer, network, context);
    for (long unit = 0; unit < m.unit_count; ++unit) {
      Instruction inst;
      inst.opcode = Opcode::kWrite;
      inst.bank = bank;
      inst.unit = unit;
      inst.address = 0;
      inst.length = static_cast<long>(m.rows_used_full) * m.cols_used_full *
                    m.crossbars_per_unit;
      trace.push_back(inst);
    }
    ++bank;
  }
  return trace;
}

double program_latency(const std::vector<Instruction>& trace,
                       const AcceleratorConfig& config) {
  const auto device = config.device();
  double total = 0.0;
  for (const auto& inst : trace) {
    if (inst.opcode != Opcode::kWrite) continue;
    // Cells written one row at a time; a row of cells programs in
    // parallel across columns, each cell needing up to `levels`
    // incremental pulses (worst case).
    const double rows = static_cast<double>(inst.length) /
                        config.crossbar_size;
    total += rows * device.levels() * device.write_latency.value();
  }
  return total;
}

circuit::Ppa controller_ppa(const AcceleratorConfig& config) {
  const auto cmos = config.cmos();
  // 32-bit instruction register + decode + FSM, ~300 gate equivalents.
  circuit::Ppa p;
  const double gates = 300.0;
  p.area = (gates * cmos.gate_area + 32 * cmos.reg_area).value();
  p.dynamic_power =
      (gates * 0.3 * cmos.gate_energy / units::Seconds{10e-9}).value();
  p.leakage_power =
      (gates * cmos.gate_leakage + 32 * cmos.reg_leakage).value();
  p.latency = (4 * cmos.gate_delay).value();
  return p;
}

}  // namespace mnsim::arch
