// Instruction set and controller (paper Sec. III-D).
//
// The reference design supports the three basic instructions of an
// application-specific memristor accelerator: WRITE (program cells), READ
// (memory read-back), and COMPUTE (one matrix-vector pass of a bank).
// generate_inference_trace emits the instruction stream for processing
// one input sample on a mapped network; generate_program_trace emits the
// one-time weight-programming stream. Customized instruction sets replace
// this module without touching the simulation flow.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "arch/params.hpp"
#include "circuit/module.hpp"
#include "nn/network.hpp"

namespace mnsim::arch {

enum class Opcode : std::uint8_t { kWrite, kRead, kCompute };

struct Instruction {
  Opcode opcode = Opcode::kCompute;
  int bank = 0;       // computation bank index
  long unit = 0;      // unit index inside the bank (-1 = all units)
  long address = 0;   // cell/row address for READ/WRITE; pass index for
                      // COMPUTE
  long length = 0;    // cells written / values read / passes

  [[nodiscard]] std::string to_string() const;
};

// One COMPUTE per bank per matrix-vector pass of one sample.
std::vector<Instruction> generate_inference_trace(
    const nn::Network& network, const AcceleratorConfig& config);

// WRITE instructions covering every programmed cell (unit-granular).
std::vector<Instruction> generate_program_trace(
    const nn::Network& network, const AcceleratorConfig& config);

// Total programming time for a trace: cells are written level-serially,
// one row at a time per crossbar (paper Sec. II-C: memory-style single
// selection during WRITE).
double program_latency(const std::vector<Instruction>& trace,
                       const AcceleratorConfig& config);

// Controller hardware: instruction register + decoder + FSM.
// mnsim-analyze: allow(unreferenced-api, paper inventory: PAPER.md section 1 row 6, the controller)
circuit::Ppa controller_ppa(const AcceleratorConfig& config);

}  // namespace mnsim::arch
