// CMOS technology parameters.
//
// MNSIM consumes per-node scalar parameters for its transistor-based
// modules (decoders, adders, neurons, buffers, ...). The authors pull
// these from CACTI, NVSim and the Predictive Technology Model; we embed a
// table anchored at 45 nm and derived with the published first-order
// scaling laws (area ~ F^2, delay ~ F, switching energy ~ F * Vdd^2),
// which is the granularity the paper's experiments actually exercise.
#pragma once

#include <vector>

#include "util/quantity.hpp"

namespace mnsim::tech {

struct CmosTech {
  int node_nm = 45;              // feature size F in nanometres (node label)
  units::Metres feature_size;    // F
  units::Volts vdd;              // supply voltage
  units::Seconds gate_delay;     // FO4-class delay of a minimum gate
  units::Joules gate_energy;     // switching energy of a minimum 2-input gate
  units::Watts gate_leakage;     // static power of a minimum 2-input gate
  units::Area gate_area;         // layout area of a minimum 2-input gate
  units::Area reg_area;          // area of one register bit (DFF)
  units::Joules reg_energy;      // clocking energy of one register bit
  units::Watts reg_leakage;      // leakage of one register bit
  units::Area sram_bit_area;     // area of one SRAM bit (buffers)
};

// Returns the technology parameters for a node (nm). Supported nodes are
// the ones the paper uses (130, 90, 65, 45, 32, 28); other values in
// [16, 250] are derived from the same scaling laws. Throws
// std::invalid_argument outside that range.
CmosTech cmos_tech(int node_nm);

}  // namespace mnsim::tech
