// Inputs and output checks shared by the workload implementations.
#pragma once

#include <random>
#include <string>
#include <vector>

#include "arch/params.hpp"
#include "harness.hpp"
#include "nn/network.hpp"
#include "spice/crossbar_netlist.hpp"

namespace perfbench {

// Interconnect nodes of the Fig. 5 sweep [nm].
inline const std::vector<int> kInterconnectNodes = {28, 36, 45, 90};

// The repository's example inputs every set-up parses.
struct CommonInputs {
  mnsim::nn::Network lenet;               // examples/networks/lenet.ini
  mnsim::arch::AcceleratorConfig config;  // examples/configs/reference.ini
};

// Parses both files through the public loaders, timing each into `times`.
CommonInputs load_common_inputs(const Env& env, SetupTimes* times);

// Wire segment resistance of an interconnect node [ohm].
double segment_resistance(int node_nm);

// Crossbar of the paper's worst case: every cell at r_min, every input at
// the read voltage, default RRAM, 60 ohm sense resistors.
mnsim::spice::CrossbarSpec worst_case_spec(int size, int node_nm);

// Seeded programming of `spec`: cell conductances uniform in
// [g_min, g_max], inputs uniform in [0.1, 1] x the read voltage.
void randomize(mnsim::spice::CrossbarSpec& spec, std::mt19937& rng);
std::vector<double> random_inputs(const mnsim::spice::CrossbarSpec& spec,
                                  std::mt19937& rng);

// Checks that hold for any seed: converged, total power finite and
// positive, every column output finite, positive and no larger than the
// wire-free ideal (spice::ideal_column_outputs) of the same array — for
// nonlinear cells evaluated at their largest chord conductance, which no
// operating point below the largest input can exceed. Returns the first
// violation, or an empty string.
std::string check_crossbar(const mnsim::spice::CrossbarSpec& spec,
                           const std::vector<double>& column_outputs,
                           double total_power, bool converged);

}  // namespace perfbench
