#include "common.hpp"

#include <algorithm>
#include <cmath>

#include "nn/parser.hpp"
#include "sim/mnsim.hpp"
#include "tech/interconnect.hpp"

namespace perfbench {

using namespace mnsim;

CommonInputs load_common_inputs(const Env& env, SetupTimes* times) {
  CommonInputs in;
  in.config = timed(&times->load_config_s, [&] {
    return sim::load_config(env.root + "/examples/configs/reference.ini");
  });
  in.lenet = timed(&times->parse_network_s, [&] {
    return nn::parse_network_file(env.root + "/examples/networks/lenet.ini");
  });
  return in;
}

double segment_resistance(int node_nm) {
  return tech::interconnect_tech(node_nm).segment_resistance.value();
}

spice::CrossbarSpec worst_case_spec(int size, int node_nm) {
  const auto device = tech::default_rram();
  return spice::CrossbarSpec::uniform(size, size, device,
                                      segment_resistance(node_nm), 60.0,
                                      device.r_min.value());
}

std::vector<double> random_inputs(const spice::CrossbarSpec& spec,
                                  std::mt19937& rng) {
  const double v_read = spec.device.v_read.value();
  std::uniform_real_distribution<double> volts(0.1 * v_read, v_read);
  std::vector<double> inputs(static_cast<std::size_t>(spec.rows));
  for (double& v : inputs) v = volts(rng);
  return inputs;
}

void randomize(spice::CrossbarSpec& spec, std::mt19937& rng) {
  std::uniform_real_distribution<double> siemens(
      1.0 / spec.device.r_max.value(), 1.0 / spec.device.r_min.value());
  for (auto& row : spec.cell_resistance)
    for (double& r : row) r = 1.0 / siemens(rng);
  spec.input_voltages = random_inputs(spec, rng);
}

std::string check_crossbar(const spice::CrossbarSpec& spec,
                           const std::vector<double>& column_outputs,
                           double total_power, bool converged) {
  if (!converged) return "solve did not converge";
  if (!std::isfinite(total_power) || !(total_power > 0))
    return "total power not finite and positive";
  if (column_outputs.size() != static_cast<std::size_t>(spec.cols))
    return "column output count differs from the array width";

  // The sinh law's chord conductance sinh(x)/x grows with the cell
  // voltage, which never exceeds the largest input.
  spice::CrossbarSpec bound = spec;
  if (!spec.linear_memristors) {
    const double v_max =
        *std::max_element(spec.input_voltages.begin(),
                          spec.input_voltages.end());
    const double x = v_max / spec.device.nonlinearity_vt.value();
    const double chord = x > 0 ? std::sinh(x) / x : 1.0;
    for (auto& row : bound.cell_resistance)
      for (double& r : row) r /= chord;
  }
  const std::vector<double> ideal = spice::ideal_column_outputs(bound);
  for (std::size_t j = 0; j < column_outputs.size(); ++j) {
    const double v = column_outputs[j];
    if (!std::isfinite(v) || !(v > 0))
      return "column " + std::to_string(j) + " output not finite and positive";
    if (v > ideal[j] * (1.0 + 1e-9))
      return "column " + std::to_string(j) + " output above the ideal";
  }
  return {};
}

}  // namespace perfbench
