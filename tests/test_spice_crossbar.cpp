#include "spice/crossbar_netlist.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>

#include "check/diagnostic.hpp"
#include "spice/delay.hpp"
#include "util/fp.hpp"

namespace mnsim::spice {
namespace {

CrossbarSpec uniform(int size, double r_state,
                     double segment_resistance = 0.022) {
  return CrossbarSpec::uniform(size, size, tech::default_rram(),
                               segment_resistance, 60.0, r_state);
}

TEST(CrossbarSpec, UniformFactoryShapes) {
  auto spec = uniform(8, 1000.0);
  EXPECT_EQ(spec.input_voltages.size(), 8u);
  EXPECT_EQ(spec.cell_resistance.size(), 8u);
  EXPECT_EQ(spec.cell_resistance[0].size(), 8u);
  EXPECT_NO_THROW(spec.validate());
}

TEST(CrossbarSpec, ValidationCatchesShapeErrors) {
  auto spec = uniform(4, 1000.0);
  spec.input_voltages.pop_back();
  EXPECT_THROW(spec.validate(), std::invalid_argument);
  spec = uniform(4, 1000.0);
  spec.cell_resistance[2][1] = -5.0;
  EXPECT_THROW(spec.validate(), std::invalid_argument);
  spec = uniform(4, 1000.0);
  spec.segment_resistance = 0.0;
  EXPECT_THROW(spec.validate(), std::invalid_argument);
}

TEST(IdealOutputs, MatchEquation1And2) {
  // Uniform cells: v_out = v_in * (M g) / (g_s + M g), the Eq. 9 divider.
  auto spec = uniform(16, 2000.0);
  auto out = ideal_column_outputs(spec);
  ASSERT_EQ(out.size(), 16u);
  const double g = 1.0 / 2000.0;
  const double gs = 1.0 / spec.sense_resistance;
  const double expected =
      spec.device.v_read.value() * 16.0 * g / (gs + 16.0 * g);
  for (double v : out) EXPECT_NEAR(v, expected, 1e-12);
}

TEST(IdealOutputs, PerColumnStatesHonoured) {
  auto spec = uniform(4, 1000.0);
  for (int i = 0; i < 4; ++i) spec.cell_resistance[i][2] = 500e3;
  auto out = ideal_column_outputs(spec);
  EXPECT_LT(out[2], out[0]);  // high-resistance column outputs less
}

TEST(SolveCrossbar, ApproachesIdealWithTinyWiresLinearCells) {
  auto spec = uniform(12, 5000.0, 1e-6);
  spec.linear_memristors = true;
  auto sol = solve_crossbar(spec);
  auto ideal = ideal_column_outputs(spec);
  for (std::size_t j = 0; j < ideal.size(); ++j)
    EXPECT_NEAR(sol.column_output_voltage[j], ideal[j],
                1e-4 * ideal[j]);
}

TEST(SolveCrossbar, IdealWiresFlagMatchesIdealOutputs) {
  auto spec = uniform(10, 3000.0);
  spec.ideal_wires = true;
  spec.linear_memristors = true;
  auto sol = solve_crossbar(spec);
  auto ideal = ideal_column_outputs(spec);
  for (std::size_t j = 0; j < ideal.size(); ++j)
    EXPECT_NEAR(sol.column_output_voltage[j], ideal[j], 1e-3 * ideal[j]);
}

TEST(SolveCrossbar, FarColumnSuffersMostIrDrop) {
  auto spec = uniform(24, 500.0, 0.5);  // exaggerated wires
  spec.linear_memristors = true;
  auto sol = solve_crossbar(spec);
  EXPECT_LT(sol.column_output_voltage.back(),
            sol.column_output_voltage.front());
}

TEST(SolveCrossbar, ErrorGrowsWithSize) {
  double prev = 0.0;
  for (int size : {8, 16, 32}) {
    auto spec = uniform(size, 500.0, 0.1);
    spec.linear_memristors = true;
    auto sol = solve_crossbar(spec);
    auto ideal = ideal_column_outputs(spec);
    const double err =
        (ideal.back() - sol.column_output_voltage.back()) / ideal.back();
    EXPECT_GT(err, prev);
    prev = err;
  }
}

TEST(SolveCrossbar, TotalPowerPositiveAndScalesWithSize) {
  auto s8 = solve_crossbar(uniform(8, 1000.0));
  auto s16 = solve_crossbar(uniform(16, 1000.0));
  EXPECT_GT(s8.total_power, 0.0);
  EXPECT_GT(s16.total_power, 2.0 * s8.total_power);
}

TEST(SolveCrossbar, NewtonConvergesOnNonlinearArray) {
  auto spec = uniform(8, 500.0);
  auto sol = solve_crossbar(spec);
  EXPECT_TRUE(sol.dc.converged);
  EXPECT_GE(sol.dc.newton_iterations, 2);
  EXPECT_LE(sol.dc.newton_iterations, 20);
}

TEST(Delay, ElmoreTauPositiveAndMonotonic) {
  const double c = 0.06e-15;
  const double tau8 = crossbar_elmore_tau(uniform(8, 1000.0), c);
  const double tau64 = crossbar_elmore_tau(uniform(64, 1000.0), c);
  EXPECT_GT(tau8, 0.0);
  EXPECT_GT(tau64, tau8);
}

TEST(Delay, SettlingLatencyIncludesDeviceRead) {
  auto spec = uniform(16, 1000.0);
  const double lat = crossbar_settling_latency(spec, 0.06e-15, 8);
  EXPECT_GT(lat, spec.device.read_latency.value());
  // More output bits -> longer settle.
  EXPECT_GT(crossbar_settling_latency(spec, 0.06e-15, 12), lat);
}


TEST(CrossbarDelay, SettlingLatencyRejectsAbsurdResolution) {
  // Without the range check, pow(2, bits + 1) overflows to inf for
  // garbage resolutions and the latency model reports an inf latency
  // instead of failing.
  auto spec = CrossbarSpec::uniform(8, 8, tech::default_rram(), 0.022,
                                    60.0, 1e3);
  EXPECT_THROW(crossbar_settling_latency(spec, 0.06e-15, 0),
               std::invalid_argument);
  EXPECT_THROW(crossbar_settling_latency(spec, 0.06e-15, 17),
               std::invalid_argument);
  EXPECT_TRUE(std::isfinite(crossbar_settling_latency(spec, 0.06e-15, 8)));
}
// A source voltage that is not a usable number: NaN and inf are refused
// up front (CrossbarSpec::validate, the netlist setters, and the
// preflight's MN-NET-012), 1e300 V is a valid netlist whose right-hand
// side norm overflows and ends the solve unconverged. None may come back
// converged with zero outputs, and none may run the PCG to its cap.
TEST(CrossbarSolve, NonFiniteOrOverflowingInputsNeverConvergeToZeros) {
  const auto device = tech::default_rram();
  for (int size : {16, 64}) {
    for (double probe : {std::numeric_limits<double>::quiet_NaN(),
                         std::numeric_limits<double>::infinity(), 1e300}) {
      SCOPED_TRACE(std::to_string(size) + " " + std::to_string(probe));
      auto spec = CrossbarSpec::uniform(size, size, device, 0.022, 60.0,
                                        device.r_min.value());
      const auto started = std::chrono::steady_clock::now();
      if (!std::isfinite(probe)) {
        spec.input_voltages[1] = probe;
        EXPECT_THROW((void)solve_crossbar(spec), std::invalid_argument);
        // Past the spec: a netlist carrying the value is refused by the
        // preflight with the coded error, and the setter refuses it.
        spec.input_voltages[1] = device.v_read.value();
        std::vector<NodeId> columns;
        Netlist nl = build_crossbar_netlist(spec, &columns);
        EXPECT_THROW(nl.set_source_voltage(1, probe), std::invalid_argument);
        Netlist raw(device);
        const NodeId a = raw.add_node();
        raw.add_resistor(a, kGround, 10.0);
        EXPECT_THROW(raw.add_source(a, probe), std::invalid_argument);
        EXPECT_THROW(raw.add_resistor(a, kGround, probe),
                     std::invalid_argument);
        continue;
      }
      spec.input_voltages[1] = probe;
      // The right-hand side's norm overflows on purpose.
      const util::fpe_guard probing_overflow;
      const CrossbarSolution sol = solve_crossbar(spec);
      EXPECT_FALSE(sol.dc.converged);
      EXPECT_EQ(sol.dc.diagnostics.schur_iterations, 0);
      EXPECT_EQ(sol.dc.diagnostics.cg_iterations, 0);
      const double seconds = std::chrono::duration<double>(
                                 std::chrono::steady_clock::now() - started)
                                 .count();
      EXPECT_LT(seconds, 5.0);
    }
  }
}

}  // namespace
}  // namespace mnsim::spice
