#include "spice/mna.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <random>
#include <utility>

#include "check/diagnostic.hpp"
#include "spice/crossbar_netlist.hpp"
#include "spice/delay.hpp"
#include "tech/interconnect.hpp"
#include "util/cancel.hpp"
#include "check_testing.hpp"

namespace mnsim::spice {
namespace {

TEST(Transient, RcStepResponseMatchesAnalytic) {
  // 1 kOhm into 1 pF: v(t) = V (1 - exp(-t/tau)), tau = 1 ns.
  Netlist nl;
  NodeId in = nl.add_node();
  NodeId out = nl.add_node();
  nl.add_source(in, 1.0);
  nl.add_resistor(in, out, 1e3);
  nl.add_capacitor(out, kGround, 1e-12);

  TransientOptions opt;
  opt.time_step = 10e-12;
  opt.end_time = 5e-9;
  auto res = solve_transient(nl, {out}, opt);
  ASSERT_TRUE(res.converged);
  ASSERT_EQ(res.time.size(), res.probe_voltages[0].size());

  const double tau = 1e-9;
  for (std::size_t i = 0; i < res.time.size(); ++i) {
    const double expected = 1.0 - std::exp(-res.time[i] / tau);
    // Backward Euler is first order; allow a few percent at dt = tau/100.
    EXPECT_NEAR(res.probe_voltages[0][i], expected, 0.03) << "t=" << res.time[i];
  }
}

TEST(Transient, SettlingTimeNearLogTolTau) {
  Netlist nl;
  NodeId in = nl.add_node();
  NodeId out = nl.add_node();
  nl.add_source(in, 1.0);
  nl.add_resistor(in, out, 1e3);
  nl.add_capacitor(out, kGround, 1e-12);
  TransientOptions opt;
  opt.time_step = 5e-12;
  opt.end_time = 10e-9;
  auto res = solve_transient(nl, {out}, opt);
  // Settle to 1 %: t = tau * ln(100) ~ 4.6 ns.
  EXPECT_NEAR(res.settling_time(0, 0.01), 4.6e-9, 0.5e-9);
}

TEST(Transient, FinalValueMatchesDcOperatingPoint) {
  // Nonlinear: memristor + series resistor + cap; the transient must
  // converge to the DC solution.
  auto device = tech::default_rram();
  Netlist nl(device);
  NodeId in = nl.add_node();
  NodeId mid = nl.add_node();
  nl.add_source(in, device.v_read.value());
  nl.add_resistor(in, mid, 300.0);
  nl.add_memristor(mid, kGround, 700.0);
  nl.add_capacitor(mid, kGround, 1e-13);

  auto dc = solve_dc(nl);
  TransientOptions opt;
  opt.time_step = 2e-12;
  opt.end_time = 2e-9;
  auto res = solve_transient(nl, {mid}, opt);
  ASSERT_TRUE(res.converged);
  EXPECT_NEAR(res.probe_voltages[0].back(), dc.voltage(mid),
              1e-3 * dc.voltage(mid));
}

TEST(Transient, PureResistiveSettlesImmediately) {
  Netlist nl;
  NodeId in = nl.add_node();
  NodeId out = nl.add_node();
  nl.add_source(in, 0.5);
  nl.add_resistor(in, out, 100.0);
  nl.add_resistor(out, kGround, 100.0);
  TransientOptions opt;
  opt.time_step = 1e-12;
  opt.end_time = 1e-11;
  auto res = solve_transient(nl, {out}, opt);
  EXPECT_NEAR(res.probe_voltages[0][1], 0.25, 1e-9);  // first step already
  // The t = 0 sample is the pre-step zero state, so settling completes at
  // the first integration step.
  EXPECT_DOUBLE_EQ(res.settling_time(0), res.time[1]);
}

TEST(Transient, CrossbarSettlesNearElmorePrediction) {
  // A small crossbar with exaggerated wire RC: the transient settling
  // time must land within a small factor of the Elmore-based estimate.
  auto device = tech::default_rram();
  auto spec =
      CrossbarSpec::uniform(8, 8, device, 5.0, 60.0, device.r_min.value());
  spec.segment_capacitance = 50e-15;
  spec.linear_memristors = true;

  std::vector<NodeId> columns;
  Netlist nl = build_crossbar_netlist(spec, &columns);
  TransientOptions opt;
  opt.time_step = 20e-12;
  opt.end_time = 40e-9;
  auto res = solve_transient(nl, {columns.back()}, opt);
  ASSERT_TRUE(res.converged);
  const double measured = res.settling_time(0, 0.01);
  const double tau = crossbar_elmore_tau(spec, spec.segment_capacitance);
  EXPECT_GT(measured, 0.1 * tau * std::log(100.0));
  EXPECT_LT(measured, 5.0 * tau * std::log(100.0));
}

TEST(Transient, LinearCrossbarFactorsStepMatrixOnce) {
  // Linear cells: the step matrix G + C/dt is the same at every step, so
  // the first step's Schur factor serves every later one, and the run
  // still settles onto the DC operating point.
  auto device = tech::default_rram();
  auto spec =
      CrossbarSpec::uniform(8, 8, device, 5.0, 60.0, device.r_min.value());
  spec.segment_capacitance = 50e-15;
  spec.linear_memristors = true;

  Netlist nl = build_crossbar_netlist(spec, nullptr);
  std::vector<NodeId> probes;
  for (NodeId n = 1; n <= nl.node_count(); ++n) probes.push_back(n);
  TransientOptions opt;
  opt.time_step = 20e-12;
  opt.end_time = 40e-9;
  auto res = solve_transient(nl, probes, opt);
  ASSERT_TRUE(res.converged);
  const auto steps = static_cast<long>(res.time.size()) - 1;
  ASSERT_GT(steps, 1);
  EXPECT_EQ(res.diagnostics.schur_solves, steps);
  EXPECT_EQ(res.diagnostics.factor_reuses, steps - 1);
  EXPECT_EQ(res.diagnostics.schur_rejects, 0);

  const DcResult dc = solve_dc(nl);
  for (std::size_t i = 0; i < probes.size(); ++i)
    EXPECT_NEAR(res.probe_voltages[i].back(), dc.voltage(probes[i]), 1e-9)
        << "node " << probes[i];
}

TEST(Transient, InvalidArgumentsThrow) {
  Netlist nl;
  NodeId n = nl.add_node();
  nl.add_source(n, 1.0);
  TransientOptions opt;
  opt.time_step = 0.0;
  EXPECT_THROW(solve_transient(nl, {n}, opt), std::invalid_argument);
  opt = TransientOptions{};
  EXPECT_THROW(solve_transient(nl, {99}, opt), std::invalid_argument);
  auto res = solve_transient(nl, {n}, TransientOptions{});
  EXPECT_THROW((void)res.settling_time(5), std::out_of_range);
}


// A non-finite time step or end time, or more steps than fit in long,
// is refused with the documented error before the step count is cast.
TEST(Transient, NonFiniteOrHugeEndTimeThrows) {
  Netlist nl;
  NodeId n = nl.add_node();
  nl.add_source(n, 1.0);
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  // (time step, end time); 1e7 / 1e-12 = 1e19 steps overflows long.
  const std::pair<double, double> cases[] = {
      {1e-12, inf}, {1e-12, 1e300}, {1e-12, 1e7},
      {inf, 1e-9},  {nan, 1e-9},    {1e-12, nan}};
  for (const auto& [dt, end] : cases) {
    TransientOptions opt;
    opt.time_step = dt;
    opt.end_time = end;
    EXPECT_THROW(solve_transient(nl, {n}, opt), std::invalid_argument)
        << "dt " << dt << " end " << end;
  }
}

TEST(Transient, StronglyNonlinearDeviceStaysFinite) {
  // A device with a tiny nonlinearity scale drives |v / v_t| far above
  // sinh's overflow threshold during the step: before the companion
  // model saturated its argument (tech::kMaxSinhArg, the same clamp the
  // DC stamp uses), the first Newton iterate produced inf conductance
  // and the solve failed. It must now converge to the DC operating
  // point like any other deck.
  auto device = tech::default_rram();
  device.nonlinearity_vt = units::Volts{1e-4};  // v_read / v_t = 500
  Netlist nl(device);
  NodeId in = nl.add_node();
  NodeId mid = nl.add_node();
  nl.add_source(in, device.v_read.value());
  nl.add_resistor(in, mid, 1e3);
  nl.add_memristor(mid, kGround, 10e3);
  nl.add_capacitor(mid, kGround, 1e-15);

  TransientOptions opt;
  opt.time_step = 20e-12;
  opt.end_time = 2e-9;
  auto res = solve_transient(nl, {mid}, opt);
  ASSERT_TRUE(res.converged);
  for (double v : res.probe_voltages[0]) ASSERT_TRUE(std::isfinite(v));
  const auto dc = solve_dc(nl);
  EXPECT_NEAR(res.probe_voltages[0].back(), dc.node_voltages[mid], 1e-6);
}

TEST(Transient, CancelledTokenStopsTheSolve) {
  // The steps run through the DC Newton loop, so its spice.newton poll
  // applies: a requested token stops the transient before its first
  // linear solve.
  Netlist nl;
  NodeId in = nl.add_node();
  NodeId out = nl.add_node();
  nl.add_source(in, 1.0);
  nl.add_resistor(in, out, 1e3);
  nl.add_capacitor(out, kGround, 1e-12);
  util::CancelToken token;
  token.request();
  util::ScopedCancel scope(&token);
  try {
    (void)solve_transient(nl, {out}, TransientOptions{});
    FAIL() << "expected util::CancelledError";
  } catch (const util::CancelledError& e) {
    EXPECT_EQ(e.where(), "spice.newton");
  }
}

TEST(Transient, FloatingIslandIsRefusedLikeDc) {
  // Two nodes joined by a resistor, with no DC path to ground: the
  // preflight refuses the netlist with MN-NET-001, as solve_dc does.
  Netlist nl;
  NodeId in = nl.add_node();
  NodeId out = nl.add_node();
  nl.add_source(in, 1.0);
  nl.add_resistor(in, out, 1e3);
  NodeId a = nl.add_node();
  NodeId b = nl.add_node();
  nl.add_resistor(a, b, 1e3);
  try {
    (void)solve_transient(nl, {out}, TransientOptions{});
    FAIL() << "expected check::CheckError";
  } catch (const check::CheckError& e) {
    EXPECT_TRUE(has_code(e.diagnostics(), "MN-NET-001"));
  }
}

TEST(Transient, NonlinearCrossbarSettlesToDcOperatingPoint) {
  // A seeded nonlinear 8x8 crossbar with 45 nm wire RC: the steps run
  // the Schur rung with the capacitor companion on the diagonal, and
  // after 50 steps of 20 ps every node sits at its DC operating point.
  const auto device = tech::default_rram();
  const auto wires = tech::interconnect_tech(45);
  auto spec = CrossbarSpec::uniform(8, 8, device,
                                    wires.segment_resistance.value(), 60.0,
                                    device.r_min.value());
  spec.segment_capacitance = wires.segment_capacitance.value();
  std::mt19937 rng(21);
  std::uniform_real_distribution<double> r_cell(device.r_min.value(),
                                                device.r_max.value());
  std::uniform_real_distribution<double> v_in(0.0,
                                              device.v_read.value());
  for (auto& row : spec.cell_resistance)
    for (double& r : row) r = r_cell(rng);
  for (double& v : spec.input_voltages) v = v_in(rng);
  const Netlist nl = build_crossbar_netlist(spec, nullptr);

  std::vector<NodeId> every_node;
  for (NodeId n = 1; n <= nl.node_count(); ++n) every_node.push_back(n);
  TransientOptions opt;
  opt.time_step = 20e-12;
  opt.end_time = 1e-9;
  const auto res = solve_transient(nl, every_node, opt);
  ASSERT_TRUE(res.converged);
  EXPECT_EQ(res.diagnostics.schur_rejects, 0);
  EXPECT_EQ(res.diagnostics.schur_solves,
            res.diagnostics.newton_iterations);

  const auto dc = solve_dc(nl);
  for (std::size_t i = 0; i < every_node.size(); ++i)
    EXPECT_NEAR(res.probe_voltages[i].back(),
                dc.voltage(every_node[i]), 1e-9)
        << "node " << every_node[i];
}
}  // namespace
}  // namespace mnsim::spice
