#include "arch/computation_unit.hpp"

#include <gtest/gtest.h>

#include <string>

#include "arch/design_context.hpp"

namespace mnsim::arch {
namespace {

AcceleratorConfig base() {
  AcceleratorConfig c;
  c.cmos_node_nm = 45;
  c.crossbar_size = 256;
  c.interconnect_node_nm = 45;
  return c;
}

TEST(Unit, CyclesFollowParallelism) {
  auto cfg = base();
  cfg.parallelism = 16;
  auto r = simulate_unit(256, 256, 8, 4, cfg);
  EXPECT_EQ(r.lanes, 16);
  EXPECT_EQ(r.read_cycles, 16);
  cfg.parallelism = 0;
  r = simulate_unit(256, 256, 8, 4, cfg);
  EXPECT_EQ(r.lanes, 256);
  EXPECT_EQ(r.read_cycles, 1);
  cfg.parallelism = 100;  // non-divisor
  r = simulate_unit(256, 256, 8, 4, cfg);
  EXPECT_EQ(r.read_cycles, 3);  // ceil(256/100)
}

TEST(Unit, LatencyComposition) {
  auto cfg = base();
  cfg.parallelism = 1;
  auto r = simulate_unit(256, 256, 8, 4, cfg);
  EXPECT_NEAR(r.pass_latency,
              r.fixed_latency + r.read_cycles * r.cycle_latency, 1e-15);
  EXPECT_GT(r.fixed_latency, 0.0);
  EXPECT_GT(r.cycle_latency, 0.0);
}

TEST(Unit, SerializedReadoutIsSlower) {
  auto cfg = base();
  cfg.parallelism = 1;
  const double slow = simulate_unit(256, 256, 8, 4, cfg).pass_latency;
  cfg.parallelism = 0;
  const double fast = simulate_unit(256, 256, 8, 4, cfg).pass_latency;
  EXPECT_GT(slow, 50.0 * fast);  // 256 cycles vs 1
}

TEST(Unit, MoreLanesMoreAreaLessLatency) {
  auto cfg = base();
  double prev_area = 0.0;
  double prev_latency = 1e9;
  for (int p : {1, 4, 16, 64, 256}) {
    cfg.parallelism = p;
    auto r = simulate_unit(256, 256, 8, 4, cfg);
    EXPECT_GT(r.area, prev_area) << "p=" << p;
    EXPECT_LT(r.pass_latency, prev_latency) << "p=" << p;
    prev_area = r.area;
    prev_latency = r.pass_latency;
  }
}

TEST(Unit, SignedWeightsDoubleCrossbarsAndAddSubtractors) {
  auto cfg = base();
  auto with = simulate_unit(128, 128, 8, 4, cfg);
  cfg.weight_polarity = 1;
  auto without = simulate_unit(128, 128, 8, 4, cfg);
  EXPECT_NEAR(with.crossbars.area / without.crossbars.area, 2.0, 1e-9);
  EXPECT_GT(with.subtractors.area, 0.0);
  EXPECT_DOUBLE_EQ(without.subtractors.area, 0.0);
}

TEST(Unit, PartialUseScalesPowerNotArea) {
  auto cfg = base();
  auto full = simulate_unit(256, 256, 8, 4, cfg);
  auto partial = simulate_unit(64, 256, 8, 4, cfg);
  EXPECT_DOUBLE_EQ(full.crossbars.area, partial.crossbars.area);
  EXPECT_NEAR(partial.crossbars.dynamic_power / full.crossbars.dynamic_power,
              0.25, 1e-9);
  // Fewer used rows -> fewer DACs.
  EXPECT_LT(partial.dacs.area, full.dacs.area);
}

TEST(Unit, EnergyBreakdownPositive) {
  auto cfg = base();
  cfg.parallelism = 8;
  auto r = simulate_unit(200, 200, 8, 4, cfg);
  EXPECT_GT(r.dynamic_energy_per_pass, 0.0);
  EXPECT_GT(r.leakage_power, 0.0);
  EXPECT_GT(r.area, 0.0);
  auto p = r.total();
  EXPECT_NEAR(p.dynamic_power * p.latency, r.dynamic_energy_per_pass, 1e-18);
}

TEST(Unit, AreaIsSumOfModules) {
  auto cfg = base();
  cfg.parallelism = 4;
  auto r = simulate_unit(128, 128, 8, 4, cfg);
  const double sum = r.crossbars.area + r.dacs.area + r.decoders.area +
                     r.adcs.area + r.muxes.area + r.subtractors.area +
                     r.control.area;
  EXPECT_NEAR(r.area, sum, 1e-18);
}

TEST(Unit, InvalidExtentsThrow) {
  auto cfg = base();
  EXPECT_THROW(simulate_unit(0, 10, 8, 4, cfg), std::invalid_argument);
  EXPECT_THROW(simulate_unit(10, 0, 8, 4, cfg), std::invalid_argument);
  EXPECT_THROW(simulate_unit(300, 10, 8, 4, cfg), std::invalid_argument);
}

TEST(Unit, InvalidConfigThrows) {
  auto cfg = base();
  cfg.interface_in = 0;  // read by no unit model, only by the check
  EXPECT_THROW(simulate_unit(10, 10, 8, 4, cfg), std::invalid_argument);
}

// The network's bit widths are held to 1..16 (MN-NN-002, as the
// network check codes them) before any circuit model sees them: the
// DAC's own uncoded refusal never surfaces.
TEST(Unit, BitWidthsOutsideOneToSixteenAreRefused) {
  const auto cfg = base();
  const auto refused = [&](int input_bits, int weight_bits,
                           const char* name) {
    SCOPED_TRACE(std::string(name) + " " + std::to_string(input_bits) +
                 "/" + std::to_string(weight_bits));
    try {
      (void)simulate_unit(128, 128, input_bits, weight_bits, cfg);
      ADD_FAILURE() << "not refused";
    } catch (const std::invalid_argument& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("[MN-NN-002]"), std::string::npos) << what;
      EXPECT_NE(what.find(name), std::string::npos) << what;
      EXPECT_EQ(what.find("DacModel"), std::string::npos) << what;
    }
  };
  for (int bits : {0, -1, -3, 17, 40}) {
    refused(bits, 4, "input_bits");
    refused(8, bits, "weight_bits");
  }
  for (int bits : {1, 16}) {
    EXPECT_GT(simulate_unit(128, 128, bits, 4, cfg).area, 0.0);
    EXPECT_GT(simulate_unit(128, 128, 8, bits, cfg).area, 0.0);
  }
  // The memoizing path checks the same widths.
  DesignContext context(cfg);
  EXPECT_THROW((void)context.unit(128, 128, 17, 4), std::invalid_argument);
  EXPECT_THROW((void)context.unit(128, 128, 8, 0), std::invalid_argument);
  EXPECT_GT(context.unit(128, 128, 16, 16).area, 0.0);
}

TEST(Unit, PcmDeviceSupported) {
  auto cfg = base();
  cfg.memristor_model = "PCM";
  cfg.resistance_min = 5e3;
  cfg.resistance_max = 1e6;
  auto r = simulate_unit(128, 128, 8, 4, cfg);
  EXPECT_GT(r.area, 0.0);
  // Higher-resistance device draws less crossbar power than RRAM.
  cfg.memristor_model = "RRAM";
  cfg.resistance_min = 500;
  cfg.resistance_max = 500e3;
  auto rram = simulate_unit(128, 128, 8, 4, cfg);
  EXPECT_LT(r.crossbars.dynamic_power, rram.crossbars.dynamic_power);
}

}  // namespace
}  // namespace mnsim::arch
