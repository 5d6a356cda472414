#include "tech/cmos_tech.hpp"

#include <gtest/gtest.h>

#include "util/units.hpp"

namespace mnsim::tech {
namespace {

using namespace mnsim::units;

TEST(CmosTech, AnchorNode45) {
  auto t = cmos_tech(45);
  EXPECT_EQ(t.node_nm, 45);
  EXPECT_DOUBLE_EQ(t.feature_size.value(), 45 * nm);
  EXPECT_DOUBLE_EQ(t.vdd.value(), 1.0);
  EXPECT_NEAR(t.gate_delay.value(), 20 * ps, 1e-15);
  EXPECT_NEAR(t.gate_area.value(), 100.0 * 45 * nm * 45 * nm, 1e-20);
}

TEST(CmosTech, PaperNodesSupported) {
  for (int node : {130, 90, 65, 45, 32, 28}) {
    auto t = cmos_tech(node);
    EXPECT_GT(t.vdd.value(), 0.0);
    EXPECT_GT(t.gate_delay.value(), 0.0);
    EXPECT_GT(t.gate_energy.value(), 0.0);
    EXPECT_GT(t.gate_leakage.value(), 0.0);
    EXPECT_GT(t.gate_area.value(), 0.0);
    EXPECT_GT(t.reg_area, t.gate_area);  // a DFF is bigger than a gate
    EXPECT_GT(t.sram_bit_area, t.gate_area);
  }
}

TEST(CmosTech, OutOfRangeThrows) {
  EXPECT_THROW(cmos_tech(5), std::invalid_argument);
  EXPECT_THROW(cmos_tech(300), std::invalid_argument);
  EXPECT_THROW(cmos_tech(0), std::invalid_argument);
}

// Scaling-law properties across the node sweep.
class CmosScaling : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(CmosScaling, LargerNodeIsSlowerBiggerHungrier) {
  const auto [small, large] = GetParam();
  auto a = cmos_tech(small);
  auto b = cmos_tech(large);
  EXPECT_LT(a.gate_delay, b.gate_delay);
  EXPECT_LT(a.gate_area, b.gate_area);
  EXPECT_LT(a.gate_energy, b.gate_energy);
  EXPECT_LE(a.vdd, b.vdd);
  // Area scales exactly quadratically with feature size.
  const double ratio = static_cast<double>(large) / small;
  EXPECT_NEAR(b.gate_area / a.gate_area, ratio * ratio, 1e-9);
  // Delay scales linearly.
  EXPECT_NEAR(b.gate_delay / a.gate_delay, ratio, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    NodePairs, CmosScaling,
    ::testing::Values(std::pair{28, 32}, std::pair{32, 45}, std::pair{45, 65},
                      std::pair{65, 90}, std::pair{90, 130},
                      std::pair{16, 130}));

TEST(CmosTech, VddInterpolatesBetweenAnchors) {
  // 55 nm sits between 65 (1.1 V) and 45 (1.0 V).
  auto t = cmos_tech(55);
  EXPECT_GT(t.vdd.value(), 1.0);
  EXPECT_LT(t.vdd.value(), 1.1);
}

}  // namespace
}  // namespace mnsim::tech
