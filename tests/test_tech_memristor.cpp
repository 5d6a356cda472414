#include "tech/memristor.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace mnsim::tech {
namespace {

using namespace mnsim::units;
using namespace mnsim::units::literals;

TEST(Memristor, DefaultRramMatchesTableI) {
  auto m = default_rram();
  EXPECT_DOUBLE_EQ(m.r_min.value(), 500.0);
  EXPECT_DOUBLE_EQ(m.r_max.value(), 500e3);
  EXPECT_EQ(m.level_bits, 7);  // the 7-bit reference device
  EXPECT_EQ(m.levels(), 128);
}

TEST(Memristor, LevelsSpanResistanceRange) {
  auto m = default_rram();
  EXPECT_DOUBLE_EQ(m.resistance_for_level(0).value(), m.r_max.value());
  EXPECT_DOUBLE_EQ(m.resistance_for_level(m.levels() - 1).value(),
                   m.r_min.value());
  // Levels are linear in conductance: midpoint conductance is the mean.
  const Siemens g_mid = 1.0 / m.resistance_for_level(m.levels() / 2);
  EXPECT_NEAR(g_mid.value(),
              (0.5 * (1.0 / m.r_min + 1.0 / m.r_max)).value(),
              (0.01 * (1.0 / m.r_min)).value());
}

TEST(Memristor, LevelRoundTrip) {
  auto m = default_rram();
  for (int level : {0, 1, 13, 64, 127}) {
    const Siemens g = 1.0 / m.resistance_for_level(level);
    EXPECT_EQ(m.level_for_conductance(g), level);
  }
}

TEST(Memristor, LevelForConductanceClamps) {
  auto m = default_rram();
  EXPECT_EQ(m.level_for_conductance(0.0_S), 0);
  EXPECT_EQ(m.level_for_conductance(1.0_S), m.levels() - 1);
}

TEST(Memristor, LevelOutOfRangeThrows) {
  auto m = default_rram();
  EXPECT_THROW((void)m.resistance_for_level(-1), std::out_of_range);
  EXPECT_THROW((void)m.resistance_for_level(m.levels()), std::out_of_range);
}

TEST(Memristor, HarmonicMeanRule) {
  auto m = default_rram();
  // Paper Sec. V-A: harmonic mean of r_min and r_max.
  EXPECT_NEAR(m.harmonic_mean_resistance().value(),
              2.0 / (1.0 / 500.0 + 1.0 / 500e3), 1e-9);
}

TEST(Memristor, ChordResistanceDropsWithVoltage) {
  auto m = default_rram();
  const Ohms r0 = m.actual_resistance(1000.0_Ohm, 1e-6_V);
  EXPECT_NEAR(r0.value(), 1000.0, 1e-3);  // linear limit
  const Ohms r_hi = m.actual_resistance(1000.0_Ohm, 0.05_V);
  EXPECT_LT(r_hi.value(), 1000.0);  // sinh conducts more at voltage
  EXPECT_GT(r_hi.value(), 500.0);
  // Monotone decreasing in |v|.
  Ohms prev{1000.0};
  for (double v : {0.01, 0.02, 0.03, 0.04, 0.05}) {
    const Ohms r = m.actual_resistance(1000.0_Ohm, Volts{v});
    EXPECT_LT(r, prev);
    prev = r;
  }
  // Symmetric in sign.
  EXPECT_DOUBLE_EQ(m.actual_resistance(1000.0_Ohm, 0.03_V).value(),
                   m.actual_resistance(1000.0_Ohm, -0.03_V).value());
}

TEST(Memristor, CurrentMatchesChordResistance) {
  auto m = default_rram();
  const Volts v = 0.04_V;
  const Amps i = m.current(2000.0_Ohm, v);
  EXPECT_NEAR((v / i).value(), m.actual_resistance(2000.0_Ohm, v).value(),
              1e-9);
}

TEST(Memristor, ValidationRejectsBadModels) {
  auto m = default_rram();
  m.r_min = -1.0_Ohm;
  EXPECT_THROW(m.validate(), std::invalid_argument);
  m = default_rram();
  m.r_max = m.r_min;
  EXPECT_THROW(m.validate(), std::invalid_argument);
  m = default_rram();
  m.level_bits = 12;
  EXPECT_THROW(m.validate(), std::invalid_argument);
  m = default_rram();
  m.sigma = 0.5;
  EXPECT_THROW(m.validate(), std::invalid_argument);
}

TEST(Memristor, ByNameLookup) {
  EXPECT_EQ(memristor_by_name("RRAM").kind, DeviceKind::kRram);
  EXPECT_EQ(memristor_by_name("pcm").kind, DeviceKind::kPcm);
  EXPECT_THROW(memristor_by_name("FeFET"), std::invalid_argument);
}

TEST(Memristor, PcmIsCoarserAndSlower) {
  auto pcm = default_pcm();
  auto rram = default_rram();
  EXPECT_LT(pcm.level_bits, rram.level_bits);
  EXPECT_GT(pcm.write_latency, rram.write_latency);
}

TEST(Memristor, SttMramIsBinaryLinearAndDurable) {
  auto stt = default_stt_mram();
  EXPECT_EQ(stt.level_bits, 1);
  EXPECT_EQ(stt.levels(), 2);
  EXPECT_DOUBLE_EQ(stt.resistance_for_level(0).value(), stt.r_max.value());
  EXPECT_DOUBLE_EQ(stt.resistance_for_level(1).value(), stt.r_min.value());
  // Near-ohmic at read bias: chord deviation below 0.5 %.
  const Ohms r = stt.actual_resistance(stt.r_min, stt.v_read);
  EXPECT_NEAR(r.value(), stt.r_min.value(), 0.005 * stt.r_min.value());
  // Endurance orders of magnitude above RRAM; writes far faster.
  auto rram = default_rram();
  EXPECT_GT(stt.endurance, 1e3 * rram.endurance);
  EXPECT_LT(stt.write_latency, rram.write_latency);
  EXPECT_EQ(memristor_by_name("STT-MRAM").kind, DeviceKind::kSttMram);
}

TEST(CellArea, Equation7And8) {
  auto m = default_rram();
  m.feature_nm = 45;
  const double f2 = 45e-9 * 45e-9;
  // Eq. 8: cross-point 4F^2.
  EXPECT_NEAR(cell_area(m, CellType::k0T1R).value(), 4.0 * f2, 1e-24);
  // Eq. 7: MOS-accessed 3(W/L + 1)F^2.
  EXPECT_NEAR(cell_area(m, CellType::k1T1R).value(),
              3.0 * (m.transistor_wl + 1.0) * f2, 1e-24);
  EXPECT_GT(cell_area(m, CellType::k1T1R).value(),
            cell_area(m, CellType::k0T1R).value());
}


TEST(DeviceLaw, SaturatesInsteadOfOverflowing) {
  // sinh(u) overflows double near u ~ 710; a Newton overshoot or an
  // aggressive bias sweep can push |v| / v_t far beyond that. The law
  // saturates at kMaxSinhArg, so it must stay finite for any input.
  auto m = default_rram();
  const Volts extreme{1e6 * m.nonlinearity_vt.value()};
  EXPECT_TRUE(std::isfinite(m.current(m.r_min, extreme).value()));
  EXPECT_TRUE(std::isfinite(m.current(m.r_min, -1.0 * extreme).value()));
  const Ohms r = m.actual_resistance(m.r_min, extreme);
  EXPECT_TRUE(std::isfinite(r.value()));
  EXPECT_GT(r.value(), 0.0);
  // Beyond the bound the law is exactly the value at the bound.
  const Volts at_bound{kMaxSinhArg * m.nonlinearity_vt.value()};
  EXPECT_DOUBLE_EQ(m.current(m.r_min, extreme).value(),
                   m.current(m.r_min, at_bound).value());
  // Below the bound the clamp is inert: the chord still bends.
  const Volts half{0.5 * kMaxSinhArg * m.nonlinearity_vt.value()};
  EXPECT_LT(m.actual_resistance(m.r_min, half).value(),
            m.actual_resistance(m.r_min, 0.5 * half).value());
}
}  // namespace
}  // namespace mnsim::tech
