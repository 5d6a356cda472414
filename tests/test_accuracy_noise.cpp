#include "accuracy/noise.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace mnsim::accuracy {
namespace {

ReadNoiseInputs make() {
  ReadNoiseInputs in;
  in.rows = 128;
  in.device = tech::default_rram();
  return in;
}

TEST(ReadNoise, ComponentsComposeAsRss) {
  auto r = estimate_read_noise(make());
  EXPECT_GT(r.thermal_noise_rms, 0.0);
  EXPECT_GT(r.quantization_noise_rms, 0.0);
  EXPECT_NEAR(r.total_noise_rms,
              std::hypot(r.thermal_noise_rms, r.quantization_noise_rms),
              1e-18);
  EXPECT_GT(r.lsb, 0.0);
  EXPECT_GT(r.snr_db, 0.0);
}

TEST(ReadNoise, ThermalScalesWithSqrtBandwidth) {
  auto in = make();
  auto narrow = estimate_read_noise(in);
  in.bandwidth *= 4.0;
  auto wide = estimate_read_noise(in);
  EXPECT_NEAR(wide.thermal_noise_rms / narrow.thermal_noise_rms, 2.0, 1e-9);
}

TEST(ReadNoise, MoreBitsSmallerLsbWorseFlipOdds) {
  auto in = make();
  in.output_bits = 6;
  auto coarse = estimate_read_noise(in);
  in.output_bits = 12;
  auto fine = estimate_read_noise(in);
  EXPECT_LT(fine.lsb, coarse.lsb);
  EXPECT_GT(fine.code_flip_probability, coarse.code_flip_probability);
}

TEST(ReadNoise, EightBitReadIsNoiseSafeAtReference) {
  // The reference design's 8-bit read at 50 MHz must not be noise
  // limited: flip probability far below the analog error rates.
  auto r = estimate_read_noise(make());
  EXPECT_LT(r.code_flip_probability, 1e-3);
  EXPECT_GT(r.snr_db, 40.0);
}

TEST(ReadNoise, ColderIsQuieter) {
  auto in = make();
  auto warm = estimate_read_noise(in);
  in.temperature = 77;  // liquid nitrogen
  auto cold = estimate_read_noise(in);
  EXPECT_LT(cold.thermal_noise_rms, warm.thermal_noise_rms);
}

TEST(ReadNoise, Validation) {
  auto in = make();
  in.rows = 0;
  EXPECT_THROW(estimate_read_noise(in), std::invalid_argument);
  in = make();
  in.bandwidth = mnsim::units::Hertz{0.0};
  EXPECT_THROW(estimate_read_noise(in), std::invalid_argument);
  in = make();
  in.output_bits = 0;
  EXPECT_THROW(estimate_read_noise(in), std::invalid_argument);
}

}  // namespace
}  // namespace mnsim::accuracy
