#include "nn/quantization.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace mnsim::nn {
namespace {

TEST(Quantize, SymmetricRoundTrip) {
  Matrix w = {{0.5, -1.0}, {0.25, 0.0}};
  double scale = 0.0;
  auto q = quantize_symmetric(w, 8, &scale);
  const int full = 127;
  EXPECT_EQ(q[0][1], -full);  // the max-magnitude entry hits full scale
  for (std::size_t i = 0; i < w.size(); ++i)
    for (std::size_t j = 0; j < w[i].size(); ++j)
      EXPECT_NEAR(q[i][j] * scale, w[i][j], scale);
}

TEST(Quantize, AllZeroMatrixUsesUnitScale) {
  Matrix w = {{0.0, 0.0}};
  double scale = -1.0;
  auto q = quantize_symmetric(w, 4, &scale);
  EXPECT_DOUBLE_EQ(scale, 1.0);
  EXPECT_EQ(q[0][0], 0);
}

TEST(Quantize, BitsValidated) {
  Matrix w = {{1.0}};
  EXPECT_THROW(quantize_symmetric(w, 1, nullptr), std::invalid_argument);
  EXPECT_THROW(quantize_symmetric(w, 17, nullptr), std::invalid_argument);
}

TEST(WeightsToCells, PolaritySplit) {
  auto device = tech::default_rram();
  IntMatrix w = {{127, -127, 0}};
  auto cells = weights_to_cells(w, 8, device);
  // Positive full-scale: positive cell at r_min, negative cell off.
  EXPECT_NEAR(cells.positive[0][0], device.r_min.value(),
              device.r_min.value() * 0.02);
  EXPECT_DOUBLE_EQ(cells.negative[0][0], device.r_max.value());
  // Negative full-scale: mirrored.
  EXPECT_DOUBLE_EQ(cells.positive[0][1], device.r_max.value());
  EXPECT_NEAR(cells.negative[0][1], device.r_min.value(),
              device.r_min.value() * 0.02);
  // Zero: both off.
  EXPECT_DOUBLE_EQ(cells.positive[0][2], device.r_max.value());
  EXPECT_DOUBLE_EQ(cells.negative[0][2], device.r_max.value());
}

TEST(WeightsToCells, SnapsToDeviceLevels) {
  auto device = tech::default_rram();
  device.level_bits = 2;  // only 4 levels
  IntMatrix w = {{63}};
  auto cells = weights_to_cells(w, 8, device);
  // The programmed resistance must be one of the 4 device levels.
  bool found = false;
  for (int level = 0; level < device.levels(); ++level)
    if (std::abs(cells.positive[0][0] -
                 device.resistance_for_level(level).value()) < 1e-6)
      found = true;
  EXPECT_TRUE(found);
}

TEST(WeightsToCells, MonotoneInMagnitude) {
  auto device = tech::default_rram();
  IntMatrix w = {{10, 50, 120}};
  auto cells = weights_to_cells(w, 8, device);
  EXPECT_GT(cells.positive[0][0], cells.positive[0][1]);
  EXPECT_GT(cells.positive[0][1], cells.positive[0][2]);
}

TEST(WeightsToCells, OutOfRangeCodeThrows) {
  auto device = tech::default_rram();
  IntMatrix w = {{200}};
  EXPECT_THROW(weights_to_cells(w, 8, device), std::invalid_argument);
}

}  // namespace
}  // namespace mnsim::nn
