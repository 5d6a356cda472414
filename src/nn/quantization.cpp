#include "nn/quantization.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace mnsim::nn {

IntMatrix quantize_symmetric(const Matrix& values, int bits,
                             double* scale_out) {
  if (bits < 2 || bits > 16)
    throw std::invalid_argument("quantize_symmetric: bits");
  double max_abs = 0.0;
  for (const auto& row : values)
    for (double v : row) max_abs = std::max(max_abs, std::fabs(v));
  const int full_scale = (1 << (bits - 1)) - 1;
  const double scale = max_abs > 0 ? max_abs / full_scale : 1.0;
  if (scale_out) *scale_out = scale;

  IntMatrix out(values.size());
  for (std::size_t i = 0; i < values.size(); ++i) {
    out[i].reserve(values[i].size());
    for (double v : values[i]) {
      int q = static_cast<int>(std::lround(v / scale));
      out[i].push_back(std::clamp(q, -full_scale, full_scale));
    }
  }
  return out;
}

CellMatrices weights_to_cells(const IntMatrix& weights, int weight_bits,
                              const tech::MemristorModel& device) {
  if (weight_bits < 2 || weight_bits > 16)
    throw std::invalid_argument("weights_to_cells: weight_bits");
  const int full_scale = (1 << (weight_bits - 1)) - 1;
  const units::Siemens g_min = 1.0 / device.r_max;
  const units::Siemens g_max = 1.0 / device.r_min;

  CellMatrices cells;
  cells.positive.resize(weights.size());
  cells.negative.resize(weights.size());
  for (std::size_t i = 0; i < weights.size(); ++i) {
    cells.positive[i].reserve(weights[i].size());
    cells.negative[i].reserve(weights[i].size());
    for (int w : weights[i]) {
      if (std::abs(w) > full_scale)
        throw std::invalid_argument("weights_to_cells: code out of range");
      const double magnitude =
          static_cast<double>(std::abs(w)) / full_scale;  // 0..1
      // Program the matching-polarity cell; snap to the nearest device
      // level so the stored value honours the device's level count.
      const units::Siemens g_target = g_min + magnitude * (g_max - g_min);
      const int level = device.level_for_conductance(g_target);
      const double r_programmed = device.resistance_for_level(level).value();
      if (w >= 0) {
        cells.positive[i].push_back(r_programmed);
        cells.negative[i].push_back(device.r_max.value());
      } else {
        cells.positive[i].push_back(device.r_max.value());
        cells.negative[i].push_back(r_programmed);
      }
    }
  }
  return cells;
}

}  // namespace mnsim::nn
