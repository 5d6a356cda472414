// Fixed-point quantization and weight-to-cell mapping.
//
// MNSIM's accuracy definition (paper Sec. VI) measures the error of the
// analog computation against the *fixed-point* algorithm, so the
// quantizers here define that reference. weights_to_cells implements the
// signed-weight mapping of Sec. III-C.1: a positive and a negative cell
// matrix whose column outputs are subtracted (two crossbars, or
// interleaved columns of one — the mapping is identical at this level).
#pragma once

#include <cstdint>
#include <vector>

#include "tech/memristor.hpp"

namespace mnsim::nn {

using Matrix = std::vector<std::vector<double>>;
using IntMatrix = std::vector<std::vector<int>>;

// Symmetric signed quantization to `bits` (range +/- (2^(bits-1) - 1))
// with the scale chosen from the matrix maximum; returns the integer
// codes and writes the LSB scale to `scale_out` (1.0 for an all-zero
// input).
IntMatrix quantize_symmetric(const Matrix& values, int bits,
                             double* scale_out);

struct CellMatrices {
  // Programmed cell resistances, one entry per weight position.
  std::vector<std::vector<double>> positive;
  std::vector<std::vector<double>> negative;
};

// Maps signed integer weights onto device levels: |w| scaled into the
// device's conductance range on the matching-polarity cell, the opposite
// cell at g_min (r_max). `weight_bits` defines the full-scale code.
CellMatrices weights_to_cells(const IntMatrix& weights, int weight_bits,
                              const tech::MemristorModel& device);

}  // namespace mnsim::nn
