// Weight-matrix to crossbar mapping (paper Sec. III-B.1, Eq. 5).
//
// A layer's R x C weight matrix is tiled into crossbar-sized blocks: each
// block becomes one Computation Unit; the units of one block-row share
// input sub-vectors (a synapse sub-bank) and the block-column results are
// merged by the adder tree. When the device stores fewer bits than the
// weight precision, a weight spreads across several cells in neighbouring
// columns (merged with shifters); signed weights double the cell count
// via the chosen polarity method.
#pragma once

#include "arch/params.hpp"
#include "nn/network.hpp"

namespace mnsim::arch {

class DesignContext;

struct LayerMapping {
  long matrix_rows = 0;      // R: inputs of one matrix-vector product
  long matrix_cols = 0;      // C: layer outputs per product
  int cells_per_weight = 1;  // ceil(weight_bits-1 magnitude bits / device)
  long physical_cols = 0;    // C * cells_per_weight (per polarity)
  int row_blocks = 0;        // synapse sub-banks (adder-tree inputs)
  int col_blocks = 0;        // unit columns
  long unit_count = 0;       // row_blocks * col_blocks
  int rows_used_full = 0;    // rows used in a full (non-edge) unit
  int cols_used_full = 0;
  int rows_used_edge = 0;    // rows used in the last block-row
  int cols_used_edge = 0;
  long crossbars_per_unit = 1;  // 2 when signed weights use two crossbars
  long total_crossbars = 0;
};

// Throws std::invalid_argument for non-weighted layers, then validates
// `config`.
LayerMapping map_layer(const nn::Layer& layer, const nn::Network& network,
                       const AcceleratorConfig& config);

// The same mapping over the already-checked configuration of `context`;
// still throws for non-weighted layers.
LayerMapping map_layer(const nn::Layer& layer, const nn::Network& network,
                       const DesignContext& context);

// Cells needed per weight magnitude given the device level count
// (paper Sec. III-B.2: low/high weight bits in multiple crossbars).
int cells_per_weight(int weight_bits, int device_level_bits, int polarity);

}  // namespace mnsim::arch
