#include "arch/mapper.hpp"

#include <stdexcept>

#include "arch/design_context.hpp"

namespace mnsim::arch {

namespace {

void require_weighted(const nn::Layer& layer) {
  if (!layer.is_weighted())
    throw std::invalid_argument("map_layer: layer '" + layer.name +
                                "' holds no weights");
}

}  // namespace

int cells_per_weight(int weight_bits, int device_level_bits, int polarity) {
  if (weight_bits < 1 || device_level_bits < 1)
    throw std::invalid_argument("cells_per_weight: bits");
  // Signed weights spend one bit on the sign, carried by the polarity
  // scheme (two crossbars or column pairs), not by cell levels.
  const int magnitude_bits = polarity == 2 ? weight_bits - 1 : weight_bits;
  const int bits = magnitude_bits < 1 ? 1 : magnitude_bits;
  return (bits + device_level_bits - 1) / device_level_bits;
}

LayerMapping map_layer(const nn::Layer& layer, const nn::Network& network,
                       const AcceleratorConfig& config) {
  require_weighted(layer);
  return map_layer(layer, network, DesignContext(config));
}

LayerMapping map_layer(const nn::Layer& layer, const nn::Network& network,
                       const DesignContext& context) {
  require_weighted(layer);
  const AcceleratorConfig& config = context.config();
  LayerMapping m;
  m.matrix_rows = layer.matrix_rows();
  m.matrix_cols = layer.matrix_cols();
  m.cells_per_weight = cells_per_weight(network.weight_bits,
                                        context.device().level_bits,
                                        config.weight_polarity);

  m.physical_cols = m.matrix_cols * m.cells_per_weight;
  // Signed method (2) interleaves positive/negative columns in the same
  // crossbar instead of adding a second crossbar.
  if (config.weight_polarity == 2 && !config.signed_two_crossbars)
    m.physical_cols *= 2;

  const int s = config.crossbar_size;
  m.row_blocks = static_cast<int>((m.matrix_rows + s - 1) / s);
  m.col_blocks = static_cast<int>((m.physical_cols + s - 1) / s);
  m.unit_count = static_cast<long>(m.row_blocks) * m.col_blocks;

  m.rows_used_full = static_cast<int>(std::min<long>(m.matrix_rows, s));
  m.cols_used_full = static_cast<int>(std::min<long>(m.physical_cols, s));
  m.rows_used_edge = static_cast<int>(m.matrix_rows - (m.row_blocks - 1) *
                                                          static_cast<long>(s));
  m.cols_used_edge = static_cast<int>(
      m.physical_cols - (m.col_blocks - 1) * static_cast<long>(s));

  m.crossbars_per_unit =
      (config.weight_polarity == 2 && config.signed_two_crossbars) ? 2 : 1;
  m.total_crossbars = m.unit_count * m.crossbars_per_unit;
  return m;
}

}  // namespace mnsim::arch
