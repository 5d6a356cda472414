#include "arch/mapper.hpp"

#include <gtest/gtest.h>

#include "nn/topologies.hpp"

namespace mnsim::arch {
namespace {

TEST(CellsPerWeight, SignBitCarriedByPolarity) {
  // 4-bit signed weights on a 7-bit device: 3 magnitude bits -> 1 cell.
  EXPECT_EQ(cells_per_weight(4, 7, 2), 1);
  // 8-bit signed on 7-bit device: 7 magnitude bits -> 1 cell (the paper's
  // "at most 8-bit signed weights in two memristor crossbars").
  EXPECT_EQ(cells_per_weight(8, 7, 2), 1);
  // 8-bit signed on 4-bit cells: 7 bits -> 2 cells (PRIME: 4 cells with
  // polarity doubling).
  EXPECT_EQ(cells_per_weight(8, 4, 2), 2);
  // Unsigned keeps all bits.
  EXPECT_EQ(cells_per_weight(8, 4, 1), 2);
  EXPECT_EQ(cells_per_weight(9, 4, 1), 3);
  // 1-bit signed degenerates to one cell.
  EXPECT_EQ(cells_per_weight(1, 7, 2), 1);
}

TEST(CellsPerWeight, InvalidBitsThrow) {
  EXPECT_THROW(cells_per_weight(0, 7, 2), std::invalid_argument);
  EXPECT_THROW(cells_per_weight(4, 0, 2), std::invalid_argument);
}

TEST(MapLayer, LargeBankGrid) {
  auto net = nn::make_large_bank_layer();  // 2048 x 1024, bias row
  AcceleratorConfig cfg;
  cfg.crossbar_size = 256;
  auto m = map_layer(net.layers[0], net, cfg);
  EXPECT_EQ(m.matrix_rows, 2049);  // + bias
  EXPECT_EQ(m.matrix_cols, 1024);
  EXPECT_EQ(m.cells_per_weight, 1);
  EXPECT_EQ(m.row_blocks, 9);  // ceil(2049/256)
  EXPECT_EQ(m.col_blocks, 4);
  EXPECT_EQ(m.unit_count, 36);
  EXPECT_EQ(m.crossbars_per_unit, 2);  // signed, two crossbars
  EXPECT_EQ(m.total_crossbars, 72);
  EXPECT_EQ(m.rows_used_full, 256);
  EXPECT_EQ(m.rows_used_edge, 2049 - 8 * 256);
  EXPECT_EQ(m.cols_used_edge, 256);
}

TEST(MapLayer, SmallLayerSingleUnit) {
  auto net = nn::make_autoencoder_64_16_64();
  AcceleratorConfig cfg;
  cfg.crossbar_size = 128;
  auto m = map_layer(net.layers[0], net, cfg);  // 64 -> 16
  EXPECT_EQ(m.row_blocks, 1);
  EXPECT_EQ(m.col_blocks, 1);
  EXPECT_EQ(m.unit_count, 1);
  EXPECT_EQ(m.rows_used_full, 65);  // bias row
  EXPECT_EQ(m.cols_used_full, 16);
}

TEST(MapLayer, ConvolutionLowersToMatrix) {
  auto net = nn::make_vgg16();
  AcceleratorConfig cfg;
  cfg.crossbar_size = 128;
  // conv1_1: 3 channels, 3x3 kernel -> 27 rows, 64 columns.
  auto m = map_layer(net.layers[0], net, cfg);
  EXPECT_EQ(m.matrix_rows, 27);
  EXPECT_EQ(m.matrix_cols, 64);
  // 8-bit signed weights on the 7-bit device: one cell per weight.
  EXPECT_EQ(m.cells_per_weight, 1);
  EXPECT_EQ(m.unit_count, 1);
}

TEST(MapLayer, MultiCellWeightsWidenColumns) {
  auto net = nn::make_large_bank_layer();
  net.weight_bits = 8;  // 7 magnitude bits
  AcceleratorConfig cfg;
  cfg.crossbar_size = 256;
  cfg.memristor_model = "PCM";  // 4-bit cells
  cfg.resistance_min = 5e3;
  cfg.resistance_max = 1e6;
  auto m = map_layer(net.layers[0], net, cfg);
  EXPECT_EQ(m.cells_per_weight, 2);
  EXPECT_EQ(m.physical_cols, 2048);
  EXPECT_EQ(m.col_blocks, 8);
}

TEST(MapLayer, BinaryWeightsOnSttMramUseOneCell) {
  auto net = nn::make_large_bank_layer();
  net.weight_bits = 1;  // binary weights
  AcceleratorConfig cfg;
  cfg.crossbar_size = 128;
  cfg.memristor_model = "STT-MRAM";
  cfg.resistance_min = 2e3;
  cfg.resistance_max = 5e3;
  auto m = map_layer(net.layers[0], net, cfg);
  EXPECT_EQ(m.cells_per_weight, 1);  // sign via the polarity pair
  EXPECT_EQ(m.crossbars_per_unit, 2);
  // Multi-bit weights on the binary device spread across cells.
  auto multi = nn::make_large_bank_layer();  // 4-bit signed
  auto mm = map_layer(multi.layers[0], multi, cfg);
  EXPECT_EQ(mm.cells_per_weight, 3);  // 3 magnitude bits on 1-bit cells
}

TEST(MapLayer, SignedSingleCrossbarMethodDoublesColumns) {
  auto net = nn::make_large_bank_layer();
  AcceleratorConfig cfg;
  cfg.crossbar_size = 256;
  cfg.signed_two_crossbars = false;  // method (2)
  auto m = map_layer(net.layers[0], net, cfg);
  EXPECT_EQ(m.crossbars_per_unit, 1);
  EXPECT_EQ(m.physical_cols, 2048);  // doubled columns
}

TEST(MapLayer, UnsignedWeightsSingleCrossbar) {
  auto net = nn::make_large_bank_layer();
  AcceleratorConfig cfg;
  cfg.weight_polarity = 1;
  auto m = map_layer(net.layers[0], net, cfg);
  EXPECT_EQ(m.crossbars_per_unit, 1);
}

TEST(MapLayer, PoolingLayerRejected) {
  auto net = nn::make_vgg16();
  AcceleratorConfig cfg;
  const nn::Layer* pool = nullptr;
  for (const auto& l : net.layers)
    if (l.kind == nn::LayerKind::kPooling) pool = &l;
  ASSERT_NE(pool, nullptr);
  EXPECT_THROW(map_layer(*pool, net, cfg), std::invalid_argument);
}

TEST(MapLayer, InvalidConfigRejected) {
  auto net = nn::make_large_bank_layer();
  AcceleratorConfig cfg;
  cfg.weight_polarity = 3;
  EXPECT_THROW(map_layer(net.layers[0], net, cfg), std::invalid_argument);
}

}  // namespace
}  // namespace mnsim::arch
