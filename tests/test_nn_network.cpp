#include "nn/network.hpp"

#include <gtest/gtest.h>

#include "nn/topologies.hpp"

namespace mnsim::nn {
namespace {

TEST(Layer, FullyConnectedShapes) {
  auto l = Layer::fully_connected("fc", 64, 16);
  EXPECT_EQ(l.matrix_rows(), 65);  // + bias
  EXPECT_EQ(l.matrix_cols(), 16);
  EXPECT_EQ(l.compute_iterations(), 1);
  EXPECT_EQ(l.output_count(), 16);
  auto nb = Layer::fully_connected("fc", 64, 16, /*bias=*/false);
  EXPECT_EQ(nb.matrix_rows(), 64);
}

TEST(Layer, ConvolutionGeometry) {
  auto l = Layer::convolution("c", 3, 64, 3, 224, 224, /*padding=*/1);
  EXPECT_EQ(l.out_width(), 224);
  EXPECT_EQ(l.out_height(), 224);
  EXPECT_EQ(l.matrix_rows(), 27);
  EXPECT_EQ(l.matrix_cols(), 64);
  EXPECT_EQ(l.compute_iterations(), 224l * 224l);
  EXPECT_EQ(l.output_count(), 64l * 224 * 224);
}

TEST(Layer, StridedConvolution) {
  auto l = Layer::convolution("c", 3, 96, 11, 227, 227);
  l.stride = 4;
  EXPECT_EQ(l.out_width(), 55);  // (227 - 11)/4 + 1
  EXPECT_EQ(l.compute_iterations(), 55l * 55l);
}

TEST(Layer, ValidationErrors) {
  EXPECT_THROW(Layer::fully_connected("x", 0, 5), std::invalid_argument);
  EXPECT_THROW(Layer::convolution("x", 3, 8, 9, 4, 4), std::invalid_argument);
  EXPECT_THROW(Layer::pooling("x", 0), std::invalid_argument);
}

TEST(Network, DepthCountsWeightedLayersOnly) {
  auto vgg = make_vgg16();
  EXPECT_EQ(vgg.depth(), 16);
  int pools = 0;
  for (const auto& l : vgg.layers)
    if (l.kind == LayerKind::kPooling) ++pools;
  EXPECT_EQ(pools, 5);
}

TEST(Network, Vgg16Geometry) {
  auto vgg = make_vgg16();
  // fc6 consumes the 7x7x512 feature map.
  const Layer* fc6 = nullptr;
  for (const auto& l : vgg.layers)
    if (l.name == "fc6") fc6 = &l;
  ASSERT_NE(fc6, nullptr);
  EXPECT_EQ(fc6->in_features, 25088);
  EXPECT_EQ(fc6->out_features, 4096);
  // The deepest conv stack works on 14x14 maps.
  const Layer* c5 = nullptr;
  for (const auto& l : vgg.layers)
    if (l.name == "conv5_1") c5 = &l;
  ASSERT_NE(c5, nullptr);
  EXPECT_EQ(c5->in_width, 14);
  EXPECT_EQ(c5->in_channels, 512);
}

TEST(Network, Vgg16WeightCount) {
  // VGG-16 has ~138M weights; conv part ~14.7M.
  auto vgg = make_vgg16();
  EXPECT_GT(vgg.total_weights(), 130l * 1000 * 1000);
  EXPECT_LT(vgg.total_weights(), 145l * 1000 * 1000);
}

TEST(Network, MlpConstruction) {
  auto mlp = make_mlp({128, 128, 128});
  EXPECT_EQ(mlp.depth(), 2);
  EXPECT_EQ(mlp.input_size(), 128);
  EXPECT_EQ(mlp.output_size(), 128);
  EXPECT_THROW(make_mlp({5}), std::invalid_argument);
}

TEST(Network, AutoencoderShape) {
  auto ae = make_autoencoder_64_16_64();
  EXPECT_EQ(ae.depth(), 2);
  EXPECT_EQ(ae.input_size(), 64);
  EXPECT_EQ(ae.output_size(), 64);
}

TEST(Network, CaffenetShape) {
  auto net = make_caffenet();
  EXPECT_EQ(net.depth(), 8);  // 5 conv + 3 FC
  EXPECT_EQ(net.type, NetworkType::kCnn);
}

TEST(Network, ValidationRejectsDegenerates) {
  Network empty;
  EXPECT_THROW(empty.validate(), std::invalid_argument);
  Network pool_first;
  pool_first.layers.push_back(Layer::pooling("p", 2));
  pool_first.layers.push_back(Layer::fully_connected("fc", 4, 4));
  EXPECT_THROW(pool_first.validate(), std::invalid_argument);
  Network bad_bits = make_mlp({4, 4});
  bad_bits.weight_bits = 0;
  EXPECT_THROW(bad_bits.validate(), std::invalid_argument);
}

}  // namespace
}  // namespace mnsim::nn
