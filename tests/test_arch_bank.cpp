#include "arch/computation_bank.hpp"

#include <gtest/gtest.h>

#include "nn/topologies.hpp"

namespace mnsim::arch {
namespace {

AcceleratorConfig base() {
  AcceleratorConfig c;
  c.cmos_node_nm = 45;
  c.crossbar_size = 256;
  c.interconnect_node_nm = 45;
  return c;
}

TEST(Bank, FullyConnectedSingleIteration) {
  auto net = nn::make_large_bank_layer();
  auto rep = simulate_bank(net.layers[0], nullptr, nullptr, net, base());
  EXPECT_EQ(rep.iterations, 1);
  EXPECT_EQ(rep.mapping.unit_count, 36);
  EXPECT_GT(rep.area, rep.units_total.area);  // peripherals add area
  EXPECT_GT(rep.pass_latency, rep.unit.pass_latency);
  EXPECT_DOUBLE_EQ(rep.sample_latency, rep.pass_latency);
  EXPECT_GT(rep.energy_per_sample, 0.0);
}

TEST(Bank, ConvIterationsAreOutputPixels) {
  auto net = nn::make_vgg16();
  // conv1_1 output is 224x224.
  auto rep = simulate_bank(net.layers[0], nullptr, nullptr, net, base());
  EXPECT_EQ(rep.iterations, 224l * 224l);
  EXPECT_NEAR(rep.sample_latency, rep.pass_latency * 224 * 224, 1e-9);
}

TEST(Bank, PoolingAttachmentAddsModules) {
  auto net = nn::make_vgg16();
  const nn::Layer& conv = net.layers[1];   // conv1_2, followed by pool1
  const nn::Layer& pool = net.layers[2];
  ASSERT_EQ(pool.kind, nn::LayerKind::kPooling);
  auto with = simulate_bank(conv, &pool, nullptr, net, base());
  auto without = simulate_bank(conv, nullptr, nullptr, net, base());
  EXPECT_GT(with.pooling.area, 0.0);
  EXPECT_GT(with.pooling_buffer.area, 0.0);
  EXPECT_DOUBLE_EQ(without.pooling.area, 0.0);
  EXPECT_GT(with.area, without.area);
  EXPECT_GT(with.pass_latency, without.pass_latency);
}

TEST(Bank, ConvToConvUsesLineBuffer) {
  auto net = nn::make_vgg16();
  const nn::Layer& conv1 = net.layers[0];
  const nn::Layer& conv2 = net.layers[1];
  auto chained = simulate_bank(conv1, nullptr, &conv2, net, base());
  auto last = simulate_bank(conv1, nullptr, nullptr, net, base());
  // The Eq. 6 line buffer is far smaller than a full-feature-map register
  // bank (224*224*64 outputs).
  EXPECT_LT(chained.output_buffer.area, last.output_buffer.area);
}

TEST(Bank, EdgeUnitsAccounted) {
  auto net = nn::make_large_bank_layer();  // 2049 rows -> edge row block
  auto rep = simulate_bank(net.layers[0], nullptr, nullptr, net, base());
  // 32 full units + 4 edge units; total area must be below 36 full units.
  const double full_area = 36.0 * rep.unit.area;
  EXPECT_LT(rep.units_total.area, full_area);
  EXPECT_GT(rep.units_total.area, 0.8 * full_area);
}

TEST(Bank, AdderTreeMergesRowBlocks) {
  auto net = nn::make_large_bank_layer();
  auto rep = simulate_bank(net.layers[0], nullptr, nullptr, net, base());
  EXPECT_GT(rep.adder_tree.area, 0.0);
  // Single-block layers need no tree.
  auto small = nn::make_autoencoder_64_16_64();
  auto srep = simulate_bank(small.layers[0], nullptr, nullptr, small, base());
  EXPECT_EQ(srep.mapping.row_blocks, 1);
  EXPECT_DOUBLE_EQ(srep.adder_tree.area, 0.0);
}

TEST(Bank, ErrorRatesComeFromUsedExtent) {
  auto net = nn::make_large_bank_layer();
  auto cfg = base();
  auto rep = simulate_bank(net.layers[0], nullptr, nullptr, net, cfg);
  EXPECT_GT(rep.epsilon_worst, 0.0);
  EXPECT_LT(rep.epsilon_worst, 1.0);
  // Finer wires worsen the bank's epsilon.
  cfg.interconnect_node_nm = 18;
  auto fine = simulate_bank(net.layers[0], nullptr, nullptr, net, cfg);
  EXPECT_GT(fine.epsilon_worst, rep.epsilon_worst);
}

TEST(Bank, RejectsPoolingAsMainLayer) {
  auto net = nn::make_vgg16();
  const nn::Layer& pool = net.layers[2];
  EXPECT_THROW(simulate_bank(pool, nullptr, nullptr, net, base()),
               std::invalid_argument);
}

TEST(Bank, RejectsAnInvalidConfig) {
  auto net = nn::make_large_bank_layer();
  auto cfg = base();
  cfg.crossbar_size = 100;  // not a power of two
  EXPECT_THROW(simulate_bank(net.layers[0], nullptr, nullptr, net, cfg),
               std::invalid_argument);
}

TEST(Bank, OutputLanesFollowParallelism) {
  auto net = nn::make_large_bank_layer();
  auto cfg = base();
  cfg.parallelism = 8;
  auto rep = simulate_bank(net.layers[0], nullptr, nullptr, net, cfg);
  EXPECT_EQ(rep.output_lanes, rep.mapping.col_blocks * 8);
  // One neuron per output neuron (paper Sec. III-B.5), independent of p.
  EXPECT_EQ(rep.neuron_count, 1024);
}

}  // namespace
}  // namespace mnsim::arch
