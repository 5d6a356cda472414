#include "nn/stats.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "nn/functional_sim.hpp"
#include "nn/topologies.hpp"

namespace mnsim::nn {
namespace {

TEST(Stats, MlpCharacterization) {
  auto net = make_mlp({64, 32, 10});
  auto s = characterize(net);
  ASSERT_EQ(s.layers.size(), 2u);
  EXPECT_EQ(s.layers[0].weights, 65l * 32);  // + bias row
  EXPECT_EQ(s.layers[0].macs_per_sample, s.layers[0].weights);
  EXPECT_DOUBLE_EQ(s.conv_mac_share, 0.0);
  EXPECT_DOUBLE_EQ(s.macs_per_weight, 1.0);  // FC: each weight used once
}

TEST(Stats, Vgg16ConvDominatesMacs) {
  auto s = characterize(make_vgg16());
  EXPECT_EQ(s.layers.size(), 16u);
  // Conv layers hold ~11 % of weights but ~99 % of the MACs.
  EXPECT_GT(s.conv_mac_share, 0.95);
  EXPECT_GT(s.macs_per_weight, 50.0);
  // VGG-16 runs ~15.5 GMACs per 224x224 sample.
  EXPECT_GT(s.total_macs_per_sample, 14l * 1000 * 1000 * 1000);
  EXPECT_LT(s.total_macs_per_sample, 17l * 1000 * 1000 * 1000);
}

TEST(Stats, UtilizationPerfectWhenShapesDivide) {
  auto net = make_mlp({128, 128});
  net.layers[0].has_bias = false;
  EXPECT_DOUBLE_EQ(crossbar_utilization(net, 128), 1.0);
  // The bias row forces a second block row at size 128.
  auto biased = make_mlp({128, 128});
  EXPECT_NEAR(crossbar_utilization(biased, 128), 129.0 / 256.0, 1e-9);
}

TEST(Stats, SmallerCrossbarsWasteLess) {
  auto net = make_vgg16();
  EXPECT_GT(crossbar_utilization(net, 32), crossbar_utilization(net, 512));
  EXPECT_THROW(crossbar_utilization(net, 0), std::invalid_argument);
}

TEST(MonteCarloNetwork, CnnZeroEpsIsExact) {
  Network net;
  net.type = NetworkType::kCnn;
  net.name = "tiny";
  net.layers.push_back(Layer::convolution("c1", 1, 4, 3, 8, 8, 1));
  net.layers.push_back(Layer::pooling("p1", 2));
  net.layers.push_back(Layer::fully_connected("fc", 64, 10));
  net.validate();

  MonteCarloConfig mc;
  mc.samples = 5;
  mc.weight_draws = 2;
  auto r = run_monte_carlo_network(net, {0.0, 0.0}, mc);
  EXPECT_DOUBLE_EQ(r.avg_error_rate, 0.0);
  EXPECT_DOUBLE_EQ(r.relative_accuracy, 1.0);
}

TEST(MonteCarloNetwork, CnnErrorPropagates) {
  Network net;
  net.type = NetworkType::kCnn;
  net.layers.push_back(Layer::convolution("c1", 1, 4, 3, 8, 8, 1));
  net.layers.push_back(Layer::convolution("c2", 4, 4, 3, 8, 8, 1));
  net.layers.push_back(Layer::fully_connected("fc", 256, 10));
  net.validate();

  MonteCarloConfig mc;
  mc.samples = 5;
  mc.weight_draws = 2;
  auto small = run_monte_carlo_network(net, {0.01, 0.01, 0.01}, mc);
  auto large = run_monte_carlo_network(net, {0.08, 0.08, 0.08}, mc);
  EXPECT_GT(large.avg_error_rate, small.avg_error_rate);
  EXPECT_GT(large.avg_error_rate, 0.0);
}

TEST(MonteCarloNetwork, MatchesMlpPathOnMlps) {
  // run_monte_carlo is the network driver on the bias-free view of the
  // MLP: same weight draws, inputs and perturbations, so every field of
  // the result is identical.
  auto net = make_autoencoder_64_16_64();
  MonteCarloConfig mc;
  mc.samples = 10;
  mc.weight_draws = 3;
  mc.threads = 2;
  const auto mlp = run_monte_carlo(net, {0.05, 0.02}, mc);
  for (auto& l : net.layers) l.has_bias = false;
  const auto general = run_monte_carlo_network(net, {0.05, 0.02}, mc);
  EXPECT_EQ(mlp.relative_accuracy, general.relative_accuracy);
  EXPECT_EQ(mlp.max_error_rate, general.max_error_rate);
  EXPECT_EQ(mlp.avg_error_rate, general.avg_error_rate);
  EXPECT_EQ(mlp.seed, general.seed);
  EXPECT_EQ(mlp.faults_injected, general.faults_injected);
  EXPECT_EQ(mlp.threads, general.threads);
  EXPECT_GT(mlp.avg_error_rate, 0.0);
}

TEST(MonteCarloNetwork, ThreadCountIsBitIdentical) {
  // The determinism contract of the parallel port: every draw runs on
  // its own (seed, draw)-derived RNG stream and partials reduce in draw
  // order, so the thread count must never change a single bit.
  Network net;
  net.type = NetworkType::kCnn;
  net.layers.push_back(Layer::convolution("c1", 1, 4, 3, 8, 8, 1));
  net.layers.push_back(Layer::pooling("p1", 2));
  net.layers.push_back(Layer::fully_connected("fc", 64, 10));
  net.validate();

  MonteCarloConfig mc;
  mc.samples = 4;
  mc.weight_draws = 6;
  mc.threads = 1;
  const auto serial = run_monte_carlo_network(net, {0.05, 0.05}, mc);
  mc.threads = 4;
  const auto parallel = run_monte_carlo_network(net, {0.05, 0.05}, mc);

  EXPECT_DOUBLE_EQ(parallel.avg_error_rate, serial.avg_error_rate);
  EXPECT_DOUBLE_EQ(parallel.max_error_rate, serial.max_error_rate);
  EXPECT_DOUBLE_EQ(parallel.relative_accuracy, serial.relative_accuracy);
  EXPECT_EQ(serial.threads, 1);
  EXPECT_EQ(parallel.threads, 4);
}

TEST(MonteCarloNetwork, FcFanInMismatchIsRejected) {
  // The flattened conv output (4 channels x 4x4 after pooling = 64) does
  // not match the FC fan-in of 32; the forward pass must refuse instead
  // of silently truncating the feature map (MN-NN-001).
  Network net;
  net.type = NetworkType::kCnn;
  net.layers.push_back(Layer::convolution("c1", 1, 4, 3, 8, 8, 1));
  net.layers.push_back(Layer::pooling("p1", 2));
  net.layers.push_back(Layer::fully_connected("fc", 32, 10));
  net.validate();  // per-layer checks pass; the chain mismatch is runtime

  MonteCarloConfig mc;
  mc.samples = 2;
  mc.weight_draws = 1;
  try {
    run_monte_carlo_network(net, {0.0, 0.0}, mc);
    FAIL() << "expected fan-in mismatch to throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("MN-NN-001"), std::string::npos)
        << e.what();
  }
}

TEST(MonteCarloNetwork, UnevenPoolingIsRejected) {
  // A 2x2 pool over a 7x7 map used to floor-divide and silently drop the
  // trailing row and column; it must now be a hard error (MN-NN-003).
  Network net;
  net.type = NetworkType::kCnn;
  net.layers.push_back(Layer::convolution("c1", 1, 4, 3, 7, 7, 1));
  net.layers.push_back(Layer::pooling("p1", 2));
  net.layers.push_back(Layer::fully_connected("fc", 36, 10));
  net.validate();

  MonteCarloConfig mc;
  mc.samples = 2;
  mc.weight_draws = 1;
  try {
    run_monte_carlo_network(net, {0.0, 0.0}, mc);
    FAIL() << "expected uneven pooling to throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("MN-NN-003"), std::string::npos)
        << e.what();
  }
}

TEST(MonteCarlo, ClampPathsAgreeAcrossVariants) {
  // Pins the unified output clamp: with no faults configured, the
  // faulted variant takes identical draws through identical arithmetic,
  // so any divergence can only come from the clamping expressions the
  // two paths used to implement differently. Large eps exercises the
  // upper clamp.
  auto net = make_autoencoder_64_16_64();
  MonteCarloConfig mc;
  mc.samples = 10;
  mc.weight_draws = 3;
  const std::vector<double> eps = {0.2, 0.2};
  const auto plain = run_monte_carlo(net, eps, mc);
  const auto faulted =
      run_monte_carlo_faulted(net, eps, mc, fault::FaultConfig{});
  EXPECT_DOUBLE_EQ(faulted.avg_error_rate, plain.avg_error_rate);
  EXPECT_DOUBLE_EQ(faulted.max_error_rate, plain.max_error_rate);
  EXPECT_DOUBLE_EQ(faulted.relative_accuracy, plain.relative_accuracy);
  EXPECT_EQ(faulted.faults_injected, 0);
}

TEST(MonteCarloNetwork, Validation) {
  auto net = make_autoencoder_64_16_64();
  MonteCarloConfig mc;
  EXPECT_THROW(run_monte_carlo_network(net, {0.1}, mc),
               std::invalid_argument);
  mc.samples = 0;
  EXPECT_THROW(run_monte_carlo_network(net, {0.1, 0.1}, mc),
               std::invalid_argument);
}

}  // namespace
}  // namespace mnsim::nn
