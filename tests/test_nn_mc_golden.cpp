// Golden values of the functional Monte-Carlo entry points.
//
// Every statistic is pinned bit for bit (hex-float literals compared with
// EXPECT_EQ), so any change to the forward pass that reorders a sum, moves
// an RNG draw or drops a padding term shows up here instead of silently
// shifting results/ and the paper-table validations. The networks cover
// the shapes a blocked forward pass can get wrong: LeNet (stride-1 valid
// convs, pooling, three FC layers), a stride-2 padded conv feeding a biased
// FC layer, and MLP widths that are not multiples of any block size.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "nn/functional_sim.hpp"
#include "nn/parser.hpp"
#include "nn/topologies.hpp"

namespace mnsim::nn {
namespace {

struct Golden {
  double avg_error_rate;
  double max_error_rate;
  double relative_accuracy;
};

std::string hex(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%a", v);
  return buf;
}

void expect_golden(const MonteCarloResult& r, const Golden& g) {
  EXPECT_EQ(r.avg_error_rate, g.avg_error_rate) << hex(r.avg_error_rate);
  EXPECT_EQ(r.max_error_rate, g.max_error_rate) << hex(r.max_error_rate);
  EXPECT_EQ(r.relative_accuracy, g.relative_accuracy)
      << hex(r.relative_accuracy);
}

MonteCarloConfig config(int samples, int draws, std::uint32_t seed) {
  MonteCarloConfig c;
  c.samples = samples;
  c.weight_draws = draws;
  c.seed = seed;
  return c;
}

// conv 2->5, 3x3, stride 2, padding 1 on 11x11 (6x6 out), 2x2 pooling,
// conv 5->4, 2x2 (2x2 out), a biased FC 16->7 and an unbiased FC 7->3.
Network strided_padded_net() {
  Network net;
  net.name = "strided-padded";
  net.type = NetworkType::kCnn;
  net.weight_bits = 6;
  Layer c1 = Layer::convolution("c1", 2, 5, 3, 11, 11, /*padding=*/1);
  c1.stride = 2;
  c1.validate();
  net.layers.push_back(c1);
  net.layers.push_back(Layer::pooling("p1", 2));
  net.layers.push_back(Layer::convolution("c2", 5, 4, 2, 3, 3));
  net.layers.push_back(Layer::fully_connected("f1", 16, 7, /*bias=*/true));
  net.layers.push_back(Layer::fully_connected("f2", 7, 3, /*bias=*/false));
  net.validate();
  return net;
}

TEST(MonteCarloGolden, LeNetNetwork) {
  const Network lenet = parse_network_file(MNSIM_LENET_INI);
  const auto r = run_monte_carlo_network(
      lenet, {0.02, 0.015, 0.03, 0.01, 0.025}, config(3, 2, 7));
  expect_golden(r, {0x1.7d38f4b06c27ep-7, 0x1.8181818181818p-5,
                    0x1.fa0b1c2d3e4f6p-1});
}

TEST(MonteCarloGolden, StridedPaddedConvWithBiasedFc) {
  const auto r = run_monte_carlo_network(
      strided_padded_net(), {0.05, 0.03, 0.04, 0.06}, config(9, 3, 19));
  expect_golden(r, {0x1.187af1187af11p-5, 0x1.4949494949495p-1,
                    0x1.ee7850ee7850fp-1});
}

TEST(MonteCarloGolden, BiasedMlpNetwork) {
  const auto r = run_monte_carlo_network(make_mlp({13, 7, 5}), {0.04, 0.06},
                                         config(17, 3, 23));
  expect_golden(r, {0x1.ad5904b05c078p-8, 0x1.1111111111111p-4,
                    0x1.fca54df69f47fp-1});
}

TEST(MonteCarloGolden, Mlp) {
  const auto r =
      run_monte_carlo(make_mlp({13, 7, 5}), {0.04, 0.06}, config(17, 3, 11));
  expect_golden(r, {0x1.83048607890a9p-7, 0x1.6161616161616p-3,
                    0x1.f9f3ede7e1dbdp-1});
}

TEST(MonteCarloGolden, FaultedMlp) {
  fault::FaultConfig faults;
  faults.stuck_at_zero_rate = 0.05;
  faults.stuck_at_one_rate = 0.03;
  faults.seed = 5;
  const auto r = run_monte_carlo_faulted(make_mlp({13, 7, 5}), {0.02, 0.03},
                                         config(17, 3, 13), faults);
  EXPECT_GT(r.faults_injected, 0);
  expect_golden(r, {0x1.9356bc16fef68p-4, 0x1p+0,
                    0x1.cd95287d20213p-1});
}

}  // namespace
}  // namespace mnsim::nn
