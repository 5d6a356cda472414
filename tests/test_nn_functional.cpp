#include "nn/functional_sim.hpp"

#include <gtest/gtest.h>
#include <limits>
#include <stdexcept>
#include <string>

#include "nn/topologies.hpp"

namespace mnsim::nn {
namespace {

MonteCarloConfig fast() {
  MonteCarloConfig c;
  c.samples = 20;
  c.weight_draws = 3;
  return c;
}

TEST(MonteCarlo, ZeroErrorIsPerfectAccuracy) {
  auto net = make_autoencoder_64_16_64();
  auto r = run_monte_carlo(net, {0.0, 0.0}, fast());
  EXPECT_DOUBLE_EQ(r.avg_error_rate, 0.0);
  EXPECT_DOUBLE_EQ(r.relative_accuracy, 1.0);
}

TEST(MonteCarlo, AccuracyDegradesWithEpsilon) {
  auto net = make_autoencoder_64_16_64();
  auto small = run_monte_carlo(net, {0.01, 0.01}, fast());
  auto large = run_monte_carlo(net, {0.10, 0.10}, fast());
  EXPECT_GT(small.relative_accuracy, large.relative_accuracy);
  EXPECT_GT(large.avg_error_rate, 0.0);
  EXPECT_GE(large.max_error_rate, large.avg_error_rate);
}

TEST(MonteCarlo, DeterministicForFixedSeed) {
  auto net = make_autoencoder_64_16_64();
  auto a = run_monte_carlo(net, {0.05, 0.05}, fast());
  auto b = run_monte_carlo(net, {0.05, 0.05}, fast());
  EXPECT_DOUBLE_EQ(a.avg_error_rate, b.avg_error_rate);
}

TEST(MonteCarlo, ObservedErrorTracksInjectedMagnitude) {
  auto net = make_autoencoder_64_16_64();
  const double eps = 0.08;
  auto r = run_monte_carlo(net, {eps, eps}, fast());
  // Two layers of +-8 % uniform noise: output deviation should land well
  // within [0, compounded bound].
  const double bound = (1 + eps) * (1 + eps) - 1;
  EXPECT_GT(r.avg_error_rate, 0.001);
  EXPECT_LT(r.avg_error_rate, bound);
}

TEST(MonteCarlo, RejectsBadArguments) {
  auto net = make_autoencoder_64_16_64();
  EXPECT_THROW(run_monte_carlo(net, {0.1}, fast()), std::invalid_argument);
  auto cfg = fast();
  cfg.samples = 0;
  EXPECT_THROW(run_monte_carlo(net, {0.1, 0.1}, cfg), std::invalid_argument);
  EXPECT_THROW(run_monte_carlo(make_vgg16(), {}, fast()),
               std::invalid_argument);
}

TEST(MonteCarlo, RejectsNonFiniteOrNegativeEps) {
  // NaN or inf eps used to report a relative accuracy of about -9e15
  // (and SIGFPE under -DMNSIM_FPE); a negative one built a uniform
  // distribution with a > b. All three entry points refuse them.
  const Network mlp = make_mlp({16, 12, 8});
  MonteCarloConfig mc;
  mc.samples = 2;
  mc.weight_draws = 1;
  fault::FaultConfig faults;
  faults.stuck_at_zero_rate = 0.1;
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (double bad : {nan, inf, -inf, -0.01}) {
    const std::vector<double> eps = {0.01, bad};
    const auto expect_rejected = [&](const auto& run, const char* who) {
      try {
        run();
        ADD_FAILURE() << who << " accepted eps " << bad;
      } catch (const std::invalid_argument& e) {
        EXPECT_EQ(std::string(e.what()),
                  std::string(who) + ": eps must be finite and >= 0");
      }
    };
    expect_rejected([&] { run_monte_carlo(mlp, eps, mc); }, "run_monte_carlo");
    expect_rejected([&] { run_monte_carlo_network(mlp, eps, mc); },
                    "run_monte_carlo_network");
    expect_rejected([&] { run_monte_carlo_faulted(mlp, eps, mc, faults); },
                    "run_monte_carlo_faulted");
  }
  // Zero stays valid: the ideal run.
  EXPECT_DOUBLE_EQ(run_monte_carlo(mlp, {0.0, 0.0}, mc).relative_accuracy, 1.0);
}

TEST(MonteCarlo, FcFanInMismatchIsRejected) {
  // Each layer is valid on its own, but the second expects 64 inputs from
  // a layer with 8 outputs. The MLP paths share the network forward pass
  // and its fan-in check instead of reading past the activations.
  Network net;
  net.layers.push_back(Layer::fully_connected("a", 4, 8));
  net.layers.push_back(Layer::fully_connected("b", 64, 2));
  net.validate();

  MonteCarloConfig mc;
  mc.samples = 2;
  mc.weight_draws = 1;
  fault::FaultConfig faults;
  faults.stuck_at_zero_rate = 0.1;
  const auto expect_mn_nn_001 = [](const auto& run) {
    try {
      run();
      FAIL() << "expected fan-in mismatch to throw";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("MN-NN-001"), std::string::npos)
          << e.what();
    }
  };
  expect_mn_nn_001([&] { run_monte_carlo(net, {0.01, 0.01}, mc); });
  expect_mn_nn_001(
      [&] { run_monte_carlo_faulted(net, {0.01, 0.01}, mc, faults); });
}

TEST(MonteCarlo, ConvInputMapMismatchIsRejected) {
  // The second conv declares a 4x6x6 input but the first produces 4x4x4:
  // reading the map with the declared shape would mix up pixels, so the
  // forward pass refuses the chain (as mnsim check does).
  Network net;
  net.type = NetworkType::kCnn;
  net.layers.push_back(Layer::convolution("c1", 1, 4, 3, 6, 6));
  net.layers.push_back(Layer::convolution("c2", 4, 2, 3, 6, 6));
  net.validate();
  MonteCarloConfig mc;
  mc.samples = 2;
  mc.weight_draws = 1;
  try {
    run_monte_carlo_network(net, {0.01, 0.01}, mc);
    FAIL() << "expected the conv shape-chain mismatch to throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("MN-NN-001"), std::string::npos)
        << e.what();
  }

  // After an FC layer, a conv whose declared map holds as many values
  // reads the flat outputs as that map.
  Network reshaped;
  reshaped.type = NetworkType::kCnn;
  reshaped.layers.push_back(Layer::fully_connected("f1", 8, 36));
  reshaped.layers.push_back(Layer::convolution("c1", 1, 2, 3, 6, 6));
  reshaped.validate();
  const auto r = run_monte_carlo_network(reshaped, {0.05, 0.05}, mc);
  EXPECT_GE(r.relative_accuracy, 0.0);
  EXPECT_LE(r.relative_accuracy, 1.0);
}

TEST(Electrical, SmallLayerTracksFixedPoint) {
  // An 8x4 layer evaluated through the full circuit-level solve.
  IntMatrix weights = {{10, -20, 30, 5, -7, 12, 0, 9},
                       {-3, 14, -25, 8, 11, -6, 2, -1},
                       {7, 7, 7, 7, 7, 7, 7, 7},
                       {-30, 25, -20, 15, -10, 5, -2, 1}};
  std::vector<int> inputs = {255, 128, 64, 32, 200, 16, 90, 150};
  auto r = electrical_layer_outputs(weights, inputs, /*weight_bits=*/8,
                                    /*input_bits=*/8, tech::default_rram(),
                                    0.022, 60.0);
  ASSERT_EQ(r.analog.size(), 4u);
  // Signs must survive the analog path.
  for (std::size_t o = 0; o < 4; ++o) {
    if (std::abs(r.ideal[o]) > 500.0) {
      EXPECT_GT(r.analog[o] * r.ideal[o], 0.0) << "output " << o;
    }
  }
  EXPECT_LT(r.mean_relative_error, 0.15);
  EXPECT_GT(r.mean_relative_error, 0.0);
}

TEST(Electrical, ShapeMismatchThrows) {
  IntMatrix weights = {{1, 2}};
  EXPECT_THROW(electrical_layer_outputs(weights, {1}, 8, 8,
                                        tech::default_rram(), 0.022, 60.0),
               std::invalid_argument);
  EXPECT_THROW(electrical_layer_outputs({}, {}, 8, 8, tech::default_rram(),
                                        0.022, 60.0),
               std::invalid_argument);
}

TEST(Electrical, InputCodeRangeChecked) {
  IntMatrix weights = {{1, 2}};
  EXPECT_THROW(electrical_layer_outputs(weights, {300, 0}, 8, 8,
                                        tech::default_rram(), 0.022, 60.0),
               std::invalid_argument);
}


TEST(MonteCarlo, RejectsDegenerateSignalBits) {
  // signal_bits = 0 makes the quantizer LSB a division by zero: every
  // output lands in bucket 0 and the run silently reports a zero error
  // rate for ANY perturbation (and SIGFPEs under -DMNSIM_FPE). The
  // config must be rejected up front.
  auto net = make_autoencoder_64_16_64();
  auto cfg = fast();
  cfg.signal_bits = 0;
  EXPECT_THROW(run_monte_carlo(net, {0.1, 0.1}, cfg),
               std::invalid_argument);
  cfg.signal_bits = 31;  // would overflow the int shift
  EXPECT_THROW(run_monte_carlo(net, {0.1, 0.1}, cfg),
               std::invalid_argument);
}
}  // namespace
}  // namespace mnsim::nn
