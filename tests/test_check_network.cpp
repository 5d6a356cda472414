// Golden tests for the network / mapping / fault-map / custom-design
// analyzers (MN-NN-*, MN-CUS-*), the check_system pre-flight, and the
// simulate_accelerator refuse-with-diagnosis hook.
#include "check/network_check.hpp"

#include <gtest/gtest.h>

#include "arch/accelerator.hpp"
#include "check/check.hpp"
#include "nn/topologies.hpp"
#include "sim/json_report.hpp"
#include "check_testing.hpp"

namespace mnsim::check {
namespace {

nn::Network mlp(int in, int hidden, int out) {
  nn::Network net;
  net.name = "test-mlp";
  net.layers.push_back(nn::Layer::fully_connected("fc1", in, hidden));
  net.layers.push_back(nn::Layer::fully_connected("fc2", hidden, out));
  return net;
}

TEST(NetworkCheck, HealthyNetworkIsClean) {
  EXPECT_TRUE(check_network(mlp(8, 8, 4)).empty());

  nn::Network cnn;
  cnn.type = nn::NetworkType::kCnn;
  cnn.layers.push_back(nn::Layer::convolution("conv1", 1, 4, 3, 8, 8, 1));
  cnn.layers.push_back(nn::Layer::pooling("pool1", 2));
  cnn.layers.push_back(nn::Layer::fully_connected("fc", 4 * 4 * 4, 10));
  EXPECT_TRUE(check_network(cnn).empty()) << check_network(cnn).render_text();
}

// MN-NN-001: shape-chain mismatch between consecutive layers.
TEST(NetworkCheck, ShapeChainMismatchIsDiagnosed) {
  nn::Network net = mlp(8, 8, 4);
  net.layers[1].in_features = 9;
  const DiagnosticList diags = check_network(net);
  ASSERT_TRUE(has_code(diags, "MN-NN-001"));
  EXPECT_NE(diags.begin()[0].message.find("'fc2'"), std::string::npos);
}

// MN-NN-002: invalid dimensions and network-level problems.
TEST(NetworkCheck, InvalidDimensionsAreDiagnosed) {
  nn::Network empty;
  empty.name = "empty";
  EXPECT_TRUE(has_code(check_network(empty), "MN-NN-002"));

  nn::Network bad_bits = mlp(8, 8, 4);
  bad_bits.weight_bits = 99;
  EXPECT_TRUE(has_code(check_network(bad_bits), "MN-NN-002"));

  nn::Network bad_layer = mlp(8, 8, 4);
  bad_layer.layers[0].in_features = -1;
  const DiagnosticList diags = check_network(bad_layer);
  EXPECT_TRUE(has_code(diags, "MN-NN-002"));
  // Broken dimensions suppress the (meaningless) shape-chain walk.
  EXPECT_FALSE(has_code(diags, "MN-NN-001"));
}

// MN-NN-003: pooling placement problems.
TEST(NetworkCheck, PoolingPlacementIsDiagnosed) {
  nn::Network leading;
  leading.layers.push_back(nn::Layer::pooling("pool0", 2));
  leading.layers.push_back(nn::Layer::fully_connected("fc", 4, 2));
  EXPECT_TRUE(has_code(check_network(leading), "MN-NN-003"));

  nn::Network oversized;
  oversized.layers.push_back(
      nn::Layer::convolution("conv", 1, 4, 3, 8, 8, 1));
  oversized.layers.push_back(nn::Layer::pooling("pool", 16));
  const DiagnosticList big = check_network(oversized);
  ASSERT_TRUE(has_code(big, "MN-NN-003"));
  EXPECT_TRUE(big.has_errors());

  nn::Network ragged;
  ragged.layers.push_back(nn::Layer::convolution("conv", 1, 4, 3, 9, 9, 1));
  ragged.layers.push_back(nn::Layer::pooling("pool", 2));
  const DiagnosticList uneven = check_network(ragged);
  EXPECT_TRUE(has_code(uneven, "MN-NN-003"));
  EXPECT_FALSE(uneven.has_errors());  // dropped edge pixels only warn
}

// MN-NN-003: an FC layer leaves no spatial map, so pooling after it is
// an error the pre-flight refuses (the bank model would size a line
// buffer for a 0-wide map).
TEST(NetworkCheck, PoolingAfterFullyConnectedIsRefused) {
  nn::Network net = mlp(8, 8, 4);
  net.layers.push_back(nn::Layer::pooling("pool", 1));
  const DiagnosticList diags = check_network(net);
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags.begin()[0].code, "MN-NN-003");
  EXPECT_EQ(diags.begin()[0].severity, Severity::kError);
  try {
    (void)arch::simulate_accelerator(net, arch::AcceleratorConfig{});
    FAIL() << "expected CheckError";
  } catch (const CheckError& e) {
    EXPECT_TRUE(has_code(e.diagnostics(), "MN-NN-003"));
  }
}

// MN-NN-004: a layer the crossbar mapper rejects outright.
TEST(NetworkCheck, UnmappableLayerIsDiagnosed) {
  nn::Network net = mlp(8, 8, 4);
  net.weight_bits = 0;  // cells_per_weight refuses
  const arch::AcceleratorConfig cfg;
  EXPECT_TRUE(has_code(check_mapping(net, cfg), "MN-NN-004"));
}

// An invalid configuration is checked once, and every weighted layer
// reports why it cannot be mapped.
TEST(NetworkCheck, InvalidConfigLeavesEveryLayerUnmappable) {
  const nn::Network net = mlp(8, 8, 4);
  arch::AcceleratorConfig cfg;
  cfg.crossbar_size = 100;
  const DiagnosticList diags = check_mapping(net, cfg);
  ASSERT_EQ(diags.size(), 2u);
  for (const Diagnostic& d : diags) {
    EXPECT_EQ(d.code, "MN-NN-004");
    EXPECT_NE(d.message.find("crossbar size must be a power of two"),
              std::string::npos)
        << d.message;
  }
}

// MN-NN-006: weights smeared across many cells warn.
TEST(NetworkCheck, ManyCellsPerWeightWarns) {
  nn::Network net = mlp(8, 8, 4);
  net.weight_bits = 16;
  arch::AcceleratorConfig cfg;
  cfg.memristor_model = "STT-MRAM";  // 1 bit per cell
  const DiagnosticList diags = check_mapping(net, cfg);
  EXPECT_TRUE(has_code(diags, "MN-NN-006"));
  EXPECT_FALSE(diags.has_errors());
}

// MN-CUS-001..004: customized-design specs.
TEST(NetworkCheck, CustomSpecIsDiagnosed) {
  sim::CustomAcceleratorSpec empty;
  EXPECT_TRUE(has_code(check_custom_spec(empty), "MN-CUS-001"));

  sim::CustomAcceleratorSpec bad_module;
  bad_module.add("alu", {}, /*count=*/0);
  EXPECT_TRUE(has_code(check_custom_spec(bad_module), "MN-CUS-002"));

  sim::CustomAcceleratorSpec bad_pipeline;
  bad_pipeline.add("alu", {}, 1, 1.0, /*critical=*/true);
  bad_pipeline.pipeline_stages = 4;  // no cycle_time
  EXPECT_TRUE(has_code(check_custom_spec(bad_pipeline), "MN-CUS-003"));

  sim::CustomAcceleratorSpec no_critical;
  no_critical.add("alu", {}, 1, 1.0, /*critical=*/false);
  const DiagnosticList diags = check_custom_spec(no_critical);
  EXPECT_TRUE(has_code(diags, "MN-CUS-004"));
  EXPECT_FALSE(diags.has_errors());
}

TEST(NetworkCheck, CustomSpecValidateWrapperThrowsWithCode) {
  sim::CustomAcceleratorSpec spec;
  try {
    spec.validate();
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("MN-CUS-001"), std::string::npos);
  }
}

TEST(NetworkCheck, CheckSystemCombinesPasses) {
  const arch::AcceleratorConfig cfg;
  EXPECT_TRUE(check_system(mlp(8, 8, 4), cfg).empty());

  nn::Network broken = mlp(8, 8, 4);
  broken.layers[1].in_features = 9;
  const DiagnosticList diags = check_system(broken, cfg);
  EXPECT_TRUE(has_code(diags, "MN-NN-001"));
}

// The pre-flight hook: simulate_accelerator refuses a malformed system
// before building any bank, and rides warnings into the report / JSON.
TEST(NetworkCheck, SimulatePreflightRefusesWithDiagnosis) {
  nn::Network broken = mlp(8, 8, 4);
  broken.layers[1].in_features = 9;
  const arch::AcceleratorConfig cfg;
  try {
    (void)arch::simulate_accelerator(broken, cfg);
    FAIL() << "expected CheckError";
  } catch (const CheckError& e) {
    EXPECT_TRUE(has_code(e.diagnostics(), "MN-NN-001"));
  }
}

TEST(NetworkCheck, PreflightWarningsRideIntoReportAndJson) {
  nn::Network net = mlp(8, 8, 4);
  net.weight_bits = 16;
  arch::AcceleratorConfig cfg;
  cfg.memristor_model = "STT-MRAM";  // provokes the MN-NN-006 warning
  const auto report = arch::simulate_accelerator(net, cfg);
  ASSERT_FALSE(report.diagnostics.empty());
  EXPECT_EQ(report.diagnostics[0].code, "MN-NN-006");
  const std::string json = sim::report_to_json(net, report);
  EXPECT_NE(json.find("\"diagnostics\": ["), std::string::npos);
  EXPECT_NE(json.find("MN-NN-006"), std::string::npos);

  cfg.check_warnings_as_errors = true;
  EXPECT_THROW((void)arch::simulate_accelerator(net, cfg), CheckError);
}

TEST(NetworkCheck, PreflightCanBeDisabled) {
  nn::Network broken = mlp(8, 8, 4);
  broken.layers[1].in_features = 9;  // tolerated by the legacy flow
  arch::AcceleratorConfig cfg;
  cfg.check_preflight = false;
  const auto report = arch::simulate_accelerator(broken, cfg);
  EXPECT_GT(report.total_crossbars, 0);
  EXPECT_TRUE(report.diagnostics.empty());
}

}  // namespace
}  // namespace mnsim::check
