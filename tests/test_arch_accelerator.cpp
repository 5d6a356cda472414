#include "arch/accelerator.hpp"

#include <gtest/gtest.h>

#include "accuracy/digital_error.hpp"
#include "nn/topologies.hpp"

namespace mnsim::arch {
namespace {

AcceleratorConfig base() {
  AcceleratorConfig c;
  c.cmos_node_nm = 45;
  c.crossbar_size = 128;
  c.interconnect_node_nm = 45;
  return c;
}

TEST(Accelerator, OneBankPerWeightedLayer) {
  auto mlp = nn::make_mlp({128, 128, 128});
  auto rep = simulate_accelerator(mlp, base());
  EXPECT_EQ(rep.banks.size(), 2u);

  auto vgg = nn::make_vgg16();
  auto vrep = simulate_accelerator(vgg, base());
  EXPECT_EQ(vrep.banks.size(), 16u);  // 13 conv + 3 FC
}

TEST(Accelerator, TotalsAccumulateBanks) {
  auto mlp = nn::make_mlp({256, 256, 256});
  auto rep = simulate_accelerator(mlp, base());
  double bank_area = 0.0;
  double bank_energy = 0.0;
  for (const auto& b : rep.banks) {
    bank_area += b.area;
    bank_energy += b.energy_per_sample;
  }
  EXPECT_GT(rep.area, bank_area);  // + I/O interfaces
  EXPECT_GT(rep.energy_per_sample, bank_energy);
  EXPECT_GT(rep.leakage_power, 0.0);
  EXPECT_GT(rep.power, 0.0);
}

TEST(Accelerator, PipelineCycleIsSlowestBankPass) {
  auto vgg = nn::make_vgg16();
  auto rep = simulate_accelerator(vgg, base());
  double max_pass = 0.0;
  for (const auto& b : rep.banks)
    max_pass = std::max(max_pass, b.pass_latency);
  EXPECT_DOUBLE_EQ(rep.pipeline_cycle, max_pass);
  EXPECT_LT(rep.pipeline_cycle, rep.sample_latency);
}

TEST(Accelerator, ErrorPropagationMatchesEq15) {
  auto mlp = nn::make_mlp({128, 128, 128});
  auto cfg = base();
  auto rep = simulate_accelerator(mlp, cfg);
  std::vector<double> eps;
  for (const auto& b : rep.banks) eps.push_back(b.epsilon_worst);
  const double expected = accuracy::propagate_layers(eps).back();
  EXPECT_NEAR(rep.epsilon_worst, expected, 1e-12);
  EXPECT_NEAR(rep.max_error_rate,
              accuracy::max_error_rate(1 << cfg.output_bits, expected),
              1e-12);
  EXPECT_NEAR(rep.relative_accuracy, 1.0 - rep.avg_error_rate, 1e-12);
}

TEST(Accelerator, DeeperNetworksAccumulateMoreError) {
  auto cfg = base();
  auto shallow = simulate_accelerator(nn::make_mlp({128, 128}), cfg);
  auto deep =
      simulate_accelerator(nn::make_mlp({128, 128, 128, 128, 128}), cfg);
  EXPECT_GT(deep.epsilon_worst, shallow.epsilon_worst);
}

TEST(Accelerator, InterfaceSizingFollowsNetwork) {
  auto mlp = nn::make_mlp({2048, 64});
  auto cfg = base();
  cfg.interface_in = 128;
  auto rep = simulate_accelerator(mlp, cfg);
  // 2048 inputs * 8 bits over 128 wires -> 128 bus cycles.
  EXPECT_GT(rep.io_input.latency, rep.io_output.latency);
}

TEST(Accelerator, CrossbarAndUnitCounts) {
  auto net = nn::make_large_bank_layer();
  auto cfg = base();
  cfg.crossbar_size = 256;
  auto rep = simulate_accelerator(net, cfg);
  EXPECT_EQ(rep.total_units, 36);
  EXPECT_EQ(rep.total_crossbars, 72);
}

TEST(Accelerator, CaffenetHasEightWeightedBanks) {
  // AlexNet-class geometry: 5 conv + 3 FC. (The paper's text counts
  // CaffeNet as 7 banks by folding one; we keep the strict per-weighted-
  // layer mapping and document the difference in EXPERIMENTS.md.)
  auto rep = simulate_accelerator(nn::make_caffenet(), base());
  EXPECT_EQ(rep.banks.size(), 8u);
}

TEST(Accelerator, SnnUsesIntegrateFireWithoutChangingFlow) {
  auto net = nn::make_mlp({128, 64}, nn::NetworkType::kSnn);
  auto rep = simulate_accelerator(net, base());
  EXPECT_EQ(rep.banks.size(), 1u);
  EXPECT_GT(rep.area, 0.0);
}

TEST(Accelerator, BreakdownSumsToTotals) {
  auto net = nn::make_large_bank_layer();
  auto cfg = base();
  cfg.crossbar_size = 256;
  auto rep = simulate_accelerator(net, cfg);
  const auto total = rep.breakdown.total();
  // The breakdown uses the representative full unit, so it approximates
  // the exact totals within a few percent (edge units).
  EXPECT_NEAR(total.area, rep.area, 0.05 * rep.area);
  EXPECT_GT(total.energy, 0.0);
  EXPECT_LT(total.energy, rep.energy_per_sample);  // excludes leakage
}

TEST(Accelerator, ReadCircuitsTakeLargeShareAtFullParallelism) {
  // Paper Sec. V-C: "ADC circuits take about half of the area and energy"
  // in memristor-based DNNs at aggressive read parallelism.
  auto net = nn::make_large_bank_layer();
  auto cfg = base();
  cfg.crossbar_size = 256;
  cfg.parallelism = 0;  // full parallel
  auto rep = simulate_accelerator(net, cfg);
  const auto area_share = [](const AcceleratorBreakdown& b) {
    return b.read_circuits.area / b.total().area;
  };
  EXPECT_GT(area_share(rep.breakdown), 0.25);
  EXPECT_GT(rep.breakdown.read_circuits.energy / rep.breakdown.total().energy,
            0.25);
  // Sharing read circuits (p = 1) collapses their area share.
  cfg.parallelism = 1;
  auto shared = simulate_accelerator(net, cfg);
  EXPECT_LT(area_share(shared.breakdown), 0.3 * area_share(rep.breakdown));
}

TEST(Accelerator, DeviceVariationRaisesError) {
  auto net = nn::make_mlp({128, 128});
  auto cfg = base();
  auto clean = simulate_accelerator(net, cfg);
  cfg.device_sigma = 0.2;
  auto noisy = simulate_accelerator(net, cfg);
  EXPECT_GT(noisy.epsilon_worst, clean.epsilon_worst);
}

}  // namespace
}  // namespace mnsim::arch
