#include "arch/accelerator.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <optional>
#include <string>
#include <type_traits>
#include <utility>

#include "accuracy/digital_error.hpp"
#include "arch/cycle_sim.hpp"
#include "arch/design_context.hpp"
#include "check/check.hpp"
#include "check/config_check.hpp"
#include "check/network_check.hpp"
#include "dse/explorer.hpp"
#include "nn/generator.hpp"
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

// --- one derivation per design point ---------------------------------------
// simulate_accelerator checks each configuration once and evaluates each
// crossbar geometry once a call; the public simulate_bank checks and
// evaluates afresh. The two must agree bit for bit.

template <typename T>
std::uint64_t bits(T v) {
  if constexpr (std::is_floating_point_v<T>)
    return std::bit_cast<std::uint64_t>(v);
  else
    return static_cast<std::uint64_t>(v);
}

#define EXPECT_SAME(field) EXPECT_EQ(bits(a.field), bits(b.field)) << #field

void expect_same(const circuit::Ppa& a, const circuit::Ppa& b,
                 const char* what) {
  SCOPED_TRACE(what);
  EXPECT_SAME(area);
  EXPECT_SAME(dynamic_power);
  EXPECT_SAME(leakage_power);
  EXPECT_SAME(latency);
}

void expect_same(const LayerMapping& a, const LayerMapping& b) {
  EXPECT_SAME(matrix_rows);
  EXPECT_SAME(matrix_cols);
  EXPECT_SAME(cells_per_weight);
  EXPECT_SAME(physical_cols);
  EXPECT_SAME(row_blocks);
  EXPECT_SAME(col_blocks);
  EXPECT_SAME(unit_count);
  EXPECT_SAME(rows_used_full);
  EXPECT_SAME(cols_used_full);
  EXPECT_SAME(rows_used_edge);
  EXPECT_SAME(cols_used_edge);
  EXPECT_SAME(crossbars_per_unit);
  EXPECT_SAME(total_crossbars);
}

void expect_same(const UnitReport& a, const UnitReport& b) {
  EXPECT_SAME(rows_used);
  EXPECT_SAME(cols_used);
  EXPECT_SAME(lanes);
  EXPECT_SAME(read_cycles);
  EXPECT_SAME(fixed_latency);
  EXPECT_SAME(cycle_latency);
  EXPECT_SAME(pass_latency);
  EXPECT_SAME(dynamic_energy_per_pass);
  EXPECT_SAME(leakage_power);
  EXPECT_SAME(area);
  EXPECT_SAME(crossbar_energy);
  EXPECT_SAME(dac_energy);
  EXPECT_SAME(adc_energy);
  EXPECT_SAME(digital_energy);
  expect_same(a.crossbars, b.crossbars, "unit.crossbars");
  expect_same(a.dacs, b.dacs, "unit.dacs");
  expect_same(a.decoders, b.decoders, "unit.decoders");
  expect_same(a.muxes, b.muxes, "unit.muxes");
  expect_same(a.subtractors, b.subtractors, "unit.subtractors");
  expect_same(a.adcs, b.adcs, "unit.adcs");
  expect_same(a.control, b.control, "unit.control");
}

void expect_same(const spice::SolverDiagnostics& a,
                 const spice::SolverDiagnostics& b) {
  EXPECT_SAME(newton_iterations);
  EXPECT_SAME(newton_residual);
  EXPECT_SAME(cg_iterations);
  EXPECT_SAME(cg_retries);
  EXPECT_SAME(lu_fallbacks);
  EXPECT_SAME(damped_steps);
  EXPECT_SAME(linear_residual);
  EXPECT_SAME(faults_injected);
  EXPECT_SAME(cache_hits);
  EXPECT_SAME(warm_starts);
  EXPECT_SAME(schur_solves);
  EXPECT_SAME(schur_iterations);
  EXPECT_SAME(schur_rejects);
  EXPECT_SAME(factor_reuses);
  EXPECT_SAME(condition_estimate);
  EXPECT_SAME(threads);
}

void expect_same(const BankReport& a, const BankReport& b) {
  expect_same(a.mapping, b.mapping);
  expect_same(a.unit, b.unit);
  EXPECT_SAME(iterations);
  EXPECT_SAME(warmup_passes);
  expect_same(a.units_total, b.units_total, "units_total");
  expect_same(a.adder_tree, b.adder_tree, "adder_tree");
  expect_same(a.pooling, b.pooling, "pooling");
  expect_same(a.pooling_buffer, b.pooling_buffer, "pooling_buffer");
  expect_same(a.neurons, b.neurons, "neurons");
  expect_same(a.output_buffer, b.output_buffer, "output_buffer");
  EXPECT_SAME(area);
  EXPECT_SAME(leakage_power);
  EXPECT_SAME(pass_latency);
  EXPECT_SAME(sample_latency);
  EXPECT_SAME(dynamic_energy_per_sample);
  EXPECT_SAME(energy_per_sample);
  EXPECT_SAME(neuron_count);
  EXPECT_SAME(output_lanes);
  EXPECT_SAME(epsilon_worst);
  EXPECT_SAME(epsilon_average);
  expect_same(a.solver, b.solver);
}

#undef EXPECT_SAME

// Which unit variants a bank holds besides the full one.
struct VariantsSeen {
  int edge_row = 0;   // last block-row shorter, columns full
  int edge_col = 0;   // last block-column narrower, rows full
  int corner = 0;     // both
};

void expect_banks_match_direct_calls(const nn::Network& network,
                                     const std::vector<AcceleratorConfig>& cfgs,
                                     const AcceleratorReport& rep,
                                     VariantsSeen* seen = nullptr) {
  const auto banks = gather_banks(network);
  ASSERT_EQ(rep.banks.size(), banks.size());
  for (std::size_t i = 0; i < banks.size(); ++i) {
    SCOPED_TRACE("bank " + std::to_string(i));
    const AcceleratorConfig& cfg = cfgs.size() == 1 ? cfgs[0] : cfgs[i];
    const BankReport direct =
        simulate_bank(*banks[i].layer, banks[i].attached_pooling,
                      banks[i].next_weighted, network, cfg);
    expect_same(rep.banks[i], direct);
    if (seen) {
      const auto& m = direct.mapping;
      const bool edge_r = m.rows_used_edge != m.rows_used_full;
      const bool edge_c = m.cols_used_edge != m.cols_used_full;
      seen->edge_row += edge_r && !edge_c;
      seen->edge_col += edge_c && !edge_r;
      seen->corner += edge_r && edge_c;
    }
  }
}

TEST(Accelerator, BanksMatchDirectSimulateBankBitForBit) {
  std::vector<nn::Network> networks = {nn::make_vgg16(), nn::make_caffenet()};
  for (std::uint32_t seed : {3u, 11u, 29u, 57u}) {
    nn::GeneratorOptions gen;
    gen.seed = seed;
    gen.min_layers = 3;
    gen.max_layers = 5;
    gen.min_width = 16;
    gen.max_width = 1024;
    networks.push_back(nn::random_network(gen));
  }
  // Paper-space points: crossbar sizes that tile the layers evenly and
  // unevenly, read parallelism below, at and above the used columns, and
  // fine to coarse wires.
  const std::vector<dse::DesignPoint> points = {
      {8, 1, 18},    {32, 8, 22},  {64, 0, 28},   {128, 16, 36},
      {256, 0, 45},  {512, 128, 90}, {1024, 2, 45}};
  // A clean design and one with device variation and injected defects
  // (no circuit check: its solve cache is shared across the banks of a
  // call by design, which shows in the cache-hit counters).
  AcceleratorConfig clean;
  clean.cmos_node_nm = 45;
  AcceleratorConfig faulted = clean;
  faulted.device_sigma = 0.1;
  faulted.fault.stuck_at_zero_rate = 0.01;
  faulted.fault.broken_bitline_rate = 0.005;
  VariantsSeen seen;
  for (const auto& base_cfg : {clean, faulted}) {
    for (const auto& net : networks) {
      for (const auto& point : points) {
        // A defect map draws every cell: keep the faulted arrays small.
        if (base_cfg.fault.enabled() && point.crossbar_size > 128) continue;
        SCOPED_TRACE(net.name + " at " +
                     std::to_string(point.crossbar_size) + "/" +
                     std::to_string(point.parallelism) + "/" +
                     std::to_string(point.interconnect_node) +
                     (base_cfg.fault.enabled() ? " faulted" : ""));
        const AcceleratorConfig cfg = dse::apply_point(base_cfg, point);
        expect_banks_match_direct_calls(
            net, {cfg}, simulate_accelerator(net, cfg), &seen);
      }
    }
  }
  // Every unit variant of simulate_bank ran through the shared memo.
  EXPECT_GT(seen.edge_row, 0);
  EXPECT_GT(seen.edge_col, 0);
  EXPECT_GT(seen.corner, 0);
}

TEST(Accelerator, HeterogeneousBanksMatchDirectSimulateBank) {
  const auto vgg = nn::make_vgg16();
  AcceleratorConfig base_cfg;
  base_cfg.cmos_node_nm = 45;
  const std::vector<dse::DesignPoint> cycle = {
      {64, 8, 28}, {128, 0, 45}, {256, 32, 18}, {128, 0, 45}};
  std::vector<AcceleratorConfig> cfgs;
  for (int i = 0; i < vgg.depth(); ++i)
    cfgs.push_back(dse::apply_point(base_cfg, cycle[i % cycle.size()]));
  expect_banks_match_direct_calls(vgg, cfgs, simulate_accelerator(vgg, cfgs));
}

bool same_diagnostic(const check::Diagnostic& a, const check::Diagnostic& b) {
  return a.code == b.code && a.severity == b.severity &&
         a.message == b.message && a.file == b.file && a.line == b.line &&
         a.location == b.location && a.hint == b.hint;
}

void expect_same_diagnostics(const std::vector<check::Diagnostic>& got,
                             const check::DiagnosticList& want) {
  ASSERT_EQ(got.size(), want.size());
  std::size_t i = 0;
  for (const auto& d : want) {
    EXPECT_TRUE(same_diagnostic(got[i], d))
        << got[i].render() << " vs " << d.render();
    ++i;
  }
}

TEST(Accelerator, HomogeneousDesignReportsEachWarningOnce) {
  // Parallelism 128 over 64-column crossbars: one MN-CFG-004 warning for
  // the design, not one per bank.
  const auto vgg = nn::make_vgg16();
  auto cfg = base();
  cfg.crossbar_size = 64;
  cfg.parallelism = 128;
  const auto rep = simulate_accelerator(vgg, cfg);
  const auto want = check::check_system(vgg, cfg);
  expect_same_diagnostics(rep.diagnostics, want);
  EXPECT_EQ(std::count_if(rep.diagnostics.begin(), rep.diagnostics.end(),
                          [](const check::Diagnostic& d) {
                            return d.code == "MN-CFG-004";
                          }),
            1);

  // The per-bank overload still vets each extra configuration.
  const std::vector<AcceleratorConfig> cfgs(
      static_cast<std::size_t>(vgg.depth()), cfg);
  auto want_hetero = check::check_system(vgg, cfg);
  for (std::size_t i = 1; i < cfgs.size(); ++i)
    want_hetero.merge(check::check_config_consistency(cfgs[i]));
  expect_same_diagnostics(simulate_accelerator(vgg, cfgs).diagnostics,
                          want_hetero);
}

// --- one checked network per sweep -----------------------------------------
// dse::run_sweep checks the network once, gives every point the same
// CheckedNetwork, lends each worker one Eq. 9-14 memo for the whole sweep
// and hands the point's DesignContext on to the cycle engine. Every
// report field must equal the plain per-call entry points'.

#define EXPECT_SAME(field) EXPECT_EQ(bits(a.field), bits(b.field)) << #field

void expect_same(const BreakdownItem& a, const BreakdownItem& b,
                 const char* what) {
  SCOPED_TRACE(what);
  EXPECT_SAME(area);
  EXPECT_SAME(energy);
}

void expect_same(const AcceleratorReport& a, const AcceleratorReport& b) {
  ASSERT_EQ(a.banks.size(), b.banks.size());
  for (std::size_t i = 0; i < a.banks.size(); ++i) {
    SCOPED_TRACE("bank " + std::to_string(i));
    expect_same(a.banks[i], b.banks[i]);
  }
  expect_same(a.io_input, b.io_input, "io_input");
  expect_same(a.io_output, b.io_output, "io_output");
  expect_same(a.controller, b.controller, "controller");
  EXPECT_SAME(area);
  EXPECT_SAME(leakage_power);
  EXPECT_SAME(sample_latency);
  EXPECT_SAME(pipeline_cycle);
  EXPECT_SAME(energy_per_sample);
  EXPECT_SAME(power);
  EXPECT_SAME(epsilon_worst);
  EXPECT_SAME(epsilon_average);
  EXPECT_SAME(max_error_rate);
  EXPECT_SAME(avg_error_rate);
  EXPECT_SAME(relative_accuracy);
  EXPECT_SAME(total_crossbars);
  EXPECT_SAME(total_units);
  const auto& x = a.breakdown;
  const auto& y = b.breakdown;
  expect_same(x.crossbars, y.crossbars, "crossbars");
  expect_same(x.input_dacs, y.input_dacs, "input_dacs");
  expect_same(x.read_circuits, y.read_circuits, "read_circuits");
  expect_same(x.decoders, y.decoders, "decoders");
  expect_same(x.digital, y.digital, "digital");
  expect_same(x.adder_trees, y.adder_trees, "adder_trees");
  expect_same(x.neurons, y.neurons, "neurons");
  expect_same(x.pooling, y.pooling, "pooling");
  expect_same(x.buffers, y.buffers, "buffers");
  expect_same(x.interfaces, y.interfaces, "interfaces");
  EXPECT_TRUE(a.fault_config == b.fault_config);
  expect_same(a.solver, b.solver);
  ASSERT_EQ(a.diagnostics.size(), b.diagnostics.size());
  for (std::size_t i = 0; i < a.diagnostics.size(); ++i)
    EXPECT_TRUE(same_diagnostic(a.diagnostics[i], b.diagnostics[i]))
        << a.diagnostics[i].render() << " vs " << b.diagnostics[i].render();
}

void expect_same(const CycleSimResult& a, const CycleSimResult& b) {
  EXPECT_SAME(clock_hz);
  EXPECT_SAME(makespan_cycles);
  EXPECT_SAME(makespan_seconds);
  EXPECT_SAME(total_tiles);
  EXPECT_SAME(total_busy_cycles);
  EXPECT_SAME(total_stall_cycles);
  EXPECT_SAME(backing_traffic_bytes);
  EXPECT_SAME(weight_image_bytes);
  EXPECT_SAME(pe_scheduled_fraction);
  EXPECT_SAME(pe_active_fraction);
  EXPECT_SAME(stall_fraction);
  ASSERT_EQ(a.banks.size(), b.banks.size());
  for (std::size_t i = 0; i < a.banks.size(); ++i) {
    SCOPED_TRACE("cycle bank " + std::to_string(i));
    EXPECT_SAME(banks[i].start_cycle);
    EXPECT_SAME(banks[i].finish_cycle);
    EXPECT_SAME(banks[i].busy_cycles);
    EXPECT_SAME(banks[i].dependency_stall_cycles);
    EXPECT_SAME(banks[i].fill_stall_cycles);
    EXPECT_SAME(banks[i].drain_stall_cycles);
    EXPECT_SAME(banks[i].bus_busy_cycles);
  }
  EXPECT_EQ(a.events.size(), b.events.size());
  EXPECT_EQ(a.diagnostics.size(), b.diagnostics.size());
}

void expect_same(const dse::EvaluatedDesign& a, const dse::EvaluatedDesign& b) {
  EXPECT_EQ(a.feasible, b.feasible);
  EXPECT_EQ(a.evaluated, b.evaluated);
  EXPECT_EQ(a.failure, b.failure);
  EXPECT_SAME(metrics.area);
  EXPECT_SAME(metrics.energy_per_sample);
  EXPECT_SAME(metrics.latency);
  EXPECT_SAME(metrics.sample_latency);
  EXPECT_SAME(metrics.power);
  EXPECT_SAME(metrics.max_error_rate);
  EXPECT_SAME(metrics.avg_error_rate);
  EXPECT_SAME(metrics.solver_fallbacks);
  EXPECT_SAME(metrics.faults_injected);
  EXPECT_SAME(metrics.stall_fraction);
  EXPECT_SAME(metrics.backing_traffic);
}

#undef EXPECT_SAME

// What a call returned, or the message it threw.
template <typename F>
auto outcome(F&& f) -> std::pair<std::optional<decltype(f())>, std::string> {
  try {
    return {f(), ""};
  } catch (const std::exception& e) {
    return {std::nullopt, e.what()};
  }
}

TEST(Accelerator, SweepPathMatchesPlainCallsFieldByField) {
  const nn::Network vgg = nn::make_vgg16();
  // CaffeNet's pooling windows leave edge pixels: its check_network
  // findings are three MN-NN-003 warnings, which every report carries.
  const nn::Network caffenet = nn::make_caffenet();
  const auto caffenet_findings = check::check_network(caffenet);
  EXPECT_EQ(std::count_if(caffenet_findings.begin(), caffenet_findings.end(),
                          [](const check::Diagnostic& d) {
                            return d.code == "MN-NN-003" &&
                                   d.severity == check::Severity::kWarning;
                          }),
            3);

  AcceleratorConfig clean;
  clean.cmos_node_nm = 45;
  clean.output_bits = 8;
  AcceleratorConfig cycle = clean;
  cycle.cycle_enabled = true;
  AcceleratorConfig faulted = clean;
  faulted.fault.stuck_at_zero_rate = 0.01;
  faulted.fault.broken_bitline_rate = 0.005;
  // Two nodes: one memo then sees two wire resistances per geometry.
  dse::DesignSpace space = dse::DesignSpace::paper_cnn();
  space.interconnect_nodes = {28, 90};
  dse::Constraints constraints;
  constraints.max_error = 0.5;

  long compared = 0;
  long with_warnings = 0;
  for (const nn::Network* net : {&vgg, &caffenet}) {
    const CheckedNetwork checked(*net);
    for (const AcceleratorConfig* base_cfg : {&clean, &cycle, &faulted}) {
      // One memo across the slice, as one sweep worker keeps it.
      VoltageErrorMemo memo;
      VoltageErrorMemo kernel_memo;
      for (const dse::DesignPoint& point : space.enumerate()) {
        // A defect map draws every cell: keep the faulted arrays small.
        if (base_cfg->fault.enabled() && point.crossbar_size > 128) continue;
        SCOPED_TRACE(net->name + " at " + std::to_string(point.crossbar_size) +
                     "/" + std::to_string(point.parallelism) + "/" +
                     std::to_string(point.interconnect_node) +
                     (base_cfg->cycle_enabled ? " cycle" : "") +
                     (base_cfg->fault.enabled() ? " faulted" : ""));
        const AcceleratorConfig cfg = dse::apply_point(*base_cfg, point);
        const AcceleratorReport plain = simulate_accelerator(*net, cfg);
        DesignContext context(cfg, &memo);
        const AcceleratorReport swept = simulate_accelerator(checked, context);
        expect_same(swept, plain);
        // Both paths share the pre-flight body: pin it to check_system.
        expect_same_diagnostics(swept.diagnostics,
                                check::check_system(*net, cfg));
        with_warnings += !swept.diagnostics.empty();
        if (cfg.cycle_enabled) {
          // The 1024 points overflow the filter scratchpad (MN-CYC-003)
          // on both paths alike.
          const auto a = outcome([&] { return simulate_cycles(swept, context); });
          const auto b = outcome([&] { return simulate_cycles(plain, cfg); });
          EXPECT_EQ(a.second, b.second);
          ASSERT_EQ(a.first.has_value(), b.first.has_value());
          if (a.first) expect_same(*a.first, *b.first);
        }
        const auto a = outcome([&] {
          return dse::evaluate_design(checked, *base_cfg, point, constraints,
                                      &kernel_memo);
        });
        const auto b = outcome([&] {
          return dse::evaluate_design(*net, *base_cfg, point, constraints);
        });
        EXPECT_EQ(a.second, b.second);
        ASSERT_EQ(a.first.has_value(), b.first.has_value());
        if (a.first) expect_same(*a.first, *b.first);
        ++compared;
      }
    }
  }
  EXPECT_GT(compared, 200);
  EXPECT_GT(with_warnings, 0);
}

TEST(Accelerator, ExploreIsThreadCountInvariant) {
  // Each sweep worker keeps its own Eq. 9-14 memo for the whole sweep,
  // and each design point's other memos live inside its own call. The
  // memo caches a pure function, so which worker evaluated which point
  // (and what its memo already held) cannot show: four threads give the
  // serial result bit for bit.
  dse::DesignSpace space;
  space.crossbar_sizes = {64, 128, 256};
  space.parallelism_degrees = {1, 16, 0};
  space.interconnect_nodes = {28, 45};
  auto serial_cfg = base();
  serial_cfg.parallel_threads = 1;
  auto parallel_cfg = serial_cfg;
  parallel_cfg.parallel_threads = 4;
  for (const nn::Network& net : {nn::make_vgg16(), nn::make_caffenet()}) {
    SCOPED_TRACE(net.name);
    const auto serial = dse::explore(net, serial_cfg, space, 0.5);
    const auto parallel = dse::explore(net, parallel_cfg, space, 0.5);
    EXPECT_EQ(serial.feasible_count, parallel.feasible_count);
    EXPECT_EQ(serial.failed_count, parallel.failed_count);
    ASSERT_EQ(serial.designs.size(), parallel.designs.size());
    for (std::size_t i = 0; i < serial.designs.size(); ++i) {
      SCOPED_TRACE("design " + std::to_string(i));
      const auto& a = serial.designs[i];
      const auto& b = parallel.designs[i];
      EXPECT_EQ(a.point.crossbar_size, b.point.crossbar_size);
      EXPECT_EQ(a.point.parallelism, b.point.parallelism);
      EXPECT_EQ(a.point.interconnect_node, b.point.interconnect_node);
      expect_same(a, b);
    }
  }
}

}  // namespace
}  // namespace mnsim::arch
