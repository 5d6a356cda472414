// Determinism contract of the parallel sweep engines (util/parallel.hpp):
// for every engine, running with threads = 1 and threads = 8 must produce
// bit-identical results — same samples, same aggregates, same formatted
// reports — because each task draws from its own (seed, index)-derived
// RNG stream and reductions happen in index order.
#include <gtest/gtest.h>

#include "accuracy/variation.hpp"
#include "dse/report.hpp"
#include "nn/functional_sim.hpp"
#include "nn/topologies.hpp"
#include "spice/crossbar_netlist.hpp"
#include "spice/mna.hpp"

namespace mnsim {
namespace {

// --- DSE exploration -----------------------------------------------------

arch::AcceleratorConfig dse_base(int threads) {
  arch::AcceleratorConfig c;
  c.cmos_node_nm = 45;
  c.parallel_threads = threads;
  return c;
}

dse::DesignSpace small_space() {
  dse::DesignSpace s;
  s.crossbar_sizes = {64, 128, 256};
  s.parallelism_degrees = {1, 16, 0};
  s.interconnect_nodes = {28, 45};
  return s;
}

void expect_identical(const dse::ExplorationResult& a,
                      const dse::ExplorationResult& b) {
  EXPECT_EQ(a.feasible_count, b.feasible_count);
  EXPECT_EQ(a.failed_count, b.failed_count);
  ASSERT_EQ(a.designs.size(), b.designs.size());
  for (std::size_t i = 0; i < a.designs.size(); ++i) {
    const auto& da = a.designs[i];
    const auto& db = b.designs[i];
    EXPECT_EQ(da.point.crossbar_size, db.point.crossbar_size);
    EXPECT_EQ(da.point.parallelism, db.point.parallelism);
    EXPECT_EQ(da.point.interconnect_node, db.point.interconnect_node);
    EXPECT_EQ(da.feasible, db.feasible);
    EXPECT_EQ(da.evaluated, db.evaluated);
    EXPECT_EQ(da.failure, db.failure);
    EXPECT_DOUBLE_EQ(da.metrics.area, db.metrics.area);
    EXPECT_DOUBLE_EQ(da.metrics.energy_per_sample,
                     db.metrics.energy_per_sample);
    EXPECT_DOUBLE_EQ(da.metrics.latency, db.metrics.latency);
    EXPECT_DOUBLE_EQ(da.metrics.sample_latency, db.metrics.sample_latency);
    EXPECT_DOUBLE_EQ(da.metrics.power, db.metrics.power);
    EXPECT_DOUBLE_EQ(da.metrics.max_error_rate, db.metrics.max_error_rate);
    EXPECT_DOUBLE_EQ(da.metrics.avg_error_rate, db.metrics.avg_error_rate);
    EXPECT_EQ(da.metrics.solver_fallbacks, db.metrics.solver_fallbacks);
    EXPECT_EQ(da.metrics.faults_injected, db.metrics.faults_injected);
    EXPECT_DOUBLE_EQ(da.metrics.stall_fraction, db.metrics.stall_fraction);
    EXPECT_DOUBLE_EQ(da.metrics.backing_traffic,
                     db.metrics.backing_traffic);
  }
}

TEST(ParallelDeterminism, DseSweepMatchesSerial) {
  const auto net = nn::make_large_bank_layer();
  const auto serial = explore(net, dse_base(1), small_space(), 0.25);
  const auto parallel = explore(net, dse_base(8), small_space(), 0.25);
  expect_identical(serial, parallel);
  // The formatted report is a pure function of the result: byte-identical.
  EXPECT_EQ(dse::format_optima_table(serial, "t"),
            dse::format_optima_table(parallel, "t"));
}

TEST(ParallelDeterminism, DseSweepWithCycleModeMatchesSerial) {
  // Cycle-mode points additionally run the integer-cycle dataflow engine
  // inside each parallel task; its schedule is a pure integer function of
  // the design point, so the stall/traffic metrics must be bit-identical
  // at any thread count (the sharded-merge contract). A conv network so
  // banks run many tiles — a single-tile bank can never stall (tile 0's
  // wait is ramp-up idle by definition).
  nn::Network net;
  net.name = "cycle-det-conv";
  net.input_bits = 8;
  net.weight_bits = 4;
  net.layers.push_back(
      nn::Layer::convolution("conv1", 3, 8, 3, 16, 16, /*padding=*/1));
  net.layers.push_back(
      nn::Layer::convolution("conv2", 8, 8, 3, 16, 16, /*padding=*/1));
  auto make = [](int threads) {
    auto c = dse_base(threads);
    c.cycle_enabled = true;
    c.cycle_bandwidth_gbps = 1e-3;  // starved: fills outlast compute
    return c;
  };
  const auto serial = explore(net, make(1), small_space(), 0.25);
  const auto parallel = explore(net, make(8), small_space(), 0.25);
  expect_identical(serial, parallel);
  bool any_stalls = false;
  for (const auto& d : serial.designs)
    if (d.metrics.stall_fraction > 0) any_stalls = true;
  EXPECT_TRUE(any_stalls);  // the cycle engine actually ran and starved
}

TEST(ParallelDeterminism, DseSweepWithFaultInjectionMatchesSerial) {
  // The PR-1 fault-injected path: every design point runs a
  // defect-injected circuit-level solve inside the parallel task.
  const auto net = nn::make_large_bank_layer();
  auto make = [](int threads) {
    auto c = dse_base(threads);
    c.fault.stuck_at_zero_rate = 0.01;
    c.fault.stuck_at_one_rate = 0.005;
    c.fault.broken_wordline_rate = 0.01;
    c.fault.circuit_check = true;
    c.fault.circuit_check_size = 16;
    return c;
  };
  const auto serial = explore(net, make(1), small_space(), 0.25);
  const auto parallel = explore(net, make(8), small_space(), 0.25);
  expect_identical(serial, parallel);
  bool any_faults = false;
  for (const auto& d : serial.designs)
    if (d.metrics.faults_injected > 0) any_faults = true;
  EXPECT_TRUE(any_faults);  // the faulted path actually ran
}

// --- variation Monte-Carlo ------------------------------------------------

TEST(ParallelDeterminism, VariationMcMatchesSerial) {
  accuracy::CrossbarErrorInputs in;
  in.rows = 12;
  in.cols = 12;
  in.device = tech::default_rram();
  in.device.sigma = 0.2;
  in.segment_resistance = mnsim::units::Ohms{0.022};
  in.sense_resistance = mnsim::units::Ohms{60.0};

  accuracy::VariationMcOptions opt;
  opt.trials = 20;
  opt.threads = 1;
  const auto serial = accuracy::variation_monte_carlo(in, opt);
  opt.threads = 8;
  const auto parallel = accuracy::variation_monte_carlo(in, opt);

  ASSERT_EQ(serial.samples.size(), parallel.samples.size());
  for (std::size_t i = 0; i < serial.samples.size(); ++i)
    EXPECT_DOUBLE_EQ(serial.samples[i], parallel.samples[i]);
  EXPECT_DOUBLE_EQ(serial.mean_error, parallel.mean_error);
  EXPECT_DOUBLE_EQ(serial.max_error, parallel.max_error);
  // Counters are schedule-independent too: every trial refills the
  // primed pattern and warm-starts from the base operating point.
  EXPECT_EQ(serial.cache_hits, parallel.cache_hits);
  EXPECT_EQ(serial.warm_starts, parallel.warm_starts);
  EXPECT_GE(serial.warm_starts, static_cast<long>(serial.samples.size()));
  EXPECT_GT(serial.cache_hits, 0);
  EXPECT_EQ(serial.threads, 1);
  EXPECT_EQ(parallel.threads, 8);
}

// --- functional Monte-Carlo -----------------------------------------------

void expect_identical(const nn::MonteCarloResult& a,
                      const nn::MonteCarloResult& b) {
  EXPECT_DOUBLE_EQ(a.relative_accuracy, b.relative_accuracy);
  EXPECT_DOUBLE_EQ(a.max_error_rate, b.max_error_rate);
  EXPECT_DOUBLE_EQ(a.avg_error_rate, b.avg_error_rate);
  EXPECT_EQ(a.faults_injected, b.faults_injected);
}

TEST(ParallelDeterminism, FunctionalMcMatchesSerial) {
  nn::Network net = nn::make_mlp({16, 12, 8});
  const std::vector<double> eps{0.01, 0.02};
  nn::MonteCarloConfig mc;
  mc.samples = 20;
  mc.weight_draws = 12;
  mc.threads = 1;
  const auto serial = run_monte_carlo(net, eps, mc);
  mc.threads = 8;
  const auto parallel = run_monte_carlo(net, eps, mc);
  expect_identical(serial, parallel);
  EXPECT_EQ(serial.threads, 1);
  EXPECT_EQ(parallel.threads, 8);
}

TEST(ParallelDeterminism, FunctionalMcFaultedMatchesSerial) {
  nn::Network net = nn::make_mlp({16, 12, 8});
  const std::vector<double> eps{0.01, 0.02};
  fault::FaultConfig faults;
  faults.stuck_at_zero_rate = 0.02;
  faults.stuck_at_one_rate = 0.01;
  nn::MonteCarloConfig mc;
  mc.samples = 20;
  mc.weight_draws = 12;
  mc.threads = 1;
  const auto serial = run_monte_carlo_faulted(net, eps, mc, faults);
  mc.threads = 8;
  const auto parallel = run_monte_carlo_faulted(net, eps, mc, faults);
  expect_identical(serial, parallel);
  EXPECT_GT(serial.faults_injected, 0);  // the defect maps actually bit
}

// --- batched crossbar solves ----------------------------------------------
//
// solve_crossbar_batch's contract: every entry's outputs and diagnostics
// are bit-identical to solve_crossbar on a cache primed on the base spec,
// at any thread count, for both batch shapes — the shared-matrix shape
// (linear cells, only inputs vary: one Schur factor serves the batch)
// and per-entry conductance maps (nonlinear cells). The shared factor is
// the one difference: it counts one factor_reuses per entry.

// The entry's spec: the base with the entry's non-empty overrides.
spice::CrossbarSpec entry_spec(const spice::CrossbarSpec& base,
                               const spice::CrossbarBatchEntry& e) {
  spice::CrossbarSpec spec = base;
  if (!e.input_voltages.empty()) spec.input_voltages = e.input_voltages;
  if (!e.cell_resistance.empty()) spec.cell_resistance = e.cell_resistance;
  return spec;
}

// solve_crossbar per entry, on one cache primed on the base spec.
std::vector<spice::CrossbarSolution> cached_solves(
    const spice::CrossbarSpec& base,
    const std::vector<spice::CrossbarBatchEntry>& entries) {
  spice::CrossbarSolveCache cache;
  (void)spice::solve_crossbar(base, {}, &cache);
  std::vector<spice::CrossbarSolution> out;
  for (const auto& e : entries)
    out.push_back(spice::solve_crossbar(entry_spec(base, e), {}, &cache));
  return out;
}

// Bitwise equality of everything a batch entry reports, factor_reuses
// aside (the caller checks it).
void expect_bitwise_equal(const spice::CrossbarBatchResult& a,
                          const spice::CrossbarSolution& b,
                          std::size_t entry) {
  ASSERT_EQ(a.column_output_voltage.size(), b.column_output_voltage.size());
  for (std::size_t j = 0; j < a.column_output_voltage.size(); ++j)
    EXPECT_EQ(a.column_output_voltage[j], b.column_output_voltage[j])
        << "entry " << entry << " column " << j;
  EXPECT_EQ(a.total_power, b.total_power) << "entry " << entry;
  EXPECT_EQ(a.converged, b.dc.converged) << "entry " << entry;
  const spice::SolverDiagnostics& x = a.diagnostics;
  const spice::SolverDiagnostics& y = b.dc.diagnostics;
  EXPECT_EQ(x.newton_iterations, y.newton_iterations) << "entry " << entry;
  EXPECT_EQ(x.newton_residual, y.newton_residual) << "entry " << entry;
  EXPECT_EQ(x.cg_iterations, y.cg_iterations) << "entry " << entry;
  EXPECT_EQ(x.cg_retries, y.cg_retries) << "entry " << entry;
  EXPECT_EQ(x.lu_fallbacks, y.lu_fallbacks) << "entry " << entry;
  EXPECT_EQ(x.damped_steps, y.damped_steps) << "entry " << entry;
  EXPECT_EQ(x.linear_residual, y.linear_residual) << "entry " << entry;
  EXPECT_EQ(x.faults_injected, y.faults_injected) << "entry " << entry;
  EXPECT_EQ(x.cache_hits, y.cache_hits) << "entry " << entry;
  EXPECT_EQ(x.warm_starts, y.warm_starts) << "entry " << entry;
  EXPECT_EQ(x.schur_solves, y.schur_solves) << "entry " << entry;
  EXPECT_EQ(x.schur_iterations, y.schur_iterations) << "entry " << entry;
  EXPECT_EQ(x.schur_rejects, y.schur_rejects) << "entry " << entry;
  EXPECT_EQ(x.condition_estimate, y.condition_estimate) << "entry " << entry;
  EXPECT_EQ(x.threads, y.threads) << "entry " << entry;
}

TEST(ParallelDeterminism, CrossbarBatchSharedMatrixMatchesCachedSolves) {
  const auto device = tech::default_rram();
  auto spec = spice::CrossbarSpec::uniform(10, 8, device, 0.022, 60.0,
                                           device.r_min.value());
  spec.linear_memristors = true;

  // Only input voltages vary: every entry shares one conductance
  // matrix, so the batch factors the Schur system once.
  std::vector<spice::CrossbarBatchEntry> entries(9);
  for (std::size_t k = 0; k < entries.size(); ++k)
    entries[k].input_voltages.assign(
        10, device.v_read.value() * (0.3 + 0.07 * static_cast<double>(k)));

  const auto reference = cached_solves(spec, entries);
  for (int threads : {1, 4, 8}) {
    const auto batch =
        spice::solve_crossbar_batch(spec, entries, {}, threads);
    ASSERT_EQ(batch.size(), reference.size());
    for (std::size_t k = 0; k < batch.size(); ++k) {
      expect_bitwise_equal(batch[k], reference[k], k);
      // The factor-once path engaged for every entry at every thread
      // count (the decision is static, never per-worker); the cached
      // scalar solve factors its own matrix.
      EXPECT_EQ(batch[k].diagnostics.factor_reuses, 1) << "entry " << k;
      EXPECT_EQ(batch[k].diagnostics.schur_solves, 1) << "entry " << k;
      EXPECT_EQ(reference[k].dc.diagnostics.factor_reuses, 0);
    }
  }
}

TEST(ParallelDeterminism, CrossbarBatchPerEntryMapsMatchCachedSolves) {
  const auto device = tech::default_rram();
  const auto spec = spice::CrossbarSpec::uniform(8, 8, device, 0.022, 60.0,
                                                 device.r_min.value());

  // Per-entry conductance maps on the nonlinear device: every entry
  // assembles (and Schur-factors) its own matrices per Newton iterate.
  std::vector<spice::CrossbarBatchEntry> entries(7);
  for (std::size_t k = 0; k < entries.size(); ++k) {
    entries[k].cell_resistance = spec.cell_resistance;
    for (std::size_t i = 0; i < 8; ++i)
      for (std::size_t j = 0; j < 8; ++j)
        entries[k].cell_resistance[i][j] =
            device.r_min.value() *
            (1.0 + 0.03 * static_cast<double>((k + i * 8 + j) % 11));
  }

  const auto reference = cached_solves(spec, entries);
  for (int threads : {1, 4, 8}) {
    const auto batch =
        spice::solve_crossbar_batch(spec, entries, {}, threads);
    ASSERT_EQ(batch.size(), reference.size());
    for (std::size_t k = 0; k < batch.size(); ++k) {
      expect_bitwise_equal(batch[k], reference[k], k);
      // No shared matrix, so no factor reuse — but the structured rung
      // still serves every Newton iterate.
      EXPECT_EQ(batch[k].diagnostics.factor_reuses, 0);
      EXPECT_GT(batch[k].diagnostics.schur_solves, 0);
    }
  }
}

TEST(ParallelDeterminism, CrossbarBatchEmptyOverrideRestoresBase) {
  const auto device = tech::default_rram();
  const auto spec = spice::CrossbarSpec::uniform(6, 5, device, 0.022, 60.0,
                                                 device.r_min.value());

  // One worker serves cells, then nothing, then inputs, then nothing:
  // each empty entry must solve the base spec, not its predecessor's
  // programming.
  std::vector<spice::CrossbarBatchEntry> entries(4);
  entries[0].cell_resistance = spec.cell_resistance;
  for (auto& row : entries[0].cell_resistance)
    for (double& r : row) r *= 3.0;
  entries[2].input_voltages.assign(6, 0.5 * device.v_read.value());

  const auto batch = spice::solve_crossbar_batch(spec, entries, {}, 1);
  const auto reference = cached_solves(spec, entries);
  const auto base = cached_solves(spec, {spice::CrossbarBatchEntry{}});
  ASSERT_EQ(batch.size(), entries.size());
  for (std::size_t k = 0; k < batch.size(); ++k)
    expect_bitwise_equal(batch[k], reference[k], k);
  expect_bitwise_equal(batch[1], base[0], 1);
  expect_bitwise_equal(batch[3], base[0], 3);
  // The overrides did bite, so a stale programming would have shown.
  EXPECT_NE(batch[0].column_output_voltage, batch[1].column_output_voltage);
  EXPECT_NE(batch[2].column_output_voltage, batch[3].column_output_voltage);
}

TEST(ParallelDeterminism, CrossbarBatchMatchesScalarSolves) {
  const auto device = tech::default_rram();
  auto spec = spice::CrossbarSpec::uniform(8, 6, device, 0.022, 60.0,
                                           device.r_min.value());
  spec.linear_memristors = true;

  std::vector<spice::CrossbarBatchEntry> entries(5);
  for (std::size_t k = 0; k < entries.size(); ++k)
    entries[k].input_voltages.assign(
        8, device.v_read.value() * (0.4 + 0.1 * static_cast<double>(k)));

  for (int threads : {1, 4}) {
    const auto batch =
        spice::solve_crossbar_batch(spec, entries, {}, threads);
    ASSERT_EQ(batch.size(), entries.size());
    for (std::size_t k = 0; k < entries.size(); ++k) {
      auto scalar_spec = spec;
      scalar_spec.input_voltages = entries[k].input_voltages;
      const auto scalar = spice::solve_crossbar(scalar_spec);
      ASSERT_EQ(batch[k].column_output_voltage.size(),
                scalar.column_output_voltage.size());
      for (std::size_t j = 0; j < scalar.column_output_voltage.size(); ++j)
        EXPECT_EQ(batch[k].column_output_voltage[j],
                  scalar.column_output_voltage[j])
            << "entry " << k << " column " << j;
      EXPECT_EQ(batch[k].total_power, scalar.total_power);
    }
  }
}

}  // namespace
}  // namespace mnsim
