// google-benchmark microbenchmarks of MNSIM's core kernels: the
// behavior-level accuracy model, a full computation-unit simulation, a
// whole-accelerator simulation, a DSE slice, and the circuit-level MNA
// solve (small sizes) — the raw numbers behind the Table III speedup.
#include <benchmark/benchmark.h>

#include "accuracy/variation.hpp"
#include "accuracy/voltage_error.hpp"
#include "arch/accelerator.hpp"
#include "dse/explorer.hpp"
#include "nn/topologies.hpp"
#include "spice/crossbar_netlist.hpp"
#include "tech/interconnect.hpp"
#include "util/parallel.hpp"

using namespace mnsim;

static void BM_AccuracyModel(benchmark::State& state) {
  accuracy::CrossbarErrorInputs in;
  in.rows = static_cast<int>(state.range(0));
  in.cols = in.rows;
  in.device = tech::default_rram();
  in.segment_resistance = tech::interconnect_tech(45).segment_resistance;
  in.sense_resistance = mnsim::units::Ohms{60.0};
  for (auto _ : state)
    benchmark::DoNotOptimize(accuracy::estimate_voltage_error(in));
}
BENCHMARK(BM_AccuracyModel)->Arg(16)->Arg(64)->Arg(256)->Arg(1024);

static void BM_UnitSimulation(benchmark::State& state) {
  arch::AcceleratorConfig cfg;
  cfg.cmos_node_nm = 45;
  cfg.crossbar_size = static_cast<int>(state.range(0));
  for (auto _ : state)
    benchmark::DoNotOptimize(
        arch::simulate_unit(cfg.crossbar_size, cfg.crossbar_size, 8, 4, cfg));
}
BENCHMARK(BM_UnitSimulation)->Arg(64)->Arg(256);

static void BM_AcceleratorSimulation_Vgg16(benchmark::State& state) {
  auto net = nn::make_vgg16();
  arch::AcceleratorConfig cfg;
  cfg.cmos_node_nm = 45;
  cfg.crossbar_size = 128;
  for (auto _ : state)
    benchmark::DoNotOptimize(arch::simulate_accelerator(net, cfg));
}
BENCHMARK(BM_AcceleratorSimulation_Vgg16);

// Per-design-point cost of a DSE sweep: dse::explore over the 45 nm
// interconnect slice of the paper CNN space for VGG-16 (45 nm CMOS, 8-bit
// outputs, error bound 0.5), with the cycle engine off (Arg 0) and on
// (Arg 1). Not gated; a profiler can run it without perfbench.
static void BM_ExploreVgg16Slice(benchmark::State& state) {
  const auto net = nn::make_vgg16();
  arch::AcceleratorConfig cfg;
  cfg.cmos_node_nm = 45;
  cfg.output_bits = 8;
  cfg.cycle_enabled = state.range(0) != 0;
  auto space = dse::DesignSpace::paper_cnn();
  space.interconnect_nodes = {45};
  const auto points = static_cast<long>(space.enumerate().size());
  for (auto _ : state)
    benchmark::DoNotOptimize(dse::explore(net, cfg, space, 0.50));
  state.SetItemsProcessed(state.iterations() * points);
}
BENCHMARK(BM_ExploreVgg16Slice)->Arg(0)->Arg(1)
    ->Unit(benchmark::kMicrosecond);

static void BM_CircuitLevelSolve(benchmark::State& state) {
  const int size = static_cast<int>(state.range(0));
  auto device = tech::default_rram();
  auto spec = spice::CrossbarSpec::uniform(
      size, size, device,
      tech::interconnect_tech(45).segment_resistance.value(), 60.0,
      device.r_min.value());
  for (auto _ : state)
    benchmark::DoNotOptimize(spice::solve_crossbar(spec));
}
BENCHMARK(BM_CircuitLevelSolve)->Arg(8)->Arg(16)->Arg(32)
    ->Unit(benchmark::kMillisecond);

// Sweep throughput: the variation Monte-Carlo engine at a fixed trial
// count, swept over the worker count (Arg = threads; 0 = hardware
// concurrency). Serial (Arg 1) vs parallel rates show the speedup of the
// deterministic thread pool; the counters confirm the solver caches are
// doing their job (every trial should refill the cached CSR pattern and
// warm-start CG from the base operating point).
static void BM_VariationSweepThroughput(benchmark::State& state) {
  accuracy::CrossbarErrorInputs in;
  in.rows = 24;
  in.cols = 24;
  in.device = tech::default_rram();
  in.device.sigma = 0.2;
  in.segment_resistance = tech::interconnect_tech(45).segment_resistance;
  in.sense_resistance = mnsim::units::Ohms{60.0};

  accuracy::VariationMcOptions opt;
  opt.trials = 64;
  opt.threads = static_cast<int>(state.range(0));

  long cache_hits = 0;
  long warm_starts = 0;
  for (auto _ : state) {
    auto r = accuracy::variation_monte_carlo(in, opt);
    cache_hits = r.cache_hits;
    warm_starts = r.warm_starts;
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(state.iterations() * opt.trials);
  state.counters["samples_per_s"] = benchmark::Counter(
      static_cast<double>(state.iterations() * opt.trials),
      benchmark::Counter::kIsRate);
  state.counters["cache_hits"] = static_cast<double>(cache_hits);
  state.counters["warm_starts"] = static_cast<double>(warm_starts);
  state.counters["threads"] =
      static_cast<double>(util::resolve_thread_count(opt.threads));
}
BENCHMARK(BM_VariationSweepThroughput)
    ->Arg(1)->Arg(2)->Arg(4)->Arg(0)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

BENCHMARK_MAIN();
