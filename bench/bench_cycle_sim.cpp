// Cycle-level dataflow engine: wall-clock against the pass-level trace
// walker it generalizes, plus the makespan cross-check.
//
// Workloads on VGG-16 reports (the largest tile count of the built-in
// topologies) and on hand-built chains, each reported as a same-host
// ratio so the gates are machine-independent (tools/perf_gate.py vs
// BENCH_cycle.json):
//   cycle-vs-trace    trace wall-clock over cycle wall-clock with
//                     unconstrained scratchpads. The trace walks every
//                     pass; the cycle engine schedules streamed banks a
//                     stretch of tiles at a time (self-paced ones, and
//                     dependency-bound ones over an upstream run each)
//                     and walks only the recorded tiles and the few that
//                     fit neither form. Dropping far below the floor
//                     means the engine grew superlinear work per tile.
//   events-capped     full event recording, which walks every tile, over
//                     the default 256-event cap. The floor guards the cap
//                     actually short-circuiting the per-event
//                     bookkeeping and the walk.
//   repeats-capped    the same at the Table VI point with a 256 x 256
//                     crossbar and parallelism 1, where banks 3, 5, 6 and
//                     9 read upstream runs with repeated indices. A bank
//                     that takes one stretch per upstream repeat, not one
//                     per upstream run, costs several times the default
//                     call there and fails the floor.
//   found-chains      a tile-by-tile recurrence over the engine on three
//                     hand-built chains: a pool bank whose D/den lies just
//                     below an integer (3e6, 3e6 and 7.5e5 tiles) and 40-
//                     and 120-bank chains of 20,000-tile banks whose
//                     periods differ by up to 3 cycles. Measured, not
//                     gated.
#include <algorithm>
#include <cstdio>
#include <random>
#include <vector>

#include "arch/cycle_sim.hpp"
#include "arch/trace_sim.hpp"
#include "bench_common.hpp"
#include "nn/topologies.hpp"
#include "util/table.hpp"

using namespace mnsim;

using bench::min_seconds;
using bench::time_seconds;

namespace {

// A bank of a hand-built chain: tiles, warm-up passes and pass cycles.
struct BankSpec {
  long tiles;
  long warmup;
  long pass_cycles;
};

arch::AcceleratorReport hand_built(const std::vector<BankSpec>& specs) {
  arch::AcceleratorReport rep;
  rep.banks.resize(specs.size());
  for (std::size_t b = 0; b < specs.size(); ++b) {
    arch::BankReport& bank = rep.banks[b];
    bank.mapping.matrix_rows = 64;
    bank.mapping.matrix_cols = 32;
    bank.mapping.physical_cols = 64;
    bank.mapping.crossbars_per_unit = 1;
    bank.iterations = specs[b].tiles;
    bank.warmup_passes = specs[b].warmup;
    bank.pass_latency = static_cast<double>(specs[b].pass_cycles) * 1e-9;
  }
  return rep;
}

// The streamed-bank recurrence tile by tile, at a pinned 1 GHz clock and
// an unconstrained bus (one-cycle fills and drains): the last drain.
long recurrence(const std::vector<BankSpec>& specs) {
  std::vector<long> up;
  std::vector<long> avail;
  long up_warmup = 0;
  long last = 0;
  for (const BankSpec& spec : specs) {
    const long up_tiles = static_cast<long>(up.size());
    const long warmup = std::min(up_warmup, up_tiles);
    const long streamed = up_tiles - warmup;
    const long den = std::max<long>(spec.tiles - 1, 1);
    avail.assign(static_cast<std::size_t>(spec.tiles), 0);
    long de = 0;
    for (long k = 0; k < spec.tiles; ++k) {
      const long needed =
          warmup + (spec.tiles == 1
                        ? streamed
                        : static_cast<long>(static_cast<__int128>(k) *
                                            streamed / den));
      const long dep = needed > 0 ? up[static_cast<std::size_t>(needed - 1)]
                                  : 0;
      de = std::max(dep, de) + spec.pass_cycles + 2;
      avail[static_cast<std::size_t>(k)] = de;
    }
    last = std::max(last, de);
    up.swap(avail);
    up_warmup = spec.warmup;
  }
  return last;
}

// `banks` banks of 20,000 tiles, warm-ups of 1-40 tiles, passes of
// 300-303 cycles.
std::vector<BankSpec> near_equal_chain(int banks, unsigned seed) {
  std::mt19937 rng(seed);
  std::vector<BankSpec> specs;
  for (int b = 0; b < banks; ++b) {
    const long cpt = std::uniform_int_distribution<long>(300, 303)(rng);
    specs.push_back(
        {20000, std::uniform_int_distribution<long>(1, 40)(rng), cpt});
  }
  return specs;
}

}  // namespace

int main() {
  arch::AcceleratorConfig cfg;
  cfg.cmos_node_nm = 45;
  cfg.crossbar_size = 128;
  cfg.interconnect_node_nm = 45;
  cfg.cycle_enabled = true;
  // Unconstrained memory hierarchy: the cross-check below expects the
  // analytic-pipeline makespan, and the timing ratio should measure the
  // walker, not a bandwidth-starved schedule.
  cfg.cycle_ifmap_kb = 1e5;
  cfg.cycle_filter_kb = 1e5;
  cfg.cycle_ofmap_kb = 1e5;
  cfg.cycle_bandwidth_gbps = 1e6;

  const auto net = nn::make_vgg16();
  const auto report = arch::simulate_accelerator(net, cfg);
  const int repeats = 5;

  util::Table table("Cycle engine vs pass-level trace (VGG-16)");
  table.set_header(
      {"Workload", "Tiles", "Reference (s)", "Measured (s)", "Ratio"});
  util::CsvWriter csv;
  csv.set_header({"workload", "entries", "sequential_s", "batched_s",
                  "speedup"});
  auto record = [&](const char* name, long entries, double seq_s,
                    double bat_s) {
    const double ratio = seq_s / bat_s;
    table.add_row({name, std::to_string(entries), util::Table::sig(seq_s, 4),
                   util::Table::sig(bat_s, 4),
                   util::Table::sig(ratio, 3) + "x"});
    csv.add_row({name, std::to_string(entries), util::Table::sig(seq_s, 6),
                 util::Table::sig(bat_s, 6), util::Table::sig(ratio, 6)});
  };

  const auto cycles = arch::simulate_cycles(report, cfg);
  const auto trace = arch::simulate_trace(report);

  // --- cycle-vs-trace: same schedule, richer events -------------------------
  {
    const double trace_s =
        time_seconds([&] { (void)arch::simulate_trace(report); }, repeats);
    const double cycle_s =
        time_seconds([&] { (void)arch::simulate_cycles(report, cfg); },
                     repeats);
    record("cycle-vs-trace", cycles.total_tiles, trace_s, cycle_s);
  }

  // --- events-capped: the Max_Events cap must short-circuit -----------------
  {
    auto uncapped = cfg;
    uncapped.cycle_max_events = 1L << 30;
    const double full_s = time_seconds(
        [&] { (void)arch::simulate_cycles(report, uncapped); }, repeats);
    const double capped_s =
        time_seconds([&] { (void)arch::simulate_cycles(report, cfg); },
                     repeats);
    record("events-capped", cycles.total_tiles, full_s, capped_s);
  }

  // --- repeats-capped: one stretch per upstream run -------------------------
  {
    arch::AcceleratorConfig point;
    point.cmos_node_nm = 45;
    point.interconnect_node_nm = 45;
    point.output_bits = 8;
    point.crossbar_size = 256;
    point.parallelism = 1;
    point.cycle_enabled = true;
    const auto point_report = arch::simulate_accelerator(net, point);
    auto uncapped = point;
    uncapped.cycle_max_events = 1L << 30;
    const double full_s = min_seconds(
        [&] { (void)arch::simulate_cycles(point_report, uncapped); }, 3);
    const double capped_s = min_seconds(
        [&] { (void)arch::simulate_cycles(point_report, point); }, 200);
    record("repeats-capped", cycles.total_tiles, full_s, capped_s);
  }

  // --- found-chains: the recurrence over the engine --------------------------
  {
    arch::AcceleratorConfig pinned = cfg;
    pinned.cycle_clock_ghz = 1.0;
    const std::vector<std::vector<BankSpec>> chains = {
        {{3'000'000, 1, 20}, {3'000'000, 1500, 22}, {750'000, 4, 85}},
        near_equal_chain(40, 45),
        near_equal_chain(120, 125)};
    long tiles = 0;
    double recurrence_s = 0.0;
    double engine_s = 0.0;
    for (const auto& specs : chains) {
      const auto chain = hand_built(specs);
      const auto result = arch::simulate_cycles(chain, pinned);
      if (recurrence(specs) != result.makespan_cycles) {
        std::printf("found-chains: makespan differs from the recurrence\n");
        return 1;
      }
      tiles += result.total_tiles;
      recurrence_s += min_seconds([&] { (void)recurrence(specs); }, 3);
      engine_s += min_seconds(
          [&] { (void)arch::simulate_cycles(chain, pinned); }, 3);
    }
    record("found-chains", tiles, recurrence_s, engine_s);
  }

  table.print();
  std::printf(
      "makespan cross-check: cycle %.6g s vs trace %.6g s (%+.3f%%), "
      "%ld tiles, %ld stall cycles\n",
      cycles.makespan_seconds, trace.makespan,
      100.0 * (cycles.makespan_seconds - trace.makespan) / trace.makespan,
      cycles.total_tiles, cycles.total_stall_cycles);
  bench::paper_note(
      "no direct table — infrastructure for the Sec. VII dataflow "
      "analysis: the cycle engine adds the scratchpad/bandwidth model on "
      "top of the trace walker's schedule and still runs faster than it, "
      "by scheduling whole stretches of tiles in closed form.");
  bench::save_csv(csv, "cycle_sim.csv");
  return 0;
}
