// Cycle-level dataflow engine: wall-clock against the pass-level trace
// walker it generalizes, plus the makespan cross-check.
//
// Two workloads on the VGG-16 report (the largest tile count of the
// built-in topologies), each reported as a same-host ratio so the gate
// is machine-independent (tools/perf_gate.py vs BENCH_cycle.json):
//   cycle-vs-trace    trace wall-clock over cycle wall-clock with
//                     unconstrained scratchpads. The trace walks every
//                     pass; the cycle engine schedules streamed banks a
//                     stretch of tiles at a time (self-paced stretches
//                     in O(1), dependency-bound ones in one gather pass)
//                     and walks only the recorded tiles and the few that
//                     fit neither form. Dropping far below the floor
//                     means the engine grew superlinear work per tile.
//   events-capped     full event recording, which walks every tile, over
//                     the default 256-event cap. The floor guards the cap
//                     actually short-circuiting the per-event
//                     bookkeeping and the walk.
#include <cstdio>

#include "arch/cycle_sim.hpp"
#include "arch/trace_sim.hpp"
#include "bench_common.hpp"
#include "nn/topologies.hpp"
#include "util/table.hpp"

using namespace mnsim;

using bench::time_seconds;

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
