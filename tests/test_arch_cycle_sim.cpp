#include "arch/cycle_sim.hpp"

#include <gtest/gtest.h>

#include <cfenv>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "arch/trace_sim.hpp"
#include "check/diagnostic.hpp"
#include "nn/topologies.hpp"
#include "check_testing.hpp"

namespace mnsim::arch {
namespace {

AcceleratorConfig base() {
  AcceleratorConfig c;
  c.cmos_node_nm = 45;
  c.crossbar_size = 128;
  c.interconnect_node_nm = 45;
  c.cycle_enabled = true;
  return c;
}

// A configuration whose scratchpads and bandwidth can never bind: every
// transfer completes in one cycle and fills run arbitrarily far ahead.
AcceleratorConfig unconstrained() {
  AcceleratorConfig c = base();
  c.cycle_ifmap_kb = 1e5;
  c.cycle_filter_kb = 1e5;
  c.cycle_ofmap_kb = 1e5;
  c.cycle_bandwidth_gbps = 1e6;
  return c;
}

// Synthetic two-bank report for the diagnostic and shape tests.
AcceleratorReport synthetic(long iter0 = 4, long iter1 = 4) {
  AcceleratorReport rep;
  rep.banks.resize(2);
  for (auto& bank : rep.banks) {
    bank.mapping.matrix_rows = 64;
    bank.mapping.matrix_cols = 32;
    bank.mapping.physical_cols = 64;
    bank.mapping.crossbars_per_unit = 1;
    bank.pass_latency = 1e-6;
    bank.warmup_passes = 1;
  }
  rep.banks[0].iterations = iter0;
  rep.banks[1].iterations = iter1;
  return rep;
}

TEST(CycleSim, NoStallMatchesTraceMakespan) {
  // Acceptance gate: with scratchpads sized to never stall, the cycle
  // schedule reproduces the pass-level trace makespan within 1%.
  const auto rep = simulate_accelerator(nn::make_vgg16(), base());
  const auto trace = simulate_trace(rep, 0);
  const auto cyc = simulate_cycles(rep, unconstrained());
  ASSERT_GT(trace.makespan, 0.0);
  EXPECT_NEAR(cyc.makespan_seconds, trace.makespan, 0.01 * trace.makespan);
  // Memory-hierarchy stalls (fill/drain) are negligible; dependency
  // stalls remain — they are the pipelining structure itself.
  long memory_stalls = 0;
  for (const auto& bank : cyc.banks)
    memory_stalls += bank.fill_stall_cycles + bank.drain_stall_cycles;
  EXPECT_LT(static_cast<double>(memory_stalls),
            0.01 * static_cast<double>(cyc.total_busy_cycles));
  EXPECT_EQ(cyc.total_tiles, trace.total_passes);
}

TEST(CycleSim, BandwidthStarvedReportsStalls) {
  // Acceptance gate: a bandwidth-starved backing store must surface as
  // nonzero fill-stall cycles and a longer makespan.
  const auto rep = simulate_accelerator(nn::make_caffenet(), base());
  const auto free_run = simulate_cycles(rep, unconstrained());
  AcceleratorConfig starved = unconstrained();
  starved.cycle_bandwidth_gbps = 1e-3;
  const auto cyc = simulate_cycles(rep, starved);
  long fill_stalls = 0;
  for (const auto& bank : cyc.banks) fill_stalls += bank.fill_stall_cycles;
  EXPECT_GT(fill_stalls, 0);
  EXPECT_GT(cyc.total_stall_cycles, 0);
  EXPECT_GT(cyc.stall_fraction, 0.0);
  EXPECT_GT(cyc.makespan_seconds, 1.01 * free_run.makespan_seconds);
}

TEST(CycleSim, DemandFillsNeverBeatPrefetch) {
  const auto rep = simulate_accelerator(nn::make_caffenet(), base());
  AcceleratorConfig cfg = unconstrained();
  cfg.cycle_bandwidth_gbps = 0.05;  // tight enough for policy to matter
  // Output-stationary banks stream their ifmap into a ring that prefetch
  // fills ahead of compute; demand waits for the previous tile.
  cfg.cycle_dataflow = Dataflow::kOutputStationary;
  const auto prefetch = simulate_cycles(rep, cfg);
  cfg.cycle_fill_policy = FillPolicy::kDemand;
  const auto demand = simulate_cycles(rep, cfg);
  EXPECT_EQ(prefetch.makespan_cycles, 589388903);
  EXPECT_EQ(demand.makespan_cycles, 593756567);
  EXPECT_GT(demand.total_stall_cycles, prefetch.total_stall_cycles);

  // A weight-stationary bank streams both operands over one backing bus
  // that serves transfers in issue order, so fill(k+1) already waits for
  // drain(k), which ends after compute(k): demand adds no wait, and the
  // two policies schedule identically (docs/PERFORMANCE.md, "Stall
  // taxonomy"). A model change that lets a streamed fill overlap compute
  // must re-baseline this on purpose.
  cfg.cycle_dataflow = Dataflow::kWeightStationary;
  const auto ws_demand = simulate_cycles(rep, cfg);
  cfg.cycle_fill_policy = FillPolicy::kPrefetch;
  const auto ws_prefetch = simulate_cycles(rep, cfg);
  EXPECT_EQ(ws_prefetch.makespan_cycles, 254114336);
  EXPECT_EQ(ws_demand.makespan_cycles, ws_prefetch.makespan_cycles);
  EXPECT_EQ(ws_demand.total_stall_cycles, ws_prefetch.total_stall_cycles);
}

TEST(CycleSim, StallDecompositionIsExact) {
  // span == busy + dep + fill + drain for every active bank; idle covers
  // the rest of the makespan.
  const auto rep = simulate_accelerator(nn::make_vgg16(), base());
  AcceleratorConfig cfg = unconstrained();
  cfg.cycle_bandwidth_gbps = 0.1;
  const auto cyc = simulate_cycles(rep, cfg);
  for (const auto& bank : cyc.banks) {
    EXPECT_EQ(bank.span_cycles(), bank.busy_cycles + bank.stall_cycles());
    EXPECT_EQ(bank.idle_cycles, cyc.makespan_cycles - bank.span_cycles());
    EXPECT_GE(bank.utilization, 0.0);
    EXPECT_LE(bank.utilization, 1.0 + 1e-12);
  }
  EXPECT_GT(cyc.pe_scheduled_fraction, 0.0);
  EXPECT_LE(cyc.pe_scheduled_fraction, 1.0 + 1e-12);
  EXPECT_LE(cyc.pe_active_fraction, cyc.pe_scheduled_fraction + 1e-12);
}

TEST(CycleSim, IdleBankReportsZeroUtilization) {
  auto rep = synthetic(/*iter0=*/4, /*iter1=*/0);
  const auto cyc = simulate_cycles(rep, unconstrained());
  EXPECT_EQ(cyc.banks[1].tiles, 0);
  EXPECT_DOUBLE_EQ(cyc.banks[1].utilization, 0.0);
  EXPECT_GT(cyc.banks[0].utilization, 0.0);
}

TEST(CycleSim, TrafficAccountsEveryTile) {
  const auto rep = synthetic();
  const auto cyc = simulate_cycles(rep, unconstrained());
  for (std::size_t b = 0; b < rep.banks.size(); ++b) {
    const auto& bank = cyc.banks[b];
    EXPECT_DOUBLE_EQ(bank.ifmap_bytes,
                     static_cast<double>(bank.tiles) *
                         rep.banks[b].mapping.matrix_rows);
    EXPECT_DOUBLE_EQ(bank.ofmap_bytes,
                     static_cast<double>(bank.tiles) *
                         rep.banks[b].mapping.matrix_cols);
    EXPECT_GT(bank.filter_bytes, 0.0);
    EXPECT_GT(bank.bus_busy_cycles, 0);
  }
  EXPECT_DOUBLE_EQ(cyc.backing_traffic_bytes,
                   cyc.banks[0].ifmap_bytes + cyc.banks[0].ofmap_bytes +
                       cyc.banks[1].ifmap_bytes + cyc.banks[1].ofmap_bytes);
}

TEST(CycleSim, OutputStationaryDefersTheDrain) {
  const auto rep = simulate_accelerator(nn::make_caffenet(), base());
  AcceleratorConfig cfg = unconstrained();
  cfg.cycle_dataflow = Dataflow::kOutputStationary;
  const auto os = simulate_cycles(rep, cfg);
  EXPECT_TRUE(os.banks.front().resident_ofmap);
  EXPECT_TRUE(os.diagnostics.empty());
  // Bulk drains serialize the inter-bank handoff: the makespan can only
  // grow relative to streaming drains.
  const auto ws = simulate_cycles(rep, unconstrained());
  EXPECT_GE(os.makespan_cycles, ws.makespan_cycles);
}

TEST(CycleSim, InputStationaryBuffersTheSample) {
  const auto rep = simulate_accelerator(nn::make_caffenet(), base());
  AcceleratorConfig cfg = unconstrained();
  cfg.cycle_dataflow = Dataflow::kInputStationary;
  const auto is = simulate_cycles(rep, cfg);
  EXPECT_TRUE(is.banks.front().resident_ifmap);
  EXPECT_TRUE(is.diagnostics.empty());
  EXPECT_GT(is.makespan_cycles, 0);
}

TEST(CycleSim, ResidencyFallbackWarnsAndStreams) {
  const auto rep = simulate_accelerator(nn::make_caffenet(), base());
  AcceleratorConfig cfg = base();  // default 2 KB ifmap: sample won't fit
  cfg.cycle_dataflow = Dataflow::kInputStationary;
  const auto cyc = simulate_cycles(rep, cfg);
  bool warned = false;
  for (const auto& d : cyc.diagnostics)
    if (d.code == "MN-CYC-005") warned = true;
  EXPECT_TRUE(warned);
  for (const auto& bank : cyc.banks) {
    if (bank.tiles > 1) {
      EXPECT_FALSE(bank.resident_ifmap);
    }
  }
  EXPECT_GT(cyc.makespan_cycles, 0);
}

TEST(CycleSim, EventTimelineIsBoundedAndOrdered) {
  const auto rep = simulate_accelerator(nn::make_caffenet(), base());
  AcceleratorConfig cfg = unconstrained();
  cfg.cycle_max_events = 100;
  const auto cyc = simulate_cycles(rep, cfg);
  EXPECT_EQ(cyc.events.size(), 100u);
  for (const auto& e : cyc.events) {
    EXPECT_GE(e.start_cycle, 0);
    EXPECT_GE(e.end_cycle, e.start_cycle);
  }
  cfg.cycle_max_events = 0;
  EXPECT_TRUE(simulate_cycles(rep, cfg).events.empty());
}

TEST(CycleSim, PinnedClockIsHonored) {
  const auto rep = synthetic();
  AcceleratorConfig cfg = unconstrained();
  cfg.cycle_clock_ghz = 2.0;
  const auto cyc = simulate_cycles(rep, cfg);
  EXPECT_DOUBLE_EQ(cyc.clock_hz, 2e9);
  // One 1 us pass at 2 GHz is exactly 2000 cycles.
  EXPECT_EQ(cyc.banks[0].compute_cycles_per_tile, 2000);
}

TEST(CycleSim, Validation) {
  // Malformed inputs refuse with coded diagnostics (MN-CYC-*).
  AcceleratorReport empty;
  try {
    simulate_cycles(empty, unconstrained());
    FAIL() << "expected CheckError";
  } catch (const check::CheckError& e) {
    EXPECT_TRUE(has_code(e.diagnostics(), "MN-CYC-001"));
  }

  auto bad_latency = synthetic();
  bad_latency.banks[0].pass_latency =
      std::numeric_limits<double>::quiet_NaN();
  try {
    simulate_cycles(bad_latency, unconstrained());
    FAIL() << "expected CheckError";
  } catch (const check::CheckError& e) {
    EXPECT_TRUE(has_code(e.diagnostics(), "MN-CYC-002"));
  }

  auto bad_iterations = synthetic();
  bad_iterations.banks[1].iterations = -1;
  try {
    simulate_cycles(bad_iterations, unconstrained());
    FAIL() << "expected CheckError";
  } catch (const check::CheckError& e) {
    EXPECT_TRUE(has_code(e.diagnostics(), "MN-CYC-002"));
  }

  AcceleratorConfig tiny = unconstrained();
  tiny.cycle_ifmap_kb = 1e-3;  // one byte: smaller than any tile
  try {
    simulate_cycles(synthetic(), tiny);
    FAIL() << "expected CheckError";
  } catch (const check::CheckError& e) {
    EXPECT_TRUE(has_code(e.diagnostics(), "MN-CYC-003"));
  }

  auto huge = synthetic();
  huge.banks[0].pass_latency = 1e4;
  huge.banks[0].iterations = 1000000;
  AcceleratorConfig fast = unconstrained();
  fast.cycle_clock_ghz = 1000.0;
  try {
    simulate_cycles(huge, fast);
    FAIL() << "expected CheckError";
  } catch (const check::CheckError& e) {
    EXPECT_TRUE(has_code(e.diagnostics(), "MN-CYC-004"));
  }
}

TEST(CycleSim, MalformedBanksAreRefusedBeforeScheduling) {
  // Each of these used to escape the bank loop as an uncoded
  // std::invalid_argument; the pre-flight refuses them with a code.
  const auto refused_with = [](const AcceleratorReport& rep,
                               const AcceleratorConfig& cfg) {
    try {
      simulate_cycles(rep, cfg);
    } catch (const check::CheckError& e) {
      std::vector<std::string> codes;
      for (const auto& d : e.diagnostics()) codes.push_back(d.code);
      return codes;
    }
    return std::vector<std::string>{"accepted"};
  };

  // A negative matrix size gives a tile a negative byte count.
  auto negative = synthetic();
  negative.banks[0].mapping.matrix_rows = -5;
  EXPECT_EQ(refused_with(negative, unconstrained()),
            std::vector<std::string>{"MN-CYC-002"});

  // An empty tile still takes a one-byte slot, which a scratchpad of a
  // tenth of a byte does not hold.
  auto empty_tile = synthetic();
  empty_tile.banks[1].mapping.matrix_rows = 0;
  AcceleratorConfig sliver = unconstrained();
  sliver.cycle_ifmap_kb = 1e-4;
  EXPECT_EQ(refused_with(empty_tile, sliver),
            std::vector<std::string>{"MN-CYC-003"});

  // A bus that moves no representable part of a byte in a cycle.
  AcceleratorConfig stalled = unconstrained();
  stalled.cycle_bandwidth_gbps = 1e-300;
  stalled.cycle_clock_ghz = 1e298;
  EXPECT_EQ(refused_with(synthetic(), stalled),
            std::vector<std::string>{"MN-CYC-004"});

  // And a pinned clock whose hertz overflow a double.
  AcceleratorConfig overflowing = unconstrained();
  overflowing.cycle_clock_ghz = 1e300;
  EXPECT_EQ(refused_with(synthetic(), overflowing),
            std::vector<std::string>{"MN-CYC-004"});
}

// Arms the invalid / divide-by-zero / overflow traps over a scope, as the
// MNSIM_FPE test harness does for a whole binary, so an overflow dies
// with SIGFPE instead of passing as a plausible number.
class ArmedFpTraps {
 public:
#if defined(__GLIBC__) && defined(__x86_64__)
  ArmedFpTraps() {
    std::feclearexcept(FE_ALL_EXCEPT);
    previous_ = ::feenableexcept(kTraps);
  }
  ~ArmedFpTraps() {
    ::fedisableexcept(kTraps & ~previous_);
    std::feclearexcept(FE_ALL_EXCEPT);
  }

 private:
  static constexpr int kTraps = FE_INVALID | FE_DIVBYZERO | FE_OVERFLOW;
  int previous_ = 0;
#endif
};

TEST(CycleSim, SubnormalPassLatencyIsRefusedBeforeTheClockOverflows) {
  // The auto clock is kAutoCyclesPerPass over the shortest pass; a
  // subnormal latency passes the MN-CYC-002 screen but would make that
  // quotient overflow. It must be refused with a code, not trap or leak
  // an infinite clock into the schedule.
  auto rep = simulate_accelerator(nn::make_vgg16(), base());
  for (auto& bank : rep.banks) bank.pass_latency = 1e-310;
  const ArmedFpTraps traps{};
  try {
    simulate_cycles(rep, unconstrained());
    FAIL() << "expected CheckError";
  } catch (const check::CheckError& e) {
    EXPECT_TRUE(has_code(e.diagnostics(), "MN-CYC-004"));
    for (const auto& d : e.diagnostics()) EXPECT_FALSE(d.hint.empty());
  }

  // A finite but huge auto clock that turns another bank's pass into more
  // cycles than a double holds is refused the same way.
  rep.banks[0].pass_latency = 1e-300;
  for (std::size_t b = 1; b < rep.banks.size(); ++b)
    rep.banks[b].pass_latency = 1e10;
  try {
    simulate_cycles(rep, unconstrained());
    FAIL() << "expected CheckError";
  } catch (const check::CheckError& e) {
    EXPECT_TRUE(has_code(e.diagnostics(), "MN-CYC-004"));
  }
}

TEST(CycleSim, HugeScratchpadsScheduleLikeUnconstrainedOnes) {
  // Slot counts clamp to the bank's tiles before the cast to long, so a
  // capacity far past the range of long schedules like any capacity that
  // already holds every tile.
  const auto rep = simulate_accelerator(nn::make_caffenet(), base());
  for (Dataflow dataflow :
       {Dataflow::kWeightStationary, Dataflow::kInputStationary,
        Dataflow::kOutputStationary}) {
    AcceleratorConfig cfg = unconstrained();
    cfg.cycle_bandwidth_gbps = 0.05;
    cfg.cycle_dataflow = dataflow;
    const auto ref = simulate_cycles(rep, cfg);
    cfg.cycle_ifmap_kb = 1e300;
    cfg.cycle_filter_kb = 1e300;
    cfg.cycle_ofmap_kb = 1e300;
    const auto huge = simulate_cycles(rep, cfg);
    EXPECT_EQ(huge.makespan_cycles, ref.makespan_cycles);
    EXPECT_EQ(huge.total_stall_cycles, ref.total_stall_cycles);
    EXPECT_EQ(huge.backing_traffic_bytes, ref.backing_traffic_bytes);
    EXPECT_EQ(huge.diagnostics.size(), ref.diagnostics.size());
    ASSERT_EQ(huge.banks.size(), ref.banks.size());
    for (std::size_t i = 0; i < ref.banks.size(); ++i) {
      const auto& a = huge.banks[i];
      const auto& b = ref.banks[i];
      EXPECT_EQ(a.ifmap_capacity_tiles, b.tiles);
      EXPECT_EQ(b.ifmap_capacity_tiles, b.tiles);
      EXPECT_EQ(a.ofmap_capacity_tiles, b.ofmap_capacity_tiles);
      EXPECT_EQ(a.start_cycle, b.start_cycle);
      EXPECT_EQ(a.finish_cycle, b.finish_cycle);
      EXPECT_EQ(a.dependency_stall_cycles, b.dependency_stall_cycles);
      EXPECT_EQ(a.fill_stall_cycles, b.fill_stall_cycles);
      EXPECT_EQ(a.drain_stall_cycles, b.drain_stall_cycles);
      EXPECT_EQ(a.bus_busy_cycles, b.bus_busy_cycles);
      EXPECT_EQ(a.resident_ifmap, b.resident_ifmap);
      EXPECT_EQ(a.resident_ofmap, b.resident_ofmap);
    }
  }
}

TEST(CycleSim, NonFiniteCycleKnobsAreRefused) {
  // The INI ranges bound these; a programmatic config must be refused by
  // validate() before the engine turns them into slot and cycle counts.
  const double inf = std::numeric_limits<double>::infinity();
  const auto rep = synthetic();
  for (double AcceleratorConfig::*knob :
       {&AcceleratorConfig::cycle_ifmap_kb, &AcceleratorConfig::cycle_filter_kb,
        &AcceleratorConfig::cycle_ofmap_kb,
        &AcceleratorConfig::cycle_bandwidth_gbps,
        &AcceleratorConfig::cycle_clock_ghz}) {
    AcceleratorConfig cfg = unconstrained();
    cfg.*knob = inf;
    EXPECT_THROW(cfg.validate(), std::invalid_argument);
    EXPECT_THROW(simulate_cycles(rep, cfg), std::invalid_argument);
  }
}

TEST(CycleSim, PureFunctionOfItsInputs) {
  // Same inputs, same schedule — byte for byte. The sweep-level
  // determinism gate lives in test_parallel_determinism.
  const auto rep = simulate_accelerator(nn::make_caffenet(), base());
  AcceleratorConfig cfg = unconstrained();
  cfg.cycle_bandwidth_gbps = 0.2;
  const auto a = simulate_cycles(rep, cfg);
  const auto b = simulate_cycles(rep, cfg);
  EXPECT_EQ(a.makespan_cycles, b.makespan_cycles);
  EXPECT_EQ(a.total_stall_cycles, b.total_stall_cycles);
  EXPECT_EQ(a.total_busy_cycles, b.total_busy_cycles);
  ASSERT_EQ(a.banks.size(), b.banks.size());
  for (std::size_t i = 0; i < a.banks.size(); ++i) {
    EXPECT_EQ(a.banks[i].start_cycle, b.banks[i].start_cycle);
    EXPECT_EQ(a.banks[i].finish_cycle, b.banks[i].finish_cycle);
    EXPECT_EQ(a.banks[i].fill_stall_cycles, b.banks[i].fill_stall_cycles);
  }
}

}  // namespace
}  // namespace mnsim::arch
