// Differential tests of the cycle engine's stretch scheduling.
//
// simulate_cycles schedules a streamed bank a stretch of tiles at a time
// (self-paced stretches in O(1), dependency-bound stretches in one
// gather pass) but walks tile by tile while events are still being
// recorded. So the same report and config run at Max_Events 0, 256 and
// 2^30 take the fast path almost everywhere, partly, and nowhere: every
// result field must agree across the three, and the recorded events must
// be a prefix of the fully recorded run. The fully walked run is the
// oracle for the other two.
//
// The hand-built reports pin the schedule shapes the stretch logic has
// to get right (carry patterns near one half, a bank that turns from
// self-paced to dependency-bound and back, one-tile and zero-tile banks,
// a warm-up past the upstream's tiles, products past 2^63), and the
// random networks cross-check the cycle makespan against the pass-level
// trace.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <string>
#include <vector>

#include "arch/cycle_sim.hpp"
#include "arch/trace_sim.hpp"
#include "check/diagnostic.hpp"
#include "nn/generator.hpp"
#include "nn/topologies.hpp"
#include "obs/metrics.hpp"

namespace mnsim::arch {
namespace {

constexpr long kAllEvents = 1L << 30;

// A run's result, or the codes it was refused with.
struct Outcome {
  std::optional<CycleSimResult> result;
  std::vector<std::string> codes;
  long walked_tiles = 0;
};

Outcome run(const AcceleratorReport& rep, const AcceleratorConfig& cfg) {
  obs::Registry& reg = obs::Registry::global();
  const long walked_before = reg.counter("cycle.walked_tiles");
  Outcome out;
  try {
    out.result = simulate_cycles(rep, cfg);
  } catch (const check::CheckError& e) {
    for (const auto& d : e.diagnostics()) out.codes.push_back(d.code);
  }
  out.walked_tiles = reg.counter("cycle.walked_tiles") - walked_before;
  return out;
}

void expect_same(const CycleSimResult& a, const CycleSimResult& b,
                 const std::string& what) {
  SCOPED_TRACE(what);
  EXPECT_EQ(a.clock_hz, b.clock_hz);
  EXPECT_EQ(a.dataflow, b.dataflow);
  EXPECT_EQ(a.fill_policy, b.fill_policy);
  EXPECT_EQ(a.makespan_cycles, b.makespan_cycles);
  EXPECT_EQ(a.makespan_seconds, b.makespan_seconds);
  EXPECT_EQ(a.total_tiles, b.total_tiles);
  EXPECT_EQ(a.total_busy_cycles, b.total_busy_cycles);
  EXPECT_EQ(a.total_stall_cycles, b.total_stall_cycles);
  EXPECT_EQ(a.backing_traffic_bytes, b.backing_traffic_bytes);
  EXPECT_EQ(a.weight_image_bytes, b.weight_image_bytes);
  EXPECT_EQ(a.pe_scheduled_fraction, b.pe_scheduled_fraction);
  EXPECT_EQ(a.pe_active_fraction, b.pe_active_fraction);
  EXPECT_EQ(a.stall_fraction, b.stall_fraction);
  ASSERT_EQ(a.banks.size(), b.banks.size());
  for (std::size_t i = 0; i < a.banks.size(); ++i) {
    SCOPED_TRACE("bank " + std::to_string(i));
    const CycleBankStats& x = a.banks[i];
    const CycleBankStats& y = b.banks[i];
    EXPECT_EQ(x.tiles, y.tiles);
    EXPECT_EQ(x.compute_cycles_per_tile, y.compute_cycles_per_tile);
    EXPECT_EQ(x.start_cycle, y.start_cycle);
    EXPECT_EQ(x.finish_cycle, y.finish_cycle);
    EXPECT_EQ(x.busy_cycles, y.busy_cycles);
    EXPECT_EQ(x.dependency_stall_cycles, y.dependency_stall_cycles);
    EXPECT_EQ(x.fill_stall_cycles, y.fill_stall_cycles);
    EXPECT_EQ(x.drain_stall_cycles, y.drain_stall_cycles);
    EXPECT_EQ(x.idle_cycles, y.idle_cycles);
    EXPECT_EQ(x.utilization, y.utilization);
    EXPECT_EQ(x.ifmap_capacity_tiles, y.ifmap_capacity_tiles);
    EXPECT_EQ(x.ofmap_capacity_tiles, y.ofmap_capacity_tiles);
    EXPECT_EQ(x.ifmap_bytes, y.ifmap_bytes);
    EXPECT_EQ(x.ofmap_bytes, y.ofmap_bytes);
    EXPECT_EQ(x.filter_bytes, y.filter_bytes);
    EXPECT_EQ(x.bus_busy_cycles, y.bus_busy_cycles);
    EXPECT_EQ(x.bus_utilization, y.bus_utilization);
    EXPECT_EQ(x.resident_ifmap, y.resident_ifmap);
    EXPECT_EQ(x.resident_ofmap, y.resident_ofmap);
  }
  ASSERT_EQ(a.diagnostics.size(), b.diagnostics.size());
  for (std::size_t i = 0; i < a.diagnostics.size(); ++i) {
    EXPECT_EQ(a.diagnostics[i].code, b.diagnostics[i].code);
    EXPECT_EQ(a.diagnostics[i].message, b.diagnostics[i].message);
  }
}

// `events` must be the first events of the fully recorded run.
void expect_prefix(const std::vector<TileEvent>& events,
                   const std::vector<TileEvent>& all, long cap) {
  ASSERT_EQ(static_cast<long>(events.size()),
            std::min(cap, static_cast<long>(all.size())));
  for (std::size_t i = 0; i < events.size(); ++i) {
    SCOPED_TRACE("event " + std::to_string(i));
    EXPECT_EQ(events[i].bank, all[i].bank);
    EXPECT_EQ(events[i].tile, all[i].tile);
    EXPECT_EQ(events[i].phase, all[i].phase);
    EXPECT_EQ(events[i].start_cycle, all[i].start_cycle);
    EXPECT_EQ(events[i].end_cycle, all[i].end_cycle);
  }
}

// Runs `cfg` at event caps 0, 256 and 2^30 and checks that they agree.
// Returns the fully walked run (or nothing when the config is refused).
std::optional<CycleSimResult> expect_caps_agree(const AcceleratorReport& rep,
                                                AcceleratorConfig cfg,
                                                const std::string& what) {
  SCOPED_TRACE(what);
  cfg.cycle_max_events = kAllEvents;
  const Outcome all = run(rep, cfg);
  for (long cap : {0L, 256L}) {
    cfg.cycle_max_events = cap;
    const Outcome some = run(rep, cfg);
    EXPECT_EQ(some.codes, all.codes) << "cap " << cap;
    if (!some.result || !all.result) {
      EXPECT_EQ(some.result.has_value(), all.result.has_value());
      continue;
    }
    expect_same(*some.result, *all.result, "cap " + std::to_string(cap));
    expect_prefix(some.result->events, all.result->events, cap);
    EXPECT_LE(some.walked_tiles, all.walked_tiles);
  }
  if (all.result) {
    // Recording every event walks every tile.
    EXPECT_EQ(all.walked_tiles, all.result->total_tiles);
  }
  return all.result;
}

AcceleratorConfig base() {
  AcceleratorConfig c;
  c.cmos_node_nm = 45;
  c.crossbar_size = 128;
  c.interconnect_node_nm = 45;
  c.cycle_enabled = true;
  return c;
}

AcceleratorConfig unconstrained() {
  AcceleratorConfig c = base();
  c.cycle_ifmap_kb = 1e5;
  c.cycle_filter_kb = 1e5;
  c.cycle_ofmap_kb = 1e5;
  c.cycle_bandwidth_gbps = 1e6;
  return c;
}

nn::Network generated(std::uint32_t seed) {
  nn::GeneratorOptions opt;
  opt.seed = seed;
  opt.min_layers = 3;
  opt.max_width = 512;
  return nn::random_network(opt);
}

// Every dataflow, fill policy, bandwidth, clock and sizing of one report.
void expect_grid_agrees(const AcceleratorReport& rep, const std::string& tag) {
  for (bool roomy : {false, true}) {
    for (Dataflow dataflow :
         {Dataflow::kWeightStationary, Dataflow::kInputStationary,
          Dataflow::kOutputStationary}) {
      for (FillPolicy policy : {FillPolicy::kPrefetch, FillPolicy::kDemand}) {
        for (double gbps : {0.05, 8.0, 1e6}) {
          for (double ghz : {0.0, 1.0}) {
            AcceleratorConfig cfg = roomy ? unconstrained() : base();
            cfg.cycle_dataflow = dataflow;
            cfg.cycle_fill_policy = policy;
            cfg.cycle_bandwidth_gbps = gbps;
            cfg.cycle_clock_ghz = ghz;
            (void)expect_caps_agree(
                rep, cfg,
                tag + (roomy ? "/roomy/" : "/default/") +
                    dataflow_name(dataflow) + "/" +
                    (policy == FillPolicy::kDemand ? "demand/" : "prefetch/") +
                    std::to_string(gbps) + "GBps/" + std::to_string(ghz) +
                    "GHz");
          }
        }
      }
    }
  }
}

TEST(CycleDifferential, Vgg16) {
  expect_grid_agrees(simulate_accelerator(nn::make_vgg16(), base()), "vgg16");
}

TEST(CycleDifferential, CaffeNet) {
  expect_grid_agrees(simulate_accelerator(nn::make_caffenet(), base()),
                     "caffenet");
}

TEST(CycleDifferential, GeneratedNetworks) {
  for (std::uint32_t seed : {3u, 7u, 11u, 19u}) {
    expect_grid_agrees(simulate_accelerator(generated(seed), base()),
                       "gen" + std::to_string(seed));
  }
}

TEST(CycleDifferential, FastForwardCoversTheVgg16CaseStudy) {
  // With the default event cap the walk covers only the recorded tiles,
  // tile 0 of each bank and the few tiles that fit neither closed form.
  const auto rep = simulate_accelerator(nn::make_vgg16(), base());
  const Outcome out = run(rep, base());
  ASSERT_TRUE(out.result.has_value());
  EXPECT_EQ(out.result->total_tiles, 137791);
  EXPECT_LT(out.walked_tiles, out.result->total_tiles / 100);
}

// ---- Hand-built reports ---------------------------------------------------
//
// Pinned 1 GHz clock and an unconstrained bus: a pass of L ns is L
// compute cycles, and every fill and drain is one cycle.

struct BankSpec {
  long tiles;
  long warmup;
  long pass_cycles;
};

AcceleratorReport hand_built(const std::vector<BankSpec>& specs) {
  AcceleratorReport rep;
  rep.banks.resize(specs.size());
  for (std::size_t b = 0; b < specs.size(); ++b) {
    BankReport& bank = rep.banks[b];
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

AcceleratorConfig pinned() {
  AcceleratorConfig c = unconstrained();
  c.cycle_clock_ghz = 1.0;
  return c;
}

// How each tile k > 0 of streamed bank `b` is scheduled, recomputed from
// the fully recorded events and the dependency rule: 'S' self-paced
// (dep(k) <= e(k-1)), 'B' dependency-bound (dep(k) >= de(k-1)), 'N'
// neither.
std::string tile_kinds(const AcceleratorReport& rep, const CycleSimResult& r,
                       std::size_t b) {
  std::vector<long> up_drain, end, drain_end;
  for (const TileEvent& e : r.events) {
    if (b > 0 && e.bank == static_cast<int>(b) - 1 &&
        e.phase == TilePhase::kDrain)
      up_drain.push_back(e.end_cycle);
    if (e.bank != static_cast<int>(b)) continue;
    if (e.phase == TilePhase::kCompute) end.push_back(e.end_cycle);
    if (e.phase == TilePhase::kDrain) drain_end.push_back(e.end_cycle);
  }
  const long tiles = rep.banks[b].iterations;
  const long up = b > 0 ? rep.banks[b - 1].iterations : 0;
  const long warmup = b > 0 ? std::min(rep.banks[b - 1].warmup_passes, up) : 0;
  const long streamed = std::max(up - warmup, 0L);
  std::string kinds;
  for (long k = 1; k < tiles; ++k) {
    const long needed = warmup + k * streamed / (tiles - 1);
    const long dep =
        needed > 0 ? up_drain[static_cast<std::size_t>(needed - 1)] : 0;
    const auto prev = static_cast<std::size_t>(k - 1);
    kinds += dep <= end[prev] ? 'S' : dep >= drain_end[prev] ? 'B' : 'N';
  }
  return kinds;
}

double share(const std::string& kinds, std::size_t from, std::size_t to,
             char kind) {
  return static_cast<double>(
             std::count(kinds.begin() + static_cast<long>(from),
                        kinds.begin() + static_cast<long>(to), kind)) /
         static_cast<double>(to - from);
}

TEST(CycleDifferential, CarryPatternNearOneHalf) {
  // D / den = 100/200, 100/201 and 100/199: the upstream index advances
  // on about every other tile, so the bank alternates between a
  // dependency-bound tile (new upstream tile) and a self-paced one.
  for (long tiles : {201L, 202L, 200L}) {
    const auto rep = hand_built({{101, 1, 1000}, {tiles, 1, 300}});
    const auto all = expect_caps_agree(rep, pinned(),
                                       "tiles " + std::to_string(tiles));
    ASSERT_TRUE(all.has_value());
    const std::string kinds = tile_kinds(rep, *all, 1);
    EXPECT_GT(share(kinds, 0, kinds.size(), 'S'), 0.4) << kinds;
    EXPECT_GT(share(kinds, 0, kinds.size(), 'B'), 0.4) << kinds;
  }
}

TEST(CycleDifferential, SelfPacedThenDependencyBound) {
  const auto rep = hand_built({{200, 1, 1000}, {400, 1, 100}, {100, 1, 2000}});
  const auto all = expect_caps_agree(rep, pinned(), "S then B");
  ASSERT_TRUE(all.has_value());
  const std::string kinds = tile_kinds(rep, *all, 2);
  const std::size_t quarter = kinds.size() / 4;
  EXPECT_GT(share(kinds, 0, quarter, 'S'), 0.9) << kinds;
  EXPECT_GT(share(kinds, kinds.size() - quarter, kinds.size(), 'B'), 0.9)
      << kinds;
}

TEST(CycleDifferential, DependencyBoundThenSelfPaced) {
  const auto rep =
      hand_built({{200, 1, 1000}, {1000, 10, 100}, {100, 1, 2000}});
  const auto all = expect_caps_agree(rep, pinned(), "B then S");
  ASSERT_TRUE(all.has_value());
  const std::string kinds = tile_kinds(rep, *all, 2);
  const std::size_t quarter = kinds.size() / 4;
  EXPECT_GT(share(kinds, 0, quarter, 'B'), 0.6) << kinds;
  EXPECT_GT(share(kinds, kinds.size() - quarter, kinds.size(), 'S'), 0.6)
      << kinds;
}

TEST(CycleDifferential, SupplyAroundTheBanksPeriod) {
  // At 8 bytes a cycle a fill takes f = 8 cycles and a drain d = 4, so
  // T = cpt + 12. Bank 1 reads one new upstream tile per tile, so its
  // dependency advances by the upstream period T0 = T1 + delta and lands
  // delta + 4 cycles after the previous compute ends: self-paced with
  // equality at delta = -4, inside the drain (neither form) for
  // delta = -3..-1, and dependency-bound with equality at delta = 0.
  AcceleratorConfig cfg = pinned();
  cfg.cycle_bandwidth_gbps = 8.0;
  for (long delta = -6; delta <= 2; ++delta) {
    const auto rep = hand_built({{300, 1, 500 + delta}, {300, 1, 500}});
    const auto all =
        expect_caps_agree(rep, cfg, "delta " + std::to_string(delta));
    ASSERT_TRUE(all.has_value());
    ASSERT_EQ(all->banks[1].compute_cycles_per_tile, 500);
    const std::string kinds = tile_kinds(rep, *all, 1);
    if (delta >= 0) {
      EXPECT_EQ(kinds, std::string(kinds.size(), 'B')) << delta;
    } else if (delta >= -3) {
      EXPECT_EQ(kinds.front(), 'N') << delta;
    }
  }
}

TEST(CycleDifferential, OneTileBanks) {
  (void)expect_caps_agree(
      hand_built({{1, 1, 500}, {1, 1, 700}, {50, 1, 300}, {1, 1, 200},
                  {30, 0, 100}, {1, 5, 900}}),
      pinned(), "one-tile banks");
}

TEST(CycleDifferential, ZeroTileBanksBetweenBanks) {
  // A bank after a zero-tile bank has no upstream tile to wait for.
  (void)expect_caps_agree(
      hand_built({{40, 1, 300}, {0, 1, 300}, {60, 3, 200}, {0, 0, 100},
                  {0, 1, 100}, {25, 1, 400}}),
      pinned(), "zero-tile banks");
}

TEST(CycleDifferential, WarmupAtOrPastTheUpstreamTiles) {
  // warmup >= the upstream's tiles: every tile needs all of them (D = 0).
  for (long warmup : {50L, 51L, 1000L}) {
    (void)expect_caps_agree(
        hand_built({{50, warmup, 300}, {80, warmup, 100}, {30, 1, 700}}),
        pinned(), "warmup " + std::to_string(warmup));
  }
}

TEST(CycleDifferential, StretchTestsPastTwoToThe63) {
  // 4.2e15 cycles of work over 3e5 tiles, just inside the MN-CYC-004
  // bound of 4.5e15; the banks overlap to a makespan of 1.5e15 cycles,
  // so den * cycles passes 2^63 in the stretch tests. Bank 1 is slower
  // than bank 0 (self-paced, proven by the affine bound); bank 2 is
  // faster than bank 1 (dependency-bound).
  const auto rep = hand_built({{100000, 1, 13'000'000'000L},
                               {100000, 1, 15'000'000'000L},
                               {100000, 1, 14'000'000'000L}});
  AcceleratorConfig cfg = pinned();
  cfg.cycle_max_events = 0;
  const Outcome fast = run(rep, cfg);
  ASSERT_TRUE(fast.result.has_value());
  EXPECT_GT(fast.result->makespan_cycles, 1'000'000'000'000'000L);
  EXPECT_LT(fast.walked_tiles, 10);
  (void)expect_caps_agree(rep, cfg, "near the cycle-domain bound");
}

// ---- Timing differential --------------------------------------------------

TEST(CycleDifferential, NoStallMakespanMatchesTraceOnRandomNetworks) {
  // The ≤1% cycle-vs-trace makespan budget of
  // CycleSim.NoStallMatchesTraceMakespan, over seeded random networks
  // with scratchpads and bandwidth that never bind.
  long tiles = 0;
  for (std::uint32_t seed = 1; seed <= 24; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    nn::GeneratorOptions opt;
    opt.seed = seed;
    opt.min_layers = 3;
    const auto rep = simulate_accelerator(nn::random_network(opt), base());
    const auto trace = simulate_trace(rep, 0);
    const auto cyc = simulate_cycles(rep, unconstrained());
    ASSERT_GT(trace.makespan, 0.0);
    EXPECT_NEAR(cyc.makespan_seconds, trace.makespan, 0.01 * trace.makespan);
    EXPECT_EQ(cyc.total_tiles, trace.total_passes);
    tiles += cyc.total_tiles;
  }
  EXPECT_GT(tiles, 10000);  // the seeds include convolutional networks
}

}  // namespace
}  // namespace mnsim::arch