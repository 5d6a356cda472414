// Differential tests of the cycle engine's stretch scheduling.
//
// simulate_cycles schedules a streamed bank a stretch of tiles at a time
// (self-paced stretches, and dependency-bound ones over an upstream run
// each) but walks tile by tile while events are still being recorded.
// So the same report and config run at Max_Events 0, 256 and 2^30 take
// the fast path almost everywhere, partly, and nowhere: every
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
#include <array>
#include <functional>
#include <optional>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "arch/cycle_sim.hpp"
#include "arch/trace_sim.hpp"
#include "check/diagnostic.hpp"
#include "dse/space.hpp"
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
  long stretches = 0;
};

Outcome run(const AcceleratorReport& rep, const AcceleratorConfig& cfg) {
  obs::Registry& reg = obs::Registry::global();
  const long walked_before = reg.counter("cycle.walked_tiles");
  const long stretches_before = reg.counter("cycle.stretches");
  Outcome out;
  try {
    out.result = simulate_cycles(rep, cfg);
  } catch (const check::CheckError& e) {
    for (const auto& d : e.diagnostics()) out.codes.push_back(d.code);
  }
  out.walked_tiles = reg.counter("cycle.walked_tiles") - walked_before;
  out.stretches = reg.counter("cycle.stretches") - stretches_before;
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
  // tile 0 of each bank and the few tiles that fit neither closed form,
  // and a handful of stretches a bank covers the rest.
  const auto rep = simulate_accelerator(nn::make_vgg16(), base());
  const Outcome out = run(rep, base());
  ASSERT_TRUE(out.result.has_value());
  EXPECT_EQ(out.result->total_tiles, 137791);
  EXPECT_LT(out.walked_tiles, out.result->total_tiles / 100);
  EXPECT_LT(out.stretches, 4 * static_cast<long>(rep.banks.size()));
}

TEST(CycleDifferential, Vgg16OverTheCnnDesignSpace) {
  // VGG-16 at every crossbar size and parallelism degree of the Table VI
  // sweep (45 nm, 8-bit outputs, default scratchpads): every field agrees
  // at every cap. Crossbars of 128-512 with parallelism below 128 are
  // where banks 3, 5, 6 and 9 read upstream runs with repeated indices;
  // a 1024 x 1024 cell image does not fit the filter scratchpad.
  const dse::DesignSpace space = dse::DesignSpace::paper_cnn();
  const nn::Network vgg = nn::make_vgg16();
  for (int size : space.crossbar_sizes) {
    for (int parallelism : space.parallelism_degrees) {
      if (parallelism > size) continue;
      AcceleratorConfig cfg = base();
      cfg.crossbar_size = size;
      cfg.parallelism = parallelism;
      cfg.output_bits = 8;
      const std::string what = "size " + std::to_string(size) +
                               " parallelism " + std::to_string(parallelism);
      const auto all = expect_caps_agree(simulate_accelerator(vgg, cfg), cfg,
                                         what);
      if (size == 1024) {
        EXPECT_FALSE(all.has_value()) << what;
        const Outcome refused = run(simulate_accelerator(vgg, cfg), cfg);
        EXPECT_EQ(refused.codes, std::vector<std::string>(
                                     refused.codes.size(), "MN-CYC-003"))
            << what;
        EXPECT_FALSE(refused.codes.empty()) << what;
      } else {
        EXPECT_TRUE(all.has_value()) << what;
      }
    }
  }
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

// A chain in VGG-16's pool / conv pattern: `pools` times a bank that
// reads about four upstream tiles per tile (D/den ~ 4) followed by
// `convs` banks that read about one (D/den ~ 0.98, one repeated index
// every ~50 tiles), each pass `cpt(b)` cycles.
template <typename Cycles>
AcceleratorReport pool_conv_chain(int pools, int convs, Cycles cpt) {
  std::vector<BankSpec> specs;
  long tiles = 40000;
  specs.push_back({tiles, 1, cpt(0)});
  for (int p = 0; p < pools; ++p) {
    tiles /= 4;
    specs.push_back({tiles, 4, cpt(static_cast<int>(specs.size()))});
    for (int c = 0; c < convs; ++c)
      specs.push_back({tiles, std::max<long>(tiles / 50, 1),
                       cpt(static_cast<int>(specs.size()))});
  }
  return hand_built(specs);
}

TEST(CycleDifferential, PoolConvChains) {
  // Twelve-bank chains with every bank a little slower, a little faster,
  // or exactly as fast as the one before (a repeated index then lands
  // one period after its predecessor, the edge of the stretch proofs),
  // and seeded mixes.
  const std::vector<std::pair<std::string, std::function<long(int)>>> shapes =
      {{"equal", [](int) { return 300L; }},
       {"slower", [](int b) { return 300L + b; }},
       {"faster", [](int b) { return 300L - b; }},
       {"pool-slow", [](int b) { return b % 3 == 1 ? 1100L : 280L; }}};
  for (const auto& [name, cpt] : shapes) {
    (void)expect_caps_agree(pool_conv_chain(4, 2, cpt), pinned(), name);
  }
  std::mt19937 rng(29);
  for (int draw = 0; draw < 6; ++draw) {
    std::vector<long> cycles;
    for (int b = 0; b < 13; ++b)
      cycles.push_back(std::uniform_int_distribution<long>(200, 420)(rng));
    (void)expect_caps_agree(
        pool_conv_chain(
            4, 2, [&](int b) { return cycles[static_cast<std::size_t>(b)]; }),
        pinned(), "seeded " + std::to_string(draw));
  }
}

TEST(CycleDifferential, RepeatedIndicesAroundOneHalf) {
  // D/den just below 1/2 puts two repeated indices next to each other
  // (groups of three tiles); just above, they alternate with single
  // tiles. Chained, so that a bank reads another bank's repeats.
  for (long tiles : {199L, 200L, 201L, 202L}) {
    for (long cpt : {290L, 300L, 310L}) {
      const auto rep = hand_built({{400, 1, 700},
                                   {tiles, 300, 300},
                                   {tiles, 2, cpt},
                                   {2 * tiles, 100, cpt},
                                   {tiles, 5, 300}});
      (void)expect_caps_agree(rep, pinned(),
                              "tiles " + std::to_string(tiles) + " cpt " +
                                  std::to_string(cpt));
    }
  }
}

TEST(CycleDifferential, StretchProofAtItsEdge) {
  // Bank 0 is self-paced, one affine run rising by T0 = 100 a tile, and
  // bank 1 reads exactly four of its tiles a tile (D = 4 den): the proof
  // needs 4 T0 >= T1. Bank 2 reads bank 1 with D < den, two tiles to a
  // repeated index: it needs a rise of 2 T2 per index, or T2 between its
  // own repeats. T1 and T2 sit one cycle either side of each edge.
  for (long t1 : {399L, 400L, 401L}) {
    for (long t2 : {199L, 200L, 201L, 399L, 400L, 401L}) {
      const auto rep = hand_built(
          {{4001, 1, 98}, {1001, 1, t1 - 2}, {1001, 20, t2 - 2}});
      const auto all = expect_caps_agree(
          rep, pinned(),
          "T1 " + std::to_string(t1) + " T2 " + std::to_string(t2));
      ASSERT_TRUE(all.has_value());
      ASSERT_EQ(all->banks[1].compute_cycles_per_tile, t1 - 2);
    }
  }
}

TEST(CycleDifferential, StretchProofAtItsEdgeWithLittleSlack) {
  // Bank 1 runs 100 tiles of period 99 per bank-0 tile of period 9905,
  // so its avail comes in affine bursts five cycles apart. Bank 2 reads
  // four of those tiles a tile: at T2 = 4 * 99 it keeps pace inside a
  // burst, and one cycle slower it uses up the five cycles of slack a
  // burst starts with after five tiles.
  for (long t2 : {395L, 396L, 397L, 398L}) {
    const auto rep = hand_built(
        {{40, 1, 9903}, {3901, 1, 97}, {976, 1, t2 - 2}, {976, 20, 300}});
    (void)expect_caps_agree(rep, pinned(), "T2 " + std::to_string(t2));
  }
}

TEST(CycleDifferential, PoolOverAConvOfNearlyEqualPeriod) {
  // Found by random chains: bank 5 reads about two tiles of bank 4 a
  // tile (D/den = 608/318, floor 1) at a period one cycle longer than
  // bank 4's, so its proof, a rise of T over floor(D/den) indices from
  // the upstream run or from the upstream period, sits at its edge.
  (void)expect_caps_agree(hand_built({{640, 27, 323},
                                      {640, 1437, 322},
                                      {640, 26, 326},
                                      {640, 19, 322},
                                      {640, 32, 324},
                                      {319, 14, 325}}),
                          pinned(), "fuzzed chain");
}

TEST(CycleDifferential, GroupsOfThreeAtSlowTransfers) {
  // Found by random chains, at 8 bytes a cycle (fills of 8 cycles,
  // drains of 4): the last bank reads D/den = 1961/2995 of a bank that
  // reads 944/1985 of its own upstream, so its upstream groups hold up to
  // three indices, and the start of the next group needs more than either
  // end of the group suggests: the T_up of one repeat plus the tiles of
  // the two indices after it.
  AcceleratorConfig cfg = pinned();
  cfg.cycle_bandwidth_gbps = 8.0;
  (void)expect_caps_agree(hand_built({{2737, 442, 616},
                                      {2225, 28, 661},
                                      {976, 32, 463},
                                      {1986, 25, 394},
                                      {2996, 39, 248}}),
                          cfg, "five banks");
  (void)expect_caps_agree(hand_built({{2844, 24, 76},
                                      {237, 1, 474},
                                      {948, 45, 701},
                                      {1422, 2, 418},
                                      {237, 31, 45},
                                      {948, 45, 421},
                                      {1422, 40, 301},
                                      {711, 613, 692}}),
                          cfg, "eight banks");
}

TEST(CycleDifferential, SeededRandomChains) {
  // Two to nine banks of up to 3,000 tiles in five shapes (independent
  // sizes; equal sizes; pool-like quarters; periods within four cycles
  // of each other; sizes alternating about a factor of two), warm-ups
  // up to past the upstream's tiles, and transfers of one to 128 cycles:
  // the shapes in which repeated indices here and upstream, groups of
  // several indices and near-equal periods meet.
  std::mt19937_64 rng(4);
  const auto draw = [&](long lo, long hi) {
    return std::uniform_int_distribution<long>(lo, hi)(rng);
  };
  for (int chain = 0; chain < 1000; ++chain) {
    const int shape = static_cast<int>(draw(0, 4));
    const long base = draw(1, 3000);
    std::vector<BankSpec> specs;
    for (long b = 0, banks = draw(2, 9); b < banks; ++b) {
      long tiles = shape == 0 ? draw(0, 3000) : base;
      if (shape == 2 && b % 3 == 1) tiles = std::max(1L, base / 4);
      if (shape == 4) tiles = b % 2 ? base : 2 * base + draw(-3, 3);
      const long warmup = draw(0, 3) == 0 ? draw(0, tiles + 5) : draw(1, 50);
      long cpt = shape == 3 ? 300 + draw(-4, 4) : draw(1, 800);
      if (draw(0, 5) == 0) cpt = draw(1, 5);
      specs.push_back({tiles, warmup, cpt});
    }
    AcceleratorConfig cfg = pinned();
    cfg.cycle_bandwidth_gbps = std::array{0.5, 2.0, 8.0, 64.0, 1e6}[
        static_cast<std::size_t>(draw(0, 4))];
    (void)expect_caps_agree(hand_built(specs), cfg,
                            "chain " + std::to_string(chain));
  }
}

// Every bank streamed (neither operand resident): the recurrence of the
// StreamedBank comment, tile by tile, with f = d = 1 at an unconstrained
// bus; a bank's warm-up is what the next bank waits for, as in the
// report. Returns each bank's finish cycle, dependency and fill stalls.
std::vector<std::array<long, 3>> streamed_recurrence(
    const std::vector<BankSpec>& specs) {
  std::vector<std::array<long, 3>> out;
  std::vector<long> up;
  long up_warmup = 0;  // the upstream bank's warm-up passes
  for (const BankSpec& spec : specs) {
    const long up_tiles = static_cast<long>(up.size());
    const long warmup = std::min(up_warmup, up_tiles);
    const long streamed = up_tiles - warmup;
    up_warmup = spec.warmup;
    const long den = std::max<long>(spec.tiles - 1, 1);
    std::vector<long> avail(static_cast<std::size_t>(spec.tiles));
    long e = 0, de = 0, dep_stall = 0, fill_stall = 0;
    for (long k = 0; k < spec.tiles; ++k) {
      const long share = spec.tiles == 1 ? streamed
                                         : static_cast<long>(
                                               static_cast<__int128>(k) *
                                               streamed / den);
      const long needed = warmup + share;
      const long dep =
          needed > 0 ? up[static_cast<std::size_t>(needed - 1)] : 0;
      const long ready = std::max(e, dep);
      const long fill_end = std::max(dep, de) + 1;
      if (k > 0) {
        dep_stall += ready - e;
        fill_stall += fill_end - ready;
      }
      e = fill_end + spec.pass_cycles;
      de = e + 1;
      avail[static_cast<std::size_t>(k)] = de;
    }
    out.push_back({e, dep_stall, fill_stall});
    up = std::move(avail);
  }
  return out;
}

TEST(CycleDifferential, MillionTileBanksAgainstTheRecurrence) {
  // Banks of millions of tiles, each a little faster than the one
  // before, so that banks 1-3 are resampled runs: reading bank 1 at an
  // index near 3e6 takes a floor whose dividend times den passes 2^64,
  // where the multiply and shift give way to 128-bit division. Too many
  // tiles to record every event, so the oracle is the recurrence.
  const std::vector<BankSpec> specs = {{3'000'000, 1, 20},
                                       {2'999'000, 40, 18},
                                       {750'000, 4, 60},
                                       {749'000, 300, 60}};
  const std::vector<std::array<long, 3>> expected = streamed_recurrence(specs);
  AcceleratorConfig cfg = pinned();
  cfg.cycle_max_events = 0;
  const Outcome out = run(hand_built(specs), cfg);
  ASSERT_TRUE(out.result.has_value());
  for (std::size_t b = 0; b < specs.size(); ++b) {
    SCOPED_TRACE("bank " + std::to_string(b));
    EXPECT_EQ(out.result->banks[b].finish_cycle, expected[b][0]);
    EXPECT_EQ(out.result->banks[b].dependency_stall_cycles, expected[b][1]);
    EXPECT_EQ(out.result->banks[b].fill_stall_cycles, expected[b][2]);
  }
  EXPECT_LT(out.walked_tiles + out.stretches, 100000);
}

// Runs `specs` at caps 0 and 256 and checks every bank against the
// tile-by-tile recurrence: for chains too long to record every event.
void expect_recurrence(const std::vector<BankSpec>& specs,
                       const std::string& what) {
  SCOPED_TRACE(what);
  const std::vector<std::array<long, 3>> expected = streamed_recurrence(specs);
  const AcceleratorReport rep = hand_built(specs);
  AcceleratorConfig cfg = pinned();
  cfg.cycle_max_events = 0;
  const Outcome fast = run(rep, cfg);
  cfg.cycle_max_events = 256;
  const Outcome some = run(rep, cfg);
  ASSERT_TRUE(fast.result.has_value());
  ASSERT_TRUE(some.result.has_value());
  expect_same(*fast.result, *some.result, "cap 256");
  for (std::size_t b = 0; b < specs.size(); ++b) {
    SCOPED_TRACE("bank " + std::to_string(b));
    EXPECT_EQ(fast.result->banks[b].finish_cycle, expected[b][0]);
    EXPECT_EQ(fast.result->banks[b].dependency_stall_cycles, expected[b][1]);
    EXPECT_EQ(fast.result->banks[b].fill_stall_cycles, expected[b][2]);
  }
}

TEST(CycleDifferential, PoolJustBelowAnIntegerShare) {
  // A pool bank that reads D/den = 3.998 upstream tiles a tile at a period
  // of 87 cycles, between three (72) and four (96) upstream periods of 24:
  // the steps that advance three indices set no new maximum of h, the
  // others do. Full size against the recurrence, and a hundredth of it
  // (about the same share, the same periods) at every cap.
  expect_recurrence(
      {{3'000'000, 1, 20}, {3'000'000, 1500, 22}, {750'000, 4, 85}},
      "3e6 / 3e6 / 7.5e5 tiles");
  (void)expect_caps_agree(
      hand_built({{30'000, 1, 20}, {30'000, 15, 22}, {7'500, 4, 85}}),
      pinned(), "3e4 / 3e4 / 7.5e3 tiles");
}

// A chain of `banks` banks of `tiles` tiles each, with warm-ups of 1-40
// upstream tiles (so D/den just below 1: a repeated index every few
// hundred to few thousand tiles) and passes of 300-303 cycles, or one
// cycle longer a bank (`ramp`).
std::vector<BankSpec> near_equal_chain(int banks, long tiles, unsigned seed,
                                       bool ramp) {
  std::mt19937 rng(seed);
  std::vector<BankSpec> specs;
  for (int b = 0; b < banks; ++b) {
    const long cpt =
        ramp ? 300L + b : std::uniform_int_distribution<long>(300, 303)(rng);
    specs.push_back(
        {tiles, std::uniform_int_distribution<long>(1, 40)(rng), cpt});
  }
  return specs;
}

TEST(CycleDifferential, LongChainsOfNearlyEqualPeriods) {
  // 40- and 120-bank chains whose periods differ by up to three cycles:
  // most banks turn from self-paced to dependency-bound or back somewhere,
  // and each reads an upstream run with repeated indices. Full size
  // (20,000 tiles a bank) against the recurrence, a tenth of it at every
  // cap, and a chain of banks each one cycle slower than the one before.
  for (int banks : {40, 120}) {
    const std::string what = std::to_string(banks) + " banks";
    expect_recurrence(near_equal_chain(banks, 20000, 5u + banks, false),
                      what);
    (void)expect_caps_agree(
        hand_built(near_equal_chain(banks, 2000, 5u + banks, false)),
        pinned(), what + ", 2000 tiles");
  }
  (void)expect_caps_agree(hand_built(near_equal_chain(120, 2000, 9u, true)),
                          pinned(), "ramp");
}

TEST(CycleDifferential, ChainsNearTheCycleDomainBound) {
  // A pool / conv chain whose cycle counts reach ~1e15 (the MN-CYC-004
  // bound is 4.5e15): the resampled runs' values, rises and stall sums
  // run at the top of the integer cycle domain, and a rise bound scaled
  // by an index count saturates instead of passing 2^63.
  const auto rep = hand_built({{20000, 1, 50'000'000'000L},
                               {5000, 4, 190'000'000'000L},
                               {5000, 100, 200'000'000'000L},
                               {5000, 100, 200'000'000'001L},
                               {1250, 4, 210'000'000'000L},
                               {1250, 25, 209'000'000'000L}});
  AcceleratorConfig cfg = pinned();
  cfg.cycle_max_events = 0;
  const Outcome fast = run(rep, cfg);
  ASSERT_TRUE(fast.result.has_value());
  EXPECT_GT(fast.result->makespan_cycles, 1'000'000'000'000'000L);
  (void)expect_caps_agree(rep, cfg, "near the cycle-domain bound");
}

TEST(CycleDifferential, GeneratedNetworksOverTheCnnDesignSpace) {
  // Seeded networks at the crossbar sizes and parallelism degrees the
  // Table VI sweep visits: every report, every cap agrees.
  const dse::DesignSpace space = dse::DesignSpace::paper_cnn();
  // Seeds whose networks are convolutional, 1k-11k tiles each.
  for (std::uint32_t seed : {1u, 13u, 20u, 33u, 38u}) {
    nn::GeneratorOptions opt;
    opt.seed = seed;
    opt.min_layers = 4;
    opt.max_layers = 9;
    opt.max_width = 512;
    const nn::Network net = nn::random_network(opt);
    for (int size : space.crossbar_sizes) {
      for (int parallelism : {1, 8, 0}) {
        if (parallelism > size) continue;
        AcceleratorConfig cfg = base();
        cfg.crossbar_size = size;
        cfg.parallelism = parallelism;
        cfg.output_bits = 8;
        (void)expect_caps_agree(
            simulate_accelerator(net, cfg), cfg,
            "seed " + std::to_string(seed) + " size " + std::to_string(size) +
                " parallelism " + std::to_string(parallelism));
      }
    }
  }
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