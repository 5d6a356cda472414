#include "spice/mna.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <random>
#include <string>

#include "spice/crossbar_netlist.hpp"

namespace mnsim::spice {
namespace {

// Root of f on [lo, hi] (f(lo), f(hi) of opposite sign) by plain
// bisection: an oracle independent of the Newton/MNA path. Stops when
// |f(x)| < 1e-12 or the bracket is within 1e-12 of |x|.
template <class F>
double bisect(const F& f, double lo, double hi) {
  const bool lo_positive = f(lo) > 0;
  double x = 0.5 * (lo + hi);
  for (int it = 0; it < 200; ++it) {
    const double fx = f(x);
    if (std::fabs(fx) < 1e-12 || hi - lo < 1e-12 * std::fabs(x)) break;
    ((fx > 0) == lo_positive ? lo : hi) = x;
    x = 0.5 * (lo + hi);
  }
  return x;
}

TEST(Mna, VoltageDividerExact) {
  Netlist nl;
  NodeId top = nl.add_node();
  NodeId mid = nl.add_node();
  nl.add_source(top, 1.0);
  nl.add_resistor(top, mid, 100.0);
  nl.add_resistor(mid, kGround, 300.0);
  auto dc = solve_dc(nl);
  ASSERT_TRUE(dc.converged);
  EXPECT_NEAR(dc.voltage(mid), 0.75, 1e-10);
  EXPECT_NEAR(dc.voltage(top), 1.0, 1e-12);
  EXPECT_DOUBLE_EQ(dc.voltage(kGround), 0.0);
}

TEST(Mna, ResistorLadderMatchesAnalytic) {
  // 1 V into N equal series resistors to ground: linear voltage profile.
  constexpr int kStages = 10;
  Netlist nl;
  std::vector<NodeId> nodes;
  for (int i = 0; i < kStages; ++i) nodes.push_back(nl.add_node());
  nl.add_source(nodes[0], 1.0);
  for (int i = 0; i + 1 < kStages; ++i)
    nl.add_resistor(nodes[i], nodes[i + 1], 50.0);
  nl.add_resistor(nodes.back(), kGround, 50.0);
  auto dc = solve_dc(nl);
  ASSERT_TRUE(dc.converged);
  for (int i = 0; i < kStages; ++i)
    EXPECT_NEAR(dc.voltage(nodes[i]),
                1.0 * (kStages - i) / kStages, 1e-9);
}

TEST(Mna, TwoSourcesSuperpose) {
  // Star: two sources into a common node through equal resistors plus a
  // ground leg -> common node at (V1 + V2)/3.
  Netlist nl;
  NodeId a = nl.add_node();
  NodeId b = nl.add_node();
  NodeId mid = nl.add_node();
  nl.add_source(a, 0.9);
  nl.add_source(b, 0.3);
  nl.add_resistor(a, mid, 1000.0);
  nl.add_resistor(b, mid, 1000.0);
  nl.add_resistor(mid, kGround, 1000.0);
  auto dc = solve_dc(nl);
  EXPECT_NEAR(dc.voltage(mid), (0.9 + 0.3) / 3.0, 1e-10);
}

TEST(Mna, NonlinearMemristorMatchesBisection) {
  // Source -> series resistor -> memristor to ground. Compare the MNA
  // operating point against an independent scalar root-find.
  auto device = tech::default_rram();
  Netlist nl(device);
  NodeId in = nl.add_node();
  NodeId mid = nl.add_node();
  const double vin = device.v_read.value();
  const double r_series = 200.0;
  const double r_state = 800.0;
  nl.add_source(in, vin);
  nl.add_resistor(in, mid, r_series);
  nl.add_memristor(mid, kGround, r_state);

  auto dc = solve_dc(nl);
  ASSERT_TRUE(dc.converged);
  EXPECT_GT(dc.newton_iterations, 1);

  auto f = [&](double v) {
    return (vin - v) / r_series -
           device.current(units::Ohms{r_state}, units::Volts{v}).value();
  };
  EXPECT_NEAR(dc.voltage(mid), bisect(f, 0.0, vin), 1e-8);
}

TEST(Mna, LinearFlagUsesProgrammedResistance) {
  auto device = tech::default_rram();
  Netlist nl(device);
  NodeId in = nl.add_node();
  NodeId mid = nl.add_node();
  nl.add_source(in, device.v_read.value());
  nl.add_resistor(in, mid, 500.0);
  nl.add_memristor(mid, kGround, 500.0);
  nl.set_linear_memristors(true);
  auto dc = solve_dc(nl);
  ASSERT_TRUE(dc.converged);
  EXPECT_EQ(dc.newton_iterations, 1);
  EXPECT_NEAR(dc.voltage(mid), device.v_read.value() / 2.0, 1e-10);
}

TEST(Mna, NonlinearCellConductsMoreThanLinear) {
  auto device = tech::default_rram();
  auto run = [&](bool linear) {
    Netlist nl(device);
    NodeId in = nl.add_node();
    NodeId mid = nl.add_node();
    nl.add_source(in, device.v_read.value());
    nl.add_resistor(in, mid, 500.0);
    nl.add_memristor(mid, kGround, 500.0);
    nl.set_linear_memristors(linear);
    return solve_dc(nl).voltage(mid);
  };
  // sinh conducts more at voltage: the cell node sits lower.
  EXPECT_LT(run(false), run(true));
}

TEST(Mna, SourcePowerEqualsDissipation) {
  Netlist nl;
  NodeId in = nl.add_node();
  NodeId mid = nl.add_node();
  nl.add_source(in, 1.0);
  nl.add_resistor(in, mid, 100.0);
  nl.add_resistor(mid, kGround, 100.0);
  auto dc = solve_dc(nl);
  // P = V^2 / R_total = 1 / 200.
  EXPECT_NEAR(total_source_power(nl, dc), 1.0 / 200.0, 1e-12);
}

TEST(Mna, MemristorCurrentSignConvention) {
  auto device = tech::default_rram();
  Netlist nl(device);
  NodeId in = nl.add_node();
  nl.add_source(in, device.v_read.value());
  nl.add_memristor(in, kGround, 1e3, "m");
  auto dc = solve_dc(nl);
  EXPECT_GT(memristor_current(nl, nl.memristors()[0], dc), 0.0);
}

TEST(Mna, FloatingNetlistStillSolves) {
  // A node connected only through resistors to a pinned node.
  Netlist nl;
  NodeId a = nl.add_node();
  NodeId b = nl.add_node();
  nl.add_source(a, 0.5);
  nl.add_resistor(a, b, 1.0);
  nl.add_resistor(b, kGround, 1.0);
  EXPECT_NO_THROW(solve_dc(nl));
}


void expect_same_bits(const std::vector<double>& got,
                      const std::vector<double>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i)
    ASSERT_EQ(std::bit_cast<std::uint64_t>(got[i]),
              std::bit_cast<std::uint64_t>(want[i]))
        << "index " << i;
}

// A driven resistive grid: `order` permutes the resistor insertion
// order, `shift` rewires the horizontal links one node further (same
// element count, a different pattern).
Netlist grid(const std::vector<std::size_t>& order, int shift) {
  constexpr int kSide = 5;
  Netlist nl;
  std::vector<NodeId> node;
  for (int i = 0; i < kSide * kSide; ++i) node.push_back(nl.add_node());
  struct Link {
    NodeId a, b;
    double ohms;
  };
  std::vector<Link> links;
  for (int r = 0; r < kSide; ++r)
    for (int c = 0; c < kSide; ++c) {
      const int i = r * kSide + c;
      const int right = r * kSide + (c + 1 + shift) % kSide;
      if (right != i) links.push_back({node[i], node[right], 10.0 + i});
      if (r + 1 < kSide) links.push_back({node[i], node[i + kSide], 7.0 + c});
      links.push_back({node[i], kGround, 1000.0 + 3.0 * i});
    }
  for (std::size_t k = 0; k < links.size(); ++k) {
    const Link& l = links[order.empty() ? k : order[k]];
    nl.add_resistor(l.a, l.b, l.ohms);
  }
  nl.add_memristor(node[6], node[18], 2500.0);
  nl.add_source(node[0], 0.3);
  nl.add_source(node[kSide * kSide - 1], 0.1);
  return nl;
}

// A cache primed on one stamp sequence and reused on a netlist with the
// same element count but another sequence: the refill verifies every
// scatter slot and falls back to the column search (permuted order), or
// rebuilds when a stamp leaves the pattern (rewired). Either way the
// result is bit-identical to a fresh solve.
TEST(Mna, CacheReuseOnRewiredNetlistMatchesFreshSolve) {
  const Netlist base = grid({}, 0);
  MnaCache cache;
  (void)solve_dc(base, {}, &cache);
  ASSERT_TRUE(cache.pattern_valid);

  std::vector<std::size_t> order(base.resistors().size());
  for (std::size_t k = 0; k < order.size(); ++k) order[k] = k;
  std::mt19937 rng(7);
  std::shuffle(order.begin(), order.end(), rng);
  const Netlist permuted = grid(order, 0);
  ASSERT_EQ(permuted.resistors().size(), base.resistors().size());
  MnaCache reused = cache;
  const DcResult refilled = solve_dc(permuted, {}, &reused);
  EXPECT_GT(refilled.diagnostics.cache_hits, 0);  // refilled, not rebuilt
  expect_same_bits(refilled.node_voltages, solve_dc(permuted).node_voltages);

  const Netlist rewired = grid({}, 1);
  ASSERT_EQ(rewired.resistors().size(), base.resistors().size());
  reused = cache;
  const DcResult rebuilt = solve_dc(rewired, {}, &reused);
  expect_same_bits(rebuilt.node_voltages, solve_dc(rewired).node_voltages);
  // The re-primed cache now serves the rewired netlist from its map.
  const DcResult again = solve_dc(rewired, {}, &reused);
  EXPECT_GT(again.diagnostics.cache_hits, 0);
  expect_same_bits(again.node_voltages, rebuilt.node_voltages);
}

// The O(S x E) definition total_source_power used to evaluate directly:
// for each source, scan every element for the current leaving its node.
double source_power_reference(const Netlist& nl, const DcResult& dc) {
  double power = 0.0;
  for (const auto& s : nl.sources()) {
    double i_out = 0.0;
    for (const auto& r : nl.resistors()) {
      if (r.a == s.node)
        i_out += (dc.voltage(r.a) - dc.voltage(r.b)) / r.ohms;
      else if (r.b == s.node)
        i_out += (dc.voltage(r.b) - dc.voltage(r.a)) / r.ohms;
    }
    for (const auto& m : nl.memristors()) {
      if (m.a == s.node)
        i_out += memristor_current(nl, m, dc);
      else if (m.b == s.node)
        i_out -= memristor_current(nl, m, dc);
    }
    power += s.volts * i_out;
  }
  return power;
}

TEST(Mna, SourcePowerMatchesPerSourceScanBitForBit) {
  std::mt19937 rng(11);
  for (int trial = 0; trial < 20; ++trial) {
    Netlist nl;
    nl.set_linear_memristors(trial % 2 == 0);
    const int nodes = 6 + trial;
    for (int i = 0; i < nodes; ++i) (void)nl.add_node();
    std::uniform_int_distribution<int> pick(0, nodes);
    std::uniform_real_distribution<double> ohms(50.0, 5e4);
    // Several pinned nodes, so elements joining two of them occur.
    std::vector<NodeId> pinned;
    for (NodeId n = 1; n <= nodes; n += 3) {
      nl.add_source(n, 0.05 * n - 0.2);
      pinned.push_back(n);
    }
    nl.add_resistor(pinned[0], pinned[1], 123.0);
    nl.add_memristor(pinned[1], pinned[0], 4.5e3);
    for (NodeId n = 1; n <= nodes; ++n) nl.add_resistor(n, kGround, ohms(rng));
    for (int e = 0; e < 3 * nodes; ++e) {
      const NodeId a = pick(rng);
      const NodeId b = pick(rng);
      if (a == b) continue;
      if (e % 3 == 0)
        nl.add_memristor(a, b, ohms(rng));
      else
        nl.add_resistor(a, b, ohms(rng));
    }
    const DcResult dc = solve_dc(nl);
    const double got = total_source_power(nl, dc);
    const double want = source_power_reference(nl, dc);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got),
              std::bit_cast<std::uint64_t>(want))
        << "trial " << trial << ": " << got << " vs " << want;
  }
}

// --- crossbars: assembly straight into the Schur rung's chain system -------

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

CrossbarSpec seeded_crossbar(int size, bool linear, std::mt19937& rng) {
  const auto device = tech::default_rram();
  CrossbarSpec spec = CrossbarSpec::uniform(size, size, device, 0.3, 60.0,
                                            device.r_min.value());
  std::uniform_real_distribution<double> siemens(
      1.0 / device.r_max.value(), 1.0 / device.r_min.value());
  std::uniform_real_distribution<double> volts(0.0, device.v_read.value());
  for (auto& row : spec.cell_resistance)
    for (double& r : row) r = 1.0 / siemens(rng);
  for (double& v : spec.input_voltages) v = volts(rng);
  spec.linear_memristors = linear;
  return spec;
}

// The chain system holds, at every slot, the value the CSR refill of the
// same stamps holds, bit for bit: first assemblies and the ones resumed
// from the wire-only snapshot, DC and one backward-Euler step, at seeded
// iterates. Neither the right-hand side nor A x differs in a bit.
TEST(MnaChains, StampsMatchTheCsrRefillBitForBit) {
  std::mt19937 rng(21);
  for (const int size : {8, 24, 64})
    for (const bool linear : {false, true})
      for (const double cap : {0.0, 2e-15}) {
        SCOPED_TRACE(std::to_string(size) + (linear ? " linear" : "") +
                     (cap > 0 ? " step" : ""));
        CrossbarSpec spec = seeded_crossbar(size, linear, rng);
        spec.segment_capacitance = cap;
        const Netlist nl = build_crossbar_netlist(spec, nullptr);
        const auto nodes = static_cast<std::size_t>(nl.node_count()) + 1;
        std::uniform_real_distribution<double> volts(-0.1, 0.4);
        std::vector<std::vector<double>> iterates(3);
        for (auto& v : iterates) {
          v.resize(nodes);
          for (double& x : v) x = volts(rng);
        }
        std::vector<double> previous(nodes);
        for (double& x : previous) x = volts(rng);
        const double dt = cap > 0 ? 1e-12 : 0.0;

        DcOptions generic;
        generic.allow_schur = false;
        MnaCache csr;
        MnaCache chains;
        prime_cache(nl, generic, csr);
        prime_cache(nl, {}, chains);
        ASSERT_TRUE(chains.system.assembled());
        for (std::size_t k = 1; k <= iterates.size(); ++k) {
          const std::vector<std::vector<double>> run(
              iterates.begin(), iterates.begin() + static_cast<long>(k));
          expect_same_bits(assemble_newton(nl, {}, run, chains, dt, &previous),
                           assemble_newton(nl, generic, run, csr, dt,
                                           &previous));
          const numeric::CsrMatrix& a = csr.matrix;
          for (std::size_t r = 0; r < a.size(); ++r)
            for (std::size_t e = a.row_start()[r]; e < a.row_start()[r + 1];
                 ++e) {
              const auto v = chains.system.value(r, a.cols()[e]);
              ASSERT_TRUE(v.has_value()) << r << "," << a.cols()[e];
              ASSERT_EQ(bits(*v), bits(a.values()[e])) << r << "," << e;
            }
          std::vector<double> x(a.size());
          for (double& xi : x) xi = volts(rng);
          std::vector<double> want;
          std::vector<double> got;
          a.multiply(x, want);
          chains.system.multiply(x, got);
          expect_same_bits(got, want);
        }
        EXPECT_FALSE(chains.pattern_valid);
      }
}

// Wrong wire metadata never changes an answer: every linear solve counts
// a schur_reject and the result is bit for bit the generic ladder's.
TEST(MnaChains, WrongWireStructureRejectsToTheGenericLadder) {
  std::mt19937 rng(33);
  for (int trial = 0; trial < 6; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    const int size = std::uniform_int_distribution<int>(6, 20)(rng);
    const Netlist built =
        build_crossbar_netlist(seeded_crossbar(size, trial % 2 == 1, rng),
                               nullptr);
    Netlist nl = built;
    WireStructure ws = nl.wire_structure();
    std::uniform_int_distribution<int> pick(0, size - 2);
    const auto k = static_cast<std::size_t>(pick(rng));
    auto& chains = trial % 3 == 2 ? ws.col_chains : ws.row_chains;
    if (trial % 3 == 1) {
      // A row chain and a column chain swapped.
      std::swap(ws.row_chains[k],
                ws.col_chains[static_cast<std::size_t>(pick(rng))]);
    } else {
      // A chain boundary shifted by one node.
      chains[k].push_back(chains[k + 1].front());
      chains[k + 1].erase(chains[k + 1].begin());
    }
    nl.set_wire_structure(ws);

    DcOptions generic;
    generic.allow_schur = false;
    const DcResult want = solve_dc(nl, generic);
    ASSERT_TRUE(want.converged);
    MnaCache cache;
    for (int solve = 0; solve < 2; ++solve) {
      const DcResult got = solve_dc(nl, {}, &cache);
      EXPECT_EQ(got.diagnostics.schur_rejects, got.newton_iterations);
      EXPECT_EQ(got.diagnostics.schur_solves, 0);
      EXPECT_EQ(got.newton_iterations, want.newton_iterations);
      EXPECT_EQ(bits(got.diagnostics.linear_residual),
                bits(want.diagnostics.linear_residual));
      expect_same_bits(got.node_voltages, want.node_voltages);
    }
    // The rejected solves ran on a CSR pattern.
    EXPECT_TRUE(cache.pattern_valid);
    EXPECT_TRUE(cache.system.broken());
  }
}

// A cache whose chain system was laid out for one crossbar and is then
// handed a rewired one (a cell moved to another column) misses its cell
// slots, lays the structure out afresh and solves bit for bit like a
// fresh solve.
TEST(MnaChains, RewiredNetlistOnAnAssembledChainSystemMatchesFreshSolve) {
  std::mt19937 rng(17);
  const Netlist base = build_crossbar_netlist(seeded_crossbar(8, false, rng),
                                              nullptr);
  Netlist rewired(base.device());
  for (int n = 0; n < base.node_count(); ++n) (void)rewired.add_node();
  for (const auto& r : base.resistors()) rewired.add_resistor(r.a, r.b, r.ohms);
  const auto& cells = base.memristors();
  for (std::size_t k = 0; k < cells.size(); ++k) {
    // Cell 0 joins row tap (0,0) to column tap (0,1) instead of (0,0).
    const NodeId b = k == 0 ? cells[1].b : cells[k].b;
    rewired.add_memristor(cells[k].a, b, cells[k].r_state);
  }
  for (const auto& src : base.sources())
    rewired.add_source(src.node, src.volts);
  rewired.set_wire_structure(base.wire_structure());

  MnaCache cache;
  (void)solve_dc(base, {}, &cache);
  ASSERT_TRUE(cache.system.assembled());
  const DcResult got = solve_dc(rewired, {}, &cache);
  const DcResult want = solve_dc(rewired);
  EXPECT_EQ(got.diagnostics.schur_solves, got.newton_iterations);
  EXPECT_FALSE(cache.pattern_valid);
  expect_same_bits(got.node_voltages, want.node_voltages);
}

// An accepted crossbar solve never builds the CSR pattern; a forced reject
// (a starved Schur iteration) builds it and still converges.
TEST(MnaChains, AcceptedCrossbarSolveLeavesNoCsrPattern) {
  std::mt19937 rng(9);
  const CrossbarSpec spec = seeded_crossbar(16, false, rng);
  CrossbarSolveCache cache;
  for (int solve = 0; solve < 2; ++solve) {
    const CrossbarSolution sol = solve_crossbar(spec, {}, &cache);
    ASSERT_TRUE(sol.dc.converged);
    EXPECT_EQ(sol.dc.diagnostics.schur_solves, sol.dc.newton_iterations);
    EXPECT_EQ(sol.dc.diagnostics.schur_rejects, 0);
  }
  EXPECT_TRUE(cache.mna.system.assembled());
  EXPECT_FALSE(cache.mna.pattern_valid);
  EXPECT_EQ(cache.mna.matrix.size(), 0u);

  DcOptions starved;
  starved.cg_tolerance = 1e-30;
  CrossbarSolveCache rejected;
  const CrossbarSolution sol = solve_crossbar(spec, starved, &rejected);
  EXPECT_GT(sol.dc.diagnostics.schur_rejects, 0);
  EXPECT_EQ(sol.dc.diagnostics.schur_solves, 0);
  EXPECT_TRUE(rejected.mna.pattern_valid);
  EXPECT_GT(rejected.mna.matrix.size(), 0u);
}

// A CrossbarSolveCache's solves start from the wire-only snapshot an
// earlier solve kept and skip validate(); reprogrammed with new inputs
// and cells, every solve is bit for bit a cold one.
TEST(MnaChains, ReprogrammedCacheMatchesColdSolvesBitForBit) {
  std::mt19937 rng(41);
  for (const bool linear : {false, true}) {
    SCOPED_TRACE(linear ? "linear" : "nonlinear");
    CrossbarSolveCache cache;
    for (int round = 0; round < 4; ++round) {
      const CrossbarSpec spec = seeded_crossbar(12, linear, rng);
      const CrossbarSolution got = solve_crossbar(spec, {}, &cache);
      const CrossbarSolution want = solve_crossbar(spec);
      ASSERT_TRUE(cache.mna.reprogrammed_only);
      EXPECT_TRUE(cache.mna.system.has_base());
      EXPECT_EQ(got.dc.newton_iterations, want.dc.newton_iterations);
      EXPECT_EQ(bits(got.dc.diagnostics.linear_residual),
                bits(want.dc.diagnostics.linear_residual));
      EXPECT_EQ(bits(got.total_power), bits(want.total_power));
      expect_same_bits(got.dc.node_voltages, want.dc.node_voltages);
    }
  }
}

}  // namespace
}  // namespace mnsim::spice
