// Tests for the metrics registry: counter/gauge/histogram semantics,
// disabled no-op behavior, JSON export validity, and the absorption
// contract — the global registry aggregates exactly what the per-result
// SolverDiagnostics counters report, summed across solves.
#include "obs/metrics.hpp"

#include <gtest/gtest.h>

#include <string>

#include "sim/json_report.hpp"
#include "spice/mna.hpp"
#include "util/parallel.hpp"

namespace mnsim::obs {
namespace {

TEST(Metrics, CountersGaugesHistogramsBasics) {
  Registry reg;
  EXPECT_TRUE(reg.empty());
  EXPECT_EQ(reg.counter("absent"), 0);

  reg.add("runs");
  reg.add("runs", 4);
  reg.set("load", 0.5);
  reg.set("load", 0.75);  // last write wins
  reg.observe("residual", 2.0);
  reg.observe("residual", 6.0);
  reg.observe("residual", 4.0);

  EXPECT_FALSE(reg.empty());
  EXPECT_EQ(reg.counter("runs"), 5);
  EXPECT_DOUBLE_EQ(reg.gauges().at("load"), 0.75);
  const Registry::Histogram h = reg.histograms().at("residual");
  EXPECT_EQ(h.count, 3);
  EXPECT_DOUBLE_EQ(h.sum, 12.0);
  EXPECT_DOUBLE_EQ(h.min, 2.0);
  EXPECT_DOUBLE_EQ(h.max, 6.0);

  reg.reset();
  EXPECT_TRUE(reg.empty());
  EXPECT_EQ(reg.counter("runs"), 0);
}

TEST(Metrics, DisabledProducersAreNoOps) {
  Registry reg;
  reg.set_enabled(false);
  reg.add("runs");
  reg.set("load", 1.0);
  reg.observe("residual", 1.0);
  EXPECT_TRUE(reg.empty());
  EXPECT_FALSE(reg.enabled());

  reg.set_enabled(true);
  reg.add("runs");
  EXPECT_EQ(reg.counter("runs"), 1);
}

TEST(Metrics, JsonExportIsValidAndComplete) {
  Registry reg;
  reg.add("spice.solves", 7);
  reg.set("sweep.progress", 0.25);
  reg.observe("spice.linear_residual", 1e-12);
  reg.observe("spice.linear_residual", 3e-12);

  const std::string json = reg.to_json();
  const auto numbers = sim::parse_json_numbers(json);
  EXPECT_DOUBLE_EQ(numbers.at("counters.spice.solves"), 7.0);
  EXPECT_DOUBLE_EQ(numbers.at("gauges.sweep.progress"), 0.25);
  EXPECT_DOUBLE_EQ(numbers.at("histograms.spice.linear_residual.count"),
                   2.0);
  EXPECT_DOUBLE_EQ(numbers.at("histograms.spice.linear_residual.sum"),
                   4e-12);
  EXPECT_DOUBLE_EQ(numbers.at("histograms.spice.linear_residual.min"),
                   1e-12);
  EXPECT_DOUBLE_EQ(numbers.at("histograms.spice.linear_residual.max"),
                   3e-12);
}

TEST(Metrics, EmptyRegistryStillExportsValidJson) {
  Registry reg;
  EXPECT_NO_THROW(sim::parse_json_numbers(reg.to_json()));
}

// Regression for a torn registry snapshot: an export used to copy the
// counter, gauge and histogram maps via three separate lock
// acquisitions, so a rendered block could pair a counter with a
// histogram from a different instant. With the single-lock snapshot()
// the invariant below is exact: pre-registration puts the histogram one
// observation ahead, and the writer bumps the counter *before* observing
// into the histogram, so every export must satisfy
// hist.count - 1 <= counter <= hist.count, no matter when it lands
// relative to the writer.
TEST(Metrics, JsonSnapshotIsConsistent) {
  Registry reg;
  reg.add("pair.count", 0);     // pre-register both metrics so every
  reg.observe("pair.obs", 0.0);  // export has both entries to compare
  constexpr long kWrites = 2000;

  util::ThreadPool pool(3);
  pool.for_each_index(3, [&](std::size_t task, std::size_t) {
    if (task == 0) {
      for (long i = 0; i < kWrites; ++i) {
        reg.add("pair.count");
        reg.observe("pair.obs", 1.0);
      }
    } else {
      for (int i = 0; i < 200; ++i) {
        const auto v = sim::parse_json_numbers(reg.to_json());
        const double counter = v.at("counters.pair.count");
        const double observed = v.at("histograms.pair.obs.count");
        ASSERT_GE(counter, observed - 1);
        ASSERT_LE(counter, observed);
      }
    }
  });

  // Quiescent export agrees with the accessors exactly.
  const auto v = sim::parse_json_numbers(reg.to_json());
  EXPECT_EQ(v.at("counters.pair.count"), kWrites);
  EXPECT_EQ(reg.histograms().at("pair.obs").count, kWrites + 1);
}

// The absorption contract: solve_dc publishes its SolverDiagnostics into
// the global registry, so after N solves the registry counters equal the
// sum of the per-result counters — one snapshot covers the whole run.
TEST(Metrics, GlobalRegistryAbsorbsSolverDiagnostics) {
  Registry& reg = Registry::global();
  reg.set_enabled(true);
  reg.reset();

  spice::Netlist nl;
  const spice::NodeId top = nl.add_node();
  const spice::NodeId mid = nl.add_node();
  nl.add_source(top, 1.0);
  nl.add_resistor(top, mid, 100.0);
  nl.add_memristor(mid, spice::kGround, 300.0);

  constexpr int kSolves = 5;
  long newton = 0;
  long cg = 0;
  for (int i = 0; i < kSolves; ++i) {
    const auto dc = spice::solve_dc(nl);
    ASSERT_TRUE(dc.converged);
    newton += dc.diagnostics.newton_iterations;
    cg += dc.diagnostics.cg_iterations;
  }

  EXPECT_EQ(reg.counter("spice.solves"), kSolves);
  EXPECT_EQ(reg.counter("spice.newton_iterations"), newton);
  EXPECT_EQ(reg.counter("spice.cg_iterations"), cg);
  // Convergence counters stay absent on clean solves rather than
  // cluttering the report with zeros.
  EXPECT_EQ(reg.counter("spice.nonconverged_solves"), 0);
  const auto hists = reg.histograms();
  ASSERT_TRUE(hists.count("spice.linear_residual"));
  EXPECT_EQ(hists.at("spice.linear_residual").count, kSolves);
  reg.reset();
}

// With the registry disabled, solving must publish nothing — the
// [trace] Metrics = false path.
TEST(Metrics, DisabledGlobalRegistrySkipsSolverPublishing) {
  Registry& reg = Registry::global();
  reg.reset();
  reg.set_enabled(false);

  spice::Netlist nl;
  const spice::NodeId top = nl.add_node();
  nl.add_source(top, 1.0);
  nl.add_resistor(top, spice::kGround, 100.0);
  const auto dc = spice::solve_dc(nl);
  ASSERT_TRUE(dc.converged);

  EXPECT_TRUE(reg.empty());
  reg.set_enabled(true);
  reg.reset();
}

}  // namespace
}  // namespace mnsim::obs
