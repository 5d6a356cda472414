#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <string>

#include "arch/accelerator.hpp"
#include "dse/report.hpp"
#include "nn/topologies.hpp"
#include "obs/metrics.hpp"

namespace mnsim::dse {
namespace {

arch::AcceleratorConfig base() {
  arch::AcceleratorConfig c;
  c.cmos_node_nm = 45;
  return c;
}

DesignSpace small_space() {
  DesignSpace s;
  s.crossbar_sizes = {64, 128, 256};
  s.parallelism_degrees = {1, 16, 0};
  s.interconnect_nodes = {28, 45};
  return s;
}

TEST(Space, EnumerationSkipsOversizedParallelism) {
  DesignSpace s;
  s.crossbar_sizes = {8};
  s.parallelism_degrees = {1, 4, 16, 0};  // 16 > 8 dropped
  s.interconnect_nodes = {45};
  EXPECT_EQ(s.enumerate().size(), 3u);
}

TEST(Space, PaperDefaultsCoverPaperSweep) {
  auto pts = DesignSpace::paper_default().enumerate();
  EXPECT_GT(pts.size(), 300u);
  auto cnn = DesignSpace::paper_cnn();
  EXPECT_EQ(cnn.interconnect_nodes.back(), 90);
}

TEST(Explorer, EvaluatesAllPoints) {
  auto net = nn::make_large_bank_layer();
  auto result = explore(net, base(), small_space(), 0.25);
  EXPECT_EQ(result.designs.size(), small_space().enumerate().size());
  EXPECT_GT(result.feasible_count, 0);
  EXPECT_LE(result.feasible_count,
            static_cast<long>(result.designs.size()));
}

TEST(Explorer, ConstraintFiltersInfeasible) {
  auto net = nn::make_large_bank_layer();
  auto strict = explore(net, base(), small_space(), 0.001);
  auto loose = explore(net, base(), small_space(), 0.5);
  EXPECT_LT(strict.feasible_count, loose.feasible_count);
}

TEST(Explorer, BestPerObjectiveIsActuallyBest) {
  auto net = nn::make_large_bank_layer();
  auto result = explore(net, base(), small_space(), 0.25);
  for (Objective o : {Objective::kArea, Objective::kEnergy,
                      Objective::kLatency, Objective::kAccuracy}) {
    auto best = result.best(o);
    ASSERT_TRUE(best.has_value());
    for (const auto& d : result.designs) {
      if (!d.feasible) continue;
      EXPECT_LE(best->metrics.objective_value(o),
                d.metrics.objective_value(o) + 1e-15)
          << "objective " << static_cast<int>(o);
    }
  }
}

TEST(Explorer, AreaOptimalPrefersLargeCrossbarLowParallelism) {
  auto net = nn::make_large_bank_layer();
  auto result = explore(net, base(), small_space(), 0.25);
  auto best = result.best(Objective::kArea);
  ASSERT_TRUE(best.has_value());
  EXPECT_EQ(best->point.crossbar_size, 256);
  EXPECT_EQ(best->point.parallelism, 1);
}

TEST(Explorer, AccuracyOptimalPrefersCoarseWiresMidCrossbar) {
  auto net = nn::make_large_bank_layer();
  auto result = explore(net, base(), small_space(), 0.25);
  auto best = result.best(Objective::kAccuracy);
  ASSERT_TRUE(best.has_value());
  EXPECT_EQ(best->point.interconnect_node, 45);
  EXPECT_LT(best->point.crossbar_size, 256);
}

TEST(Explorer, NoFeasibleReturnsNullopt) {
  auto net = nn::make_large_bank_layer();
  auto result = explore(net, base(), small_space(), 1e-9);
  EXPECT_FALSE(result.best(Objective::kArea).has_value());
}

TEST(Explorer, BudgetConstraintsShrinkFeasibleSet) {
  auto net = nn::make_large_bank_layer();
  Constraints error_only;
  error_only.max_error = 0.25;
  auto loose = explore(net, base(), small_space(), error_only);

  Constraints tight = error_only;
  tight.max_area = 50e-6;  // 50 mm^2
  auto with_area = explore(net, base(), small_space(), tight);
  EXPECT_LT(with_area.feasible_count, loose.feasible_count);
  for (const auto& d : with_area.designs) {
    if (d.feasible) {
      EXPECT_LE(d.metrics.area, 50e-6);
    }
  }

  tight.max_power = 0.5;
  tight.max_latency = 1e-6;
  auto all = explore(net, base(), small_space(), tight);
  EXPECT_LE(all.feasible_count, with_area.feasible_count);
  for (const auto& d : all.designs) {
    if (!d.feasible) continue;
    EXPECT_LE(d.metrics.power, 0.5);
    EXPECT_LE(d.metrics.latency, 1e-6);
  }
}

// explore() runs every point once: a point that fails is recorded, not
// retried, whatever the base config's [sweep] Max_Attempts says.
TEST(Explorer, AllPointsFailingEmitsDiagnosticWithoutRetry) {
  const auto net = nn::make_large_bank_layer();
  const auto banks =
      static_cast<long>(arch::simulate_accelerator(net, base()).banks.size());
  arch::AcceleratorConfig cfg = base();
  cfg.cycle_enabled = true;
  cfg.cycle_filter_kb = 1e-3;  // smaller than any crossbar image
  cfg.sweep_max_attempts = 5;
  const long points = static_cast<long>(small_space().enumerate().size());

  obs::Registry& reg = obs::Registry::global();
  const long banks_before = reg.counter("arch.banks");
  const auto result = explore(net, cfg, small_space(), 0.25);
  // One accelerator simulation per point before its cycle model fails.
  EXPECT_EQ(reg.counter("arch.banks") - banks_before, points * banks);

  ASSERT_EQ(static_cast<long>(result.designs.size()), points);
  EXPECT_EQ(result.failed_count, points);
  EXPECT_EQ(result.feasible_count, 0);
  for (const auto& d : result.designs) {
    EXPECT_FALSE(d.evaluated);
    EXPECT_NE(d.failure.find("[MN-CYC-003]"), std::string::npos) << d.failure;
  }
  ASSERT_EQ(result.diagnostics.size(), 1u);
  EXPECT_EQ(result.diagnostics[0].code, "MN-DSE-006");
  EXPECT_NE(result.diagnostics[0].message.find(
                "(" + std::to_string(points) + " check, 0 numeric, 0 timeout)"),
            std::string::npos)
      << result.diagnostics[0].message;
}

// The network is checked once per sweep. With the pre-flight off, a
// network that fails Network::validate still fails each point with that
// error (a numeric failure, retried like any other), not the whole sweep.
TEST(Explorer, UncheckableNetworkFailsEveryPointWithoutPreflight) {
  nn::Network net = nn::make_large_bank_layer();
  net.input_bits = 0;  // outside 1..16
  arch::AcceleratorConfig cfg = base();
  cfg.check_preflight = false;
  EXPECT_THROW((void)explore(net, base(), small_space(), 0.25),
               check::CheckError);
  const auto result = explore(net, cfg, small_space(), 0.25);
  const long points = static_cast<long>(small_space().enumerate().size());
  ASSERT_EQ(static_cast<long>(result.designs.size()), points);
  EXPECT_EQ(result.failed_count, points);
  for (const auto& d : result.designs)
    EXPECT_NE(d.failure.find("input_bits = 0"), std::string::npos)
        << d.failure;
  ASSERT_EQ(result.diagnostics.size(), 1u);
  EXPECT_NE(result.diagnostics[0].message.find(
                "(0 check, " + std::to_string(points) + " numeric, 0 timeout)"),
            std::string::npos)
      << result.diagnostics[0].message;
}

TEST(Explorer, WritesNoJournal) {
  namespace fs = std::filesystem;
  const fs::path journal =
      fs::temp_directory_path() /
      ("mnsim_explore_journal_" + std::to_string(::getpid()));
  fs::remove(journal);
  arch::AcceleratorConfig cfg = base();
  cfg.sweep_checkpoint = journal.string();
  cfg.sweep_max_attempts = 5;
  const auto result =
      explore(nn::make_large_bank_layer(), cfg, small_space(), 0.25);
  EXPECT_EQ(result.designs.size(), small_space().enumerate().size());
  EXPECT_FALSE(fs::exists(journal));
}

TEST(Explorer, ConstraintsValidate) {
  Constraints c;
  c.max_error = 0.0;
  EXPECT_THROW(c.validate(), std::invalid_argument);
}

TEST(Explorer, ParetoFrontMonotone) {
  auto net = nn::make_large_bank_layer();
  auto result = explore(net, base(), small_space(), 0.25);
  auto front = result.latency_area_pareto();
  ASSERT_GE(front.size(), 2u);
  for (std::size_t i = 1; i < front.size(); ++i) {
    EXPECT_GE(front[i].metrics.latency, front[i - 1].metrics.latency);
    EXPECT_LT(front[i].metrics.area, front[i - 1].metrics.area);
  }
}

TEST(Explorer, ParetoFrontContainsEveryObjectiveOptimum) {
  auto net = nn::make_large_bank_layer();
  auto result = explore(net, base(), small_space(), 0.25);
  auto front = result.pareto_front();
  ASSERT_FALSE(front.empty());
  auto contains = [&](const EvaluatedDesign& d) {
    for (const auto& f : front) {
      if (f.point.crossbar_size == d.point.crossbar_size &&
          f.point.parallelism == d.point.parallelism &&
          f.point.interconnect_node == d.point.interconnect_node)
        return true;
    }
    return false;
  };
  for (Objective o : {Objective::kArea, Objective::kEnergy,
                      Objective::kLatency, Objective::kAccuracy}) {
    EXPECT_TRUE(contains(*result.best(o)));
  }
  // Nothing on the front is dominated by another front member.
  for (const auto& a : front)
    for (const auto& b : front) {
      const bool dominates =
          a.metrics.area <= b.metrics.area &&
          a.metrics.energy_per_sample <= b.metrics.energy_per_sample &&
          a.metrics.latency <= b.metrics.latency &&
          a.metrics.max_error_rate <= b.metrics.max_error_rate &&
          (a.metrics.area < b.metrics.area ||
           a.metrics.energy_per_sample < b.metrics.energy_per_sample ||
           a.metrics.latency < b.metrics.latency ||
           a.metrics.max_error_rate < b.metrics.max_error_rate);
      EXPECT_FALSE(dominates);
    }
}

TEST(Explorer, CompromiseIsFeasibleAndOnFront) {
  auto net = nn::make_large_bank_layer();
  auto result = explore(net, base(), small_space(), 0.25);
  auto comp = result.compromise();
  ASSERT_TRUE(comp.has_value());
  EXPECT_TRUE(comp->feasible);
  // The compromise can never be worse on every axis than any feasible
  // design (it minimizes the normalized geometric mean).
  auto front = result.pareto_front();
  bool on_front = false;
  for (const auto& f : front) {
    if (f.point.crossbar_size == comp->point.crossbar_size &&
        f.point.parallelism == comp->point.parallelism &&
        f.point.interconnect_node == comp->point.interconnect_node)
      on_front = true;
  }
  EXPECT_TRUE(on_front);
}

TEST(Explorer, CompromiseWeightsSteerTheChoice) {
  auto net = nn::make_large_bank_layer();
  auto result = explore(net, base(), small_space(), 0.25);
  ExplorationResult::CompromiseWeights area_heavy;
  area_heavy.area = 100.0;
  auto area_pick = result.compromise(area_heavy);
  ExplorationResult::CompromiseWeights latency_heavy;
  latency_heavy.latency = 100.0;
  auto latency_pick = result.compromise(latency_heavy);
  ASSERT_TRUE(area_pick && latency_pick);
  EXPECT_LE(area_pick->metrics.area, latency_pick->metrics.area);
  EXPECT_LE(latency_pick->metrics.latency, area_pick->metrics.latency);
}

TEST(Explorer, CompromiseZeroReferenceKeepsObjectiveWeight) {
  // Regression: when the best feasible value of an objective is exactly
  // zero, the old normalization mapped EVERY design's ratio on that axis
  // to 1.0 — silently deleting the objective (and its weight) from the
  // score. With the epsilon floor, a heavily weighted zero-reference
  // axis must still dominate the choice.
  ExplorationResult result;
  EvaluatedDesign d0;  // hits the zero latency reference, worse elsewhere
  d0.feasible = true;
  d0.point.crossbar_size = 64;
  d0.metrics.latency = 0.0;
  d0.metrics.area = 2e-6;
  d0.metrics.energy_per_sample = 2e-6;
  d0.metrics.max_error_rate = 0.1;
  EvaluatedDesign d1;  // best on every other axis, nonzero latency
  d1.feasible = true;
  d1.point.crossbar_size = 128;
  d1.metrics.latency = 1e-3;
  d1.metrics.area = 1e-6;
  d1.metrics.energy_per_sample = 1e-6;
  d1.metrics.max_error_rate = 0.05;
  result.designs = {d0, d1};
  result.feasible_count = 2;

  ExplorationResult::CompromiseWeights latency_heavy;
  latency_heavy.latency = 100.0;
  auto pick = result.compromise(latency_heavy);
  ASSERT_TRUE(pick.has_value());
  // The old code neutralized the latency axis and picked d1.
  EXPECT_EQ(pick->point.crossbar_size, d0.point.crossbar_size);
  EXPECT_DOUBLE_EQ(pick->metrics.latency, 0.0);
}

TEST(Explorer, CompromiseRejectsBadWeights) {
  auto net = nn::make_large_bank_layer();
  auto result = explore(net, base(), small_space(), 0.25);
  ExplorationResult::CompromiseWeights negative;
  negative.area = -1.0;
  EXPECT_THROW((void)result.compromise(negative), std::invalid_argument);
  ExplorationResult::CompromiseWeights zeros;
  zeros.area = zeros.energy = zeros.latency = zeros.accuracy = 0.0;
  EXPECT_THROW((void)result.compromise(zeros), std::invalid_argument);
}

TEST(Report, RadarNormalizedToUnitMax) {
  auto net = nn::make_large_bank_layer();
  auto result = explore(net, base(), small_space(), 0.25);
  std::vector<std::pair<std::string, EvaluatedDesign>> named = {
      {"Area", *result.best(Objective::kArea)},
      {"Latency", *result.best(Objective::kLatency)},
  };
  auto radar = normalized_radar(named);
  ASSERT_EQ(radar.size(), 2u);
  double max_speed = 0.0;
  for (const auto& e : radar) {
    EXPECT_GT(e.speed, 0.0);
    EXPECT_LE(e.speed, 1.0);
    EXPECT_LE(e.reciprocal_area, 1.0);
    EXPECT_LE(e.accuracy, 1.0);
    max_speed = std::max(max_speed, e.speed);
  }
  EXPECT_DOUBLE_EQ(max_speed, 1.0);
  // The latency-optimal design is the fastest.
  EXPECT_DOUBLE_EQ(radar[1].speed, 1.0);
}

TEST(Report, OptimaTableRendersAllRows) {
  auto net = nn::make_large_bank_layer();
  auto result = explore(net, base(), small_space(), 0.25);
  const std::string s = format_optima_table(result, "Test Table");
  EXPECT_NE(s.find("Test Table"), std::string::npos);
  EXPECT_NE(s.find("Area (mm^2)"), std::string::npos);
  EXPECT_NE(s.find("Parallelism Degree"), std::string::npos);
}

TEST(Report, EmptyRadarThrows) {
  EXPECT_THROW(normalized_radar({}), std::invalid_argument);
}

}  // namespace
}  // namespace mnsim::dse
