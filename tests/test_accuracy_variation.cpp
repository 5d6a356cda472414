#include "accuracy/variation.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <random>

#include "spice/crossbar_netlist.hpp"
#include "util/parallel.hpp"

namespace mnsim::accuracy {
namespace {

CrossbarErrorInputs make(double sigma) {
  CrossbarErrorInputs in;
  in.rows = 12;
  in.cols = 12;
  in.device = tech::default_rram();
  in.device.sigma = sigma;
  in.segment_resistance = mnsim::units::Ohms{0.022};
  in.sense_resistance = mnsim::units::Ohms{60.0};
  return in;
}

VariationMcOptions fast() {
  VariationMcOptions o;
  o.trials = 15;
  return o;
}

TEST(VariationMc, MeanBelowClosedFormBound) {
  // Eq. 16 is a worst-case bound: the Monte-Carlo mean (uniform
  // deviations) must stay below it.
  auto r = variation_monte_carlo(make(0.2), fast());
  EXPECT_GT(r.closed_form_bound, 0.0);
  EXPECT_LT(r.mean_error, r.closed_form_bound);
  EXPECT_GE(r.max_error, r.mean_error);
  EXPECT_EQ(r.samples.size(), 15u);
}

TEST(VariationMc, LargerSigmaLargerSpread) {
  auto small = variation_monte_carlo(make(0.05), fast());
  auto large = variation_monte_carlo(make(0.3), fast());
  EXPECT_GT(large.closed_form_bound, small.closed_form_bound);
  EXPECT_GT(large.max_error, small.max_error);
}

TEST(VariationMc, DeterministicForSeed) {
  auto a = variation_monte_carlo(make(0.2), fast());
  auto b = variation_monte_carlo(make(0.2), fast());
  ASSERT_EQ(a.samples.size(), b.samples.size());
  for (std::size_t i = 0; i < a.samples.size(); ++i)
    EXPECT_DOUBLE_EQ(a.samples[i], b.samples[i]);
  VariationMcOptions other = fast();
  other.seed = 1234;
  auto c = variation_monte_carlo(make(0.2), other);
  EXPECT_NE(a.samples.front(), c.samples.front());
}

TEST(VariationMc, ScoresWorstColumnNotJustLast) {
  // Regression: each trial must report the max relative error over ALL
  // columns. Variation is i.i.d. per cell, so on an asymmetric crossbar
  // the worst column is usually not the far (last) one the wire
  // analysis singles out — the old last-column-only scoring
  // under-reported those trials.
  CrossbarErrorInputs in = make(0.3);
  in.rows = 6;
  in.cols = 10;
  VariationMcOptions opt;
  opt.trials = 10;
  const auto r = variation_monte_carlo(in, opt);

  // Re-run the published per-trial streams through an independent solve
  // and recompute both scorings.
  auto spec = spice::CrossbarSpec::uniform(
      in.rows, in.cols, in.device, in.segment_resistance.value(),
      in.sense_resistance.value(), in.device.r_min.value());
  const auto v_ideal = spice::ideal_column_outputs(spec);
  int worst_not_last = 0;
  for (int t = 0; t < opt.trials; ++t) {
    std::mt19937 rng(util::derive_stream_seed(opt.seed,
                                              static_cast<std::uint64_t>(t)));
    std::uniform_real_distribution<double> dev(1.0 - in.device.sigma,
                                               1.0 + in.device.sigma);
    for (auto& row : spec.cell_resistance)
      for (double& cell : row)
        cell = in.device.r_min.value() * dev(rng);
    const auto sol = spice::solve_crossbar(spec);
    double worst = 0.0;
    std::size_t worst_col = 0;
    for (std::size_t j = 0; j < v_ideal.size(); ++j) {
      const double e = std::fabs(
          (v_ideal[j] - sol.column_output_voltage[j]) / v_ideal[j]);
      if (e > worst) {
        worst = e;
        worst_col = j;
      }
    }
    EXPECT_NEAR(r.samples[static_cast<std::size_t>(t)], worst,
                1e-6 * worst);
    if (worst_col + 1 != v_ideal.size()) ++worst_not_last;
  }
  // With 10 columns and 10 trials the last column is essentially never
  // the worst every time; this is what the old code got wrong.
  EXPECT_GT(worst_not_last, 0);
}

TEST(VariationMc, RejectsZeroSigmaAndBadTrials) {
  EXPECT_THROW(variation_monte_carlo(make(0.0), fast()),
               std::invalid_argument);
  auto o = fast();
  o.trials = 0;
  EXPECT_THROW(variation_monte_carlo(make(0.2), o), std::invalid_argument);
}

}  // namespace
}  // namespace mnsim::accuracy
