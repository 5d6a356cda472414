#include "accuracy/digital_error.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <random>

#include "util/fp.hpp"

namespace mnsim::accuracy {
namespace {

TEST(DigitalError, PaperExampleK64Eps10Percent) {
  // Paper Sec. VI-C: k = 64, eps = 10 % -> MaxDigitalDeviation = 6, i.e.
  // the maximum value 63 can be wrongly read as 57.
  EXPECT_EQ(max_digital_deviation(64, 0.10), 6);
  EXPECT_NEAR(max_error_rate(64, 0.10), 6.0 / 63.0, 1e-12);
}

TEST(DigitalError, Equation12Floors) {
  EXPECT_EQ(max_digital_deviation(256, 0.0), 0);
  EXPECT_EQ(max_digital_deviation(256, 0.01), 3);  // floor(254.5*0.01+0.5)
  EXPECT_EQ(max_digital_deviation(2, 0.5), 0);     // floor(0.5*0.5+0.5)
}

TEST(DigitalError, NegativeEpsTreatedAsMagnitude) {
  EXPECT_EQ(max_digital_deviation(64, -0.10), 6);
  EXPECT_DOUBLE_EQ(avg_digital_deviation(64, -0.10),
                   avg_digital_deviation(64, 0.10));
}

TEST(DigitalError, AverageDeviationFormula) {
  // k = 4, eps = 0.5: per-level deviations floor(i*0.5+0.5) = 0,1,1,2.
  EXPECT_DOUBLE_EQ(avg_digital_deviation(4, 0.5), (0 + 1 + 1 + 2) / 4.0);
  EXPECT_DOUBLE_EQ(avg_error_rate(4, 0.5), 1.0 / 3.0);
}

TEST(DigitalError, AverageBelowMax) {
  for (double eps : {0.01, 0.05, 0.1, 0.2}) {
    for (int k : {16, 64, 256}) {
      EXPECT_LE(avg_error_rate(k, eps), max_error_rate(k, eps) + 1e-12)
          << "k=" << k << " eps=" << eps;
    }
  }
}

TEST(DigitalError, ZeroEpsilonIsExact) {
  EXPECT_EQ(max_digital_deviation(256, 0.0), 0);
  EXPECT_DOUBLE_EQ(avg_error_rate(256, 0.0), 0.0);
}

TEST(DigitalError, InvalidKThrows) {
  EXPECT_THROW(max_digital_deviation(1, 0.1), std::invalid_argument);
  EXPECT_THROW(avg_digital_deviation(0, 0.1), std::invalid_argument);
}

TEST(Propagation, Equation15Compounds) {
  // (1 + 0.02)(1 + 0.03) - 1 = 0.0506.
  EXPECT_NEAR(propagate_error(0.02, 0.03), 0.0506, 1e-12);
  EXPECT_DOUBLE_EQ(propagate_error(0.0, 0.0), 0.0);
}

TEST(Propagation, NegativeRatesThrow) {
  EXPECT_THROW(propagate_error(-0.1, 0.0), std::invalid_argument);
  EXPECT_THROW(propagate_error(0.0, -0.1), std::invalid_argument);
}

TEST(Propagation, LayerChainMatchesClosedForm) {
  std::vector<double> eps = {0.01, 0.02, 0.03};
  auto chain = propagate_layers(eps);
  ASSERT_EQ(chain.size(), 3u);
  EXPECT_NEAR(chain[0], 0.01, 1e-12);
  EXPECT_NEAR(chain[2], 1.01 * 1.02 * 1.03 - 1.0, 1e-12);
  // Monotone non-decreasing.
  EXPECT_LE(chain[0], chain[1]);
  EXPECT_LE(chain[1], chain[2]);
}

TEST(Propagation, SixteenLayerVggStyleAccumulation) {
  // Per-layer ~2.3 % compounds to ~44 % over 16 layers (paper Table VI
  // ballpark).
  std::vector<double> eps(16, 0.023);
  const double total = propagate_layers(eps).back();
  EXPECT_NEAR(total, std::pow(1.023, 16) - 1.0, 1e-9);
  EXPECT_GT(total, 0.40);
  EXPECT_LT(total, 0.50);
}

// Parameterized sweep: digital error rates are monotone in eps.
class DigitalMonotone : public ::testing::TestWithParam<int> {};

TEST_P(DigitalMonotone, ErrorRatesMonotoneInEps) {
  const int k = GetParam();
  double prev_max = -1.0;
  double prev_avg = -1.0;
  for (double eps = 0.0; eps <= 0.3; eps += 0.01) {
    EXPECT_GE(max_error_rate(k, eps), prev_max);
    EXPECT_GE(avg_error_rate(k, eps) + 1e-12, prev_avg);
    prev_max = max_error_rate(k, eps);
    prev_avg = avg_error_rate(k, eps);
  }
}

INSTANTIATE_TEST_SUITE_P(Levels, DigitalMonotone,
                         ::testing::Values(4, 16, 64, 256, 1024));

// --- closed form against the definition --------------------------------------
// Eq. 14 as written: one floor per level, summed in a double.
double direct_avg_deviation(int k, double eps) {
  if (eps < 0) eps = -eps;
  double sum = 0.0;
  for (int i = 0; i < k; ++i) sum += std::floor(i * eps + 0.5);
  return sum / k;
}

// Seeded differential: every (k, eps) case must give the loop's bits, for
// avg_digital_deviation and for avg_error_rate. The cases cover eps = 0,
// tiny eps, half-integer ties (m + 0.5) / i and their neighbouring
// doubles, the breakpoint-sparse and level-dense regimes, eps >= 1,
// negative eps, and magnitudes large enough that the terms leave the
// exact-integer range and the per-level loop is taken.
TEST(DigitalError, ClosedFormMatchesPerLevelLoopBitForBit) {
  std::mt19937_64 rng(20161);
  std::uniform_int_distribution<int> levels(2, 4096);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  long cases = 0;
  long differ = 0;
  const auto check = [&](int k, double eps) {
    ++cases;
    const double want = direct_avg_deviation(k, eps);
    const double got = avg_digital_deviation(k, eps);
    const double want_rate = want / (k - 1);
    const double got_rate = avg_error_rate(k, eps);
    if (std::bit_cast<std::uint64_t>(got) !=
            std::bit_cast<std::uint64_t>(want) ||
        std::bit_cast<std::uint64_t>(got_rate) !=
            std::bit_cast<std::uint64_t>(want_rate)) {
      if (++differ <= 5)
        ADD_FAILURE() << "k = " << k << ", eps = " << std::hexfloat << eps
                      << ": " << got << " vs " << want;
    }
  };
  for (int k : {2, 3, 4, 255, 256, 4096}) {
    for (double eps : {0.0, -0.0, 1e-300, 0.5, 1.0, 1.5, 2.0, 0x1p40,
                       0x1p52, 0x1p900})
      check(k, eps);
  }
  for (int n = 0; n < 120000; ++n) {
    const int k = levels(rng);
    double eps = 0.0;
    switch (n % 8) {
      case 0:  // the model's range: a few percent to tens of percent
        eps = 0.3 * unit(rng);
        break;
      case 1:  // fewer steps than levels / 8 and more
        eps = std::ldexp(unit(rng), -static_cast<int>(rng() % 16));
        break;
      case 2: {  // a tie: i * eps + 0.5 lands on an integer
        const int i = 1 + static_cast<int>(rng() % static_cast<unsigned>(k));
        const long m = static_cast<long>(rng() % (2 * static_cast<unsigned>(k)));
        eps = (static_cast<double>(m) + 0.5) / i;
        break;
      }
      case 3: {  // one double either side of a tie
        const int i = 1 + static_cast<int>(rng() % static_cast<unsigned>(k));
        const double tie = (static_cast<double>(rng() % 64) + 0.5) / i;
        eps = std::nextafter(tie, (rng() & 1) ? 0.0 : 1e9);
        break;
      }
      case 4:  // eps >= 1: a step at every level
        eps = 1.0 + 15.0 * unit(rng);
        break;
      case 5:  // negative eps reads as its magnitude
        eps = -unit(rng);
        break;
      case 6:  // up to and past the exact-integer range
        eps = std::ldexp(unit(rng), static_cast<int>(rng() % 64));
        break;
      default:  // exactly zero, or a small multiple of 1/k
        eps = (rng() % 4 == 0) ? 0.0
                               : static_cast<double>(rng() % 8) / k;
        break;
    }
    check(k, eps);
  }
  EXPECT_GE(cases, 100000);
  EXPECT_EQ(differ, 0) << "of " << cases << " cases";
}

// A non-finite eps takes the definition, NaN and all.
TEST(DigitalError, NonFiniteEpsFollowsTheLoop) {
  const util::fpe_guard probing_non_finite;
  EXPECT_TRUE(std::isnan(avg_digital_deviation(16, std::nan(""))));
  EXPECT_TRUE(std::isnan(avg_digital_deviation(
      16, std::numeric_limits<double>::infinity())));
}

}  // namespace
}  // namespace mnsim::accuracy
