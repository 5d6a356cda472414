// The benchmark's one timing and statistics helper: a monotonic clock,
// median, quartiles, each call's best time over repeated rounds, and a
// percentile reported with its sample count.
// Every workload times its calls through this header.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <stdexcept>
#include <vector>

namespace perfbench {

// Seconds on the monotonic clock (std::chrono::steady_clock).
inline double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Runs `fn` and adds its wall time in seconds to `*seconds`.
template <typename Fn>
decltype(auto) timed(double* seconds, Fn&& fn) {
  struct Stopwatch {
    double* out;
    double t0 = now_seconds();
    ~Stopwatch() { *out += now_seconds() - t0; }
  } watch{seconds};
  return fn();
}

// Quantile `q` in [0, 1] by linear interpolation between closest ranks
// (the "inclusive" definition: q = 0 is the minimum, q = 1 the maximum).
inline double quantile(std::vector<double> values, double q) {
  if (values.empty()) throw std::invalid_argument("quantile: no samples");
  if (!(q >= 0.0 && q <= 1.0))
    throw std::invalid_argument("quantile: q outside [0, 1]");
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

struct Quartiles {
  double q1 = 0.0;
  double q2 = 0.0;
  double q3 = 0.0;
};

inline Quartiles quartiles(const std::vector<double>& values) {
  return {quantile(values, 0.25), quantile(values, 0.5),
          quantile(values, 0.75)};
}

// Samples taken in rounds that repeat the same work, one per call of the
// round: the fastest sample of each call over all rounds. Neighbours on a
// shared host can slow a call down severalfold for tens of seconds at a
// time; the fastest repetition is the call's own cost, which such a spell
// only hides when it covers the whole run.
inline std::vector<double> best_of(
    const std::vector<std::vector<double>>& rounds) {
  if (rounds.empty()) throw std::invalid_argument("best_of: no rounds");
  std::vector<double> best = rounds.front();
  for (const auto& round : rounds) {
    if (round.size() != best.size())
      throw std::invalid_argument("best_of: rounds differ in length");
    for (std::size_t i = 0; i < round.size(); ++i)
      best[i] = std::min(best[i], round[i]);
  }
  return best;
}

// A percentile with the evidence behind it: how many samples there were
// and over how many rounds.
struct Percentile {
  double value = 0.0;
  std::size_t samples = 0;
  std::size_t rounds = 0;
};

// Percentile `q` over the calls of a round of each call's best time
// (best_of); `samples` counts the timed calls of all rounds.
inline Percentile best_percentile(
    const std::vector<std::vector<double>>& rounds, double q) {
  Percentile p;
  p.value = quantile(best_of(rounds), q);
  p.rounds = rounds.size();
  for (const auto& round : rounds) p.samples += round.size();
  return p;
}

}  // namespace perfbench
