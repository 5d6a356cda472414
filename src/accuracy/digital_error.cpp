#include "accuracy/digital_error.hpp"

#include <cmath>
#include <stdexcept>

namespace mnsim::accuracy {

namespace {
void check_k(int k) {
  if (k < 2) throw std::invalid_argument("accuracy: k must be >= 2 levels");
}
}  // namespace

long max_digital_deviation(int k, double eps) {
  check_k(k);
  if (eps < 0) eps = -eps;
  return static_cast<long>(std::floor((k - 1.5) * eps + 0.5));
}

double max_error_rate(int k, double eps) {
  return static_cast<double>(max_digital_deviation(k, eps)) / (k - 1);
}

double avg_digital_deviation(int k, double eps) {
  check_k(k);
  if (eps < 0) eps = -eps;
  // Level i contributes floor(at(i)).
  const auto at = [eps](int i) { return i * eps + 0.5; };
  // Every term is an integer. While k * top < 2^52 each partial sum is an
  // integer a double holds exactly, so summing the terms in any order, in
  // integers, gives the per-level loop's bits. Outside that range (or for
  // a non-finite eps) the loop itself is the definition.
  const double top = std::floor(at(k - 1));
  if (!std::isfinite(eps) || !(top < 0x1p52 / k)) {
    double sum = 0.0;
    for (int i = 0; i < k; ++i) sum += std::floor(at(i));
    return sum / k;
  }
  // In range every at(i) is in [0.5, 2^52): truncation is its floor.
  const auto term = [&at](int i) { return static_cast<long>(at(i)); };
  const long steps = static_cast<long>(top);
  if (steps == 0) return 0.0;
  long sum = 0;
  if (steps * 8 >= k) {
    // A staircase of about as many steps as levels: sum the levels.
    for (int i = 0; i < k; ++i) sum += term(i);
    return static_cast<double>(sum) / k;
  }
  // The terms never fall as i rises, so their sum is
  //   sum over m = 1..steps of (k - first(m)),
  // where first(m) is the first level whose term reaches m: one
  // breakpoint per step instead of one term per level.
  const double inv = 1.0 / eps;
  int first = 0;
  for (long m = 1; m <= steps; ++m) {
    // at(i) crosses m near i = (m - 0.5) / eps; rounding moves the
    // crossing by at most a level, which the two walks settle. first(m)
    // never falls, and term(k - 1) = steps >= m bounds the upward walk.
    const double guess = (static_cast<double>(m) - 0.5) * inv + 1.0;
    int i = guess > k - 1 ? k - 1 : static_cast<int>(guess);
    if (i < first) i = first;
    while (i > first && term(i - 1) >= m) --i;
    while (term(i) < m) ++i;
    first = i;
    sum += k - first;
  }
  return static_cast<double>(sum) / k;
}

double avg_error_rate(int k, double eps) {
  return avg_digital_deviation(k, eps) / (k - 1);
}

double propagate_error(double delta_prev, double eps_layer) {
  if (delta_prev < 0 || eps_layer < 0)
    throw std::invalid_argument("propagate_error: rates must be >= 0");
  return (1.0 + delta_prev) * (1.0 + eps_layer) - 1.0;
}

std::vector<double> propagate_layers(const std::vector<double>& layer_eps) {
  std::vector<double> out;
  out.reserve(layer_eps.size());
  double delta = 0.0;
  for (double eps : layer_eps) {
    delta = propagate_error(delta, eps);
    out.push_back(delta);
  }
  return out;
}

}  // namespace mnsim::accuracy
