#include "dse/explorer.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "arch/cycle_sim.hpp"
#include "dse/shard.hpp"
#include "obs/trace.hpp"

namespace mnsim::dse {

double DesignMetrics::objective_value(Objective objective) const {
  switch (objective) {
    case Objective::kArea:
      return area;
    case Objective::kEnergy:
      return energy_per_sample;
    case Objective::kLatency:
      return latency;
    case Objective::kAccuracy:
      return max_error_rate;
    case Objective::kPower:
      return power;
    case Objective::kStalls:
      return stall_fraction;
    case Objective::kTraffic:
      return backing_traffic;
  }
  throw std::logic_error("objective_value: unreachable");
}

bool Constraints::admits(const DesignMetrics& m) const {
  if (m.max_error_rate > max_error) return false;
  if (max_area > 0 && m.area > max_area) return false;
  if (max_power > 0 && m.power > max_power) return false;
  if (max_latency > 0 && m.latency > max_latency) return false;
  return true;
}

void Constraints::validate() const {
  if (!(max_error > 0))
    throw std::invalid_argument("Constraints: max_error must be positive");
}

EvaluatedDesign evaluate_design(const nn::Network& network,
                                const arch::AcceleratorConfig& base,
                                const DesignPoint& point,
                                const Constraints& constraints) {
  return evaluate_design(arch::CheckedNetwork(network), base, point,
                         constraints, nullptr);
}

EvaluatedDesign evaluate_design(const arch::CheckedNetwork& network,
                                const arch::AcceleratorConfig& base,
                                const DesignPoint& point,
                                const Constraints& constraints,
                                arch::VoltageErrorMemo* errors) {
  obs::Span span("dse.evaluate");
  constraints.validate();
  const arch::AcceleratorConfig cfg = apply_point(base, point);
  arch::DesignContext context(cfg, errors);
  const auto report = arch::simulate_accelerator(network, context);

  EvaluatedDesign out;
  out.point = point;
  out.metrics.area = report.area;
  out.metrics.energy_per_sample = report.energy_per_sample;
  out.metrics.latency = report.pipeline_cycle;
  out.metrics.sample_latency = report.sample_latency;
  out.metrics.power = report.power;
  out.metrics.max_error_rate = report.max_error_rate;
  out.metrics.avg_error_rate = report.avg_error_rate;
  out.metrics.solver_fallbacks =
      report.solver.cg_retries + report.solver.lu_fallbacks;
  out.metrics.faults_injected = report.solver.faults_injected;
  // Cycle-level memory-hierarchy metrics ride along when the engine is
  // armed; simulate_cycles is deterministic, so the parallel sweep stays
  // bit-identical.
  if (cfg.cycle_enabled) {
    const auto cycles = arch::simulate_cycles(report, context);
    out.metrics.stall_fraction = cycles.stall_fraction;
    out.metrics.backing_traffic = cycles.backing_traffic_bytes;
  }
  out.feasible = constraints.admits(out.metrics);
  return out;
}

ExplorationResult explore(const nn::Network& network,
                          const arch::AcceleratorConfig& base,
                          const DesignSpace& space,
                          const Constraints& constraints) {
  // The whole space in one shard, one attempt per point, no journal and
  // no watchdog; the base config's [sweep] keys are not read.
  SweepOptions options;
  options.constraints = constraints;
  options.max_attempts = 1;
  return run_sweep(network, base, space, options).result;
}

ExplorationResult explore(const nn::Network& network,
                          const arch::AcceleratorConfig& base,
                          const DesignSpace& space, double error_constraint) {
  Constraints constraints;
  constraints.max_error = error_constraint;
  return explore(network, base, space, constraints);
}

std::optional<EvaluatedDesign> ExplorationResult::best(
    Objective objective) const {
  std::optional<EvaluatedDesign> best;
  for (const auto& d : designs) {
    if (!d.feasible) continue;
    if (!best) {
      best = d;
      continue;
    }
    const double v = d.metrics.objective_value(objective);
    const double bv = best->metrics.objective_value(objective);
    if (v < bv || (v == bv && d.metrics.area < best->metrics.area)) best = d;
  }
  return best;
}

std::vector<EvaluatedDesign> ExplorationResult::pareto_front() const {
  auto dominates = [](const DesignMetrics& a, const DesignMetrics& b) {
    const bool no_worse = a.area <= b.area &&
                          a.energy_per_sample <= b.energy_per_sample &&
                          a.latency <= b.latency &&
                          a.max_error_rate <= b.max_error_rate;
    const bool better = a.area < b.area ||
                        a.energy_per_sample < b.energy_per_sample ||
                        a.latency < b.latency ||
                        a.max_error_rate < b.max_error_rate;
    return no_worse && better;
  };
  std::vector<EvaluatedDesign> front;
  for (const auto& d : designs) {
    if (!d.feasible) continue;
    bool dominated = false;
    for (const auto& other : designs) {
      if (!other.feasible) continue;
      if (dominates(other.metrics, d.metrics)) {
        dominated = true;
        break;
      }
    }
    if (!dominated) front.push_back(d);
  }
  return front;
}

std::optional<EvaluatedDesign> ExplorationResult::compromise(
    const CompromiseWeights& w) const {
  if (w.area < 0 || w.energy < 0 || w.latency < 0 || w.accuracy < 0)
    throw std::invalid_argument("compromise: weights must be >= 0");
  const double weight_sum = w.area + w.energy + w.latency + w.accuracy;
  if (!(weight_sum > 0))
    throw std::invalid_argument("compromise: all weights zero");

  // Per-objective best feasible values for normalization.
  DesignMetrics best{};
  bool any = false;
  for (const auto& d : designs) {
    if (!d.feasible) continue;
    if (!any) {
      best = d.metrics;
      any = true;
      continue;
    }
    best.area = std::min(best.area, d.metrics.area);
    best.energy_per_sample =
        std::min(best.energy_per_sample, d.metrics.energy_per_sample);
    best.latency = std::min(best.latency, d.metrics.latency);
    best.max_error_rate =
        std::min(best.max_error_rate, d.metrics.max_error_rate);
  }
  if (!any) return std::nullopt;

  std::optional<EvaluatedDesign> winner;
  double winner_score = 0.0;
  for (const auto& d : designs) {
    if (!d.feasible) continue;
    // Epsilon-floored normalization: a best-feasible reference of
    // exactly 0 (e.g. a zero-latency degenerate design) must still let
    // the objective discriminate — value/0 is unusable, but mapping the
    // ratio to 1.0 silently zeroed the objective's weight for every
    // design. With the floor, designs matching the zero reference score
    // ~1 and everything else is charged the full ratio.
    auto ratio = [](double value, double reference) {
      constexpr double eps = 1e-12;
      return (value + eps) / (reference + eps);
    };
    const double score =
        (w.area * std::log(ratio(d.metrics.area, best.area)) +
         w.energy * std::log(ratio(d.metrics.energy_per_sample,
                                   best.energy_per_sample)) +
         w.latency * std::log(ratio(d.metrics.latency, best.latency)) +
         w.accuracy * std::log(ratio(d.metrics.max_error_rate + 1e-6,
                                     best.max_error_rate + 1e-6))) /
        weight_sum;
    if (!winner || score < winner_score) {
      winner = d;
      winner_score = score;
    }
  }
  return winner;
}

std::vector<EvaluatedDesign> ExplorationResult::latency_area_pareto() const {
  std::vector<EvaluatedDesign> feasible;
  for (const auto& d : designs)
    if (d.feasible) feasible.push_back(d);
  std::sort(feasible.begin(), feasible.end(),
            [](const EvaluatedDesign& a, const EvaluatedDesign& b) {
              if (a.metrics.latency != b.metrics.latency)
                return a.metrics.latency < b.metrics.latency;
              return a.metrics.area < b.metrics.area;
            });
  std::vector<EvaluatedDesign> front;
  double best_area = std::numeric_limits<double>::infinity();
  for (const auto& d : feasible) {
    if (d.metrics.area < best_area) {
      front.push_back(d);
      best_area = d.metrics.area;
    }
  }
  return front;
}

}  // namespace mnsim::dse
