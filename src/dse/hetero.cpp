#include "dse/hetero.hpp"

#include <cmath>
#include <limits>
#include <stdexcept>

#include "arch/computation_bank.hpp"
#include "arch/design_context.hpp"

namespace mnsim::dse {

namespace {

struct Candidate {
  DesignPoint point;
  double objective = 0.0;  // per-bank objective value (lower is better)
  double log_error = 0.0;  // log(1 + eps_worst), additive under Eq. 15
};

double bank_objective(const arch::BankReport& bank, Objective objective) {
  switch (objective) {
    case Objective::kArea:
      return bank.area;
    case Objective::kEnergy:
    case Objective::kPower:
      return bank.energy_per_sample;
    case Objective::kLatency:
      // Sum of pass latencies is the greedy proxy for the pipeline cycle
      // (the max); the final report uses the exact maximum.
      return bank.pass_latency;
    case Objective::kAccuracy:
      return bank.epsilon_worst;
    case Objective::kStalls:
    case Objective::kTraffic:
      // Cycle-level objectives are whole-pipeline properties (a bank's
      // stalls depend on its neighbours) — no per-bank greedy proxy.
      throw std::invalid_argument(
          "optimize_per_bank: stall/traffic objectives need the whole "
          "pipeline; use explore() with [cycle] Enabled");
  }
  throw std::logic_error("bank_objective: unreachable");
}

}  // namespace

HeteroResult optimize_per_bank(const nn::Network& network,
                               const arch::AcceleratorConfig& base,
                               const DesignSpace& space, Objective objective,
                               double error_constraint) {
  network.validate();
  if (!(error_constraint > 0))
    throw std::invalid_argument("optimize_per_bank: error constraint");

  const std::vector<arch::BankLayers> banks = arch::gather_banks(network);

  HeteroResult result;
  const auto points = space.enumerate();

  // Evaluate every candidate per bank: one checked context per design
  // point, whose memo the banks sharing a crossbar geometry share.
  std::vector<std::vector<Candidate>> candidates(banks.size());
  for (const auto& point : points) {
    const arch::AcceleratorConfig config = apply_point(base, point);
    arch::DesignContext context(config);
    for (std::size_t b = 0; b < banks.size(); ++b) {
      const auto bank = arch::simulate_bank(banks[b], network, context);
      ++result.bank_evaluations;
      candidates[b].push_back({point, bank_objective(bank, objective),
                               std::log1p(bank.epsilon_worst)});
    }
  }

  // Start every bank at its unconstrained optimum.
  std::vector<std::size_t> choice(banks.size(), 0);
  for (std::size_t b = 0; b < banks.size(); ++b) {
    for (std::size_t c = 1; c < candidates[b].size(); ++c) {
      if (candidates[b][c].objective <
          candidates[b][choice[b]].objective)
        choice[b] = c;
    }
  }

  // Greedy repair: while the accumulated error exceeds the budget, take
  // the cheapest error-reducing move (objective cost per unit of
  // log-error reduction).
  const double log_budget = std::log1p(error_constraint);
  auto total_log_error = [&] {
    double s = 0.0;
    for (std::size_t b = 0; b < banks.size(); ++b)
      s += candidates[b][choice[b]].log_error;
    return s;
  };

  const std::size_t max_moves = 64 * banks.size() * points.size() + 64;
  std::size_t moves = 0;
  while (total_log_error() > log_budget && moves++ < max_moves) {
    double best_ratio = std::numeric_limits<double>::infinity();
    std::size_t best_bank = 0;
    std::size_t best_candidate = 0;
    bool found = false;
    for (std::size_t b = 0; b < banks.size(); ++b) {
      const Candidate& current = candidates[b][choice[b]];
      for (std::size_t c = 0; c < candidates[b].size(); ++c) {
        const Candidate& cand = candidates[b][c];
        const double reduction = current.log_error - cand.log_error;
        if (!(reduction > 0)) continue;
        const double cost = cand.objective - current.objective;
        const double ratio = cost / reduction;
        if (ratio < best_ratio) {
          best_ratio = ratio;
          best_bank = b;
          best_candidate = c;
          found = true;
        }
      }
    }
    if (!found) break;  // no error-reducing move left
    choice[best_bank] = best_candidate;
  }

  // Materialize the chosen configuration and simulate exactly.
  std::vector<arch::AcceleratorConfig> configs;
  configs.reserve(banks.size());
  for (std::size_t b = 0; b < banks.size(); ++b) {
    const auto& point = candidates[b][choice[b]].point;
    configs.push_back(apply_point(base, point));
    result.per_bank.push_back(point);
  }
  result.report = arch::simulate_accelerator(network, configs);
  result.feasible = result.report.max_error_rate <= error_constraint;
  return result;
}

}  // namespace mnsim::dse
