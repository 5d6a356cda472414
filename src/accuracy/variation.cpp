#include "accuracy/variation.hpp"

#include <cmath>
#include <random>
#include <stdexcept>

#include "spice/crossbar_netlist.hpp"
#include "util/parallel.hpp"

namespace mnsim::accuracy {

using mnsim::units::Ohms;

VariationMcResult variation_monte_carlo(const CrossbarErrorInputs& in,
                                        const VariationMcOptions& opt) {
  in.validate();
  if (!(in.device.sigma > 0))
    throw std::invalid_argument("variation_monte_carlo: sigma must be > 0");
  if (opt.trials <= 0)
    throw std::invalid_argument("variation_monte_carlo: trials");

  const Ohms base = in.device.r_min;

  auto spec = spice::CrossbarSpec::uniform(
      in.rows, in.cols, in.device, in.segment_resistance.value(),
      in.sense_resistance.value(), base.value());
  // Variation-free reference, per column: variation is i.i.d. per cell,
  // so the worst deviation can land in any column — scoring only the far
  // column (the wire analysis' worst case) under-reports the error.
  const std::vector<double> v_ideal = spice::ideal_column_outputs(spec);

  VariationMcResult result;
  result.seed = opt.seed;
  // Closed form (Eq. 16): the worse of the two deviation directions on
  // top of the wire + nonlinearity error.
  const double w =
      tech::effective_wire_segments(in.rows, in.cols, in.wire_alpha);
  result.closed_form_bound =
      std::max(std::fabs(relative_output_error(in, base, w, +1)),
               std::fabs(relative_output_error(in, base, w, -1)));

  // Pre-generate every trial's cell map from its own RNG stream derived
  // from (seed, trial) — the draw sequence depends only on the trial
  // index — then hand the whole sweep to the batched solver, which
  // builds the netlist, vets the topology and primes the CSR pattern
  // once for all trials (spice::solve_crossbar_batch). Every trial
  // warm-starts from the unperturbed spec's operating point, never from
  // the previous trial, so results do not depend on work scheduling.
  const auto trials = static_cast<std::size_t>(opt.trials);
  std::vector<spice::CrossbarBatchEntry> entries(trials);
  for (std::size_t trial = 0; trial < trials; ++trial) {
    std::mt19937 rng(util::derive_stream_seed(opt.seed, trial));
    std::uniform_real_distribution<double> dev(1.0 - in.device.sigma,
                                               1.0 + in.device.sigma);
    auto cells = spec.cell_resistance;
    for (auto& row : cells)
      for (double& r : row) r = (base * dev(rng)).value();
    entries[trial].cell_resistance = std::move(cells);
  }

  result.threads = util::resolve_thread_count(opt.threads);
  const auto sols =
      spice::solve_crossbar_batch(spec, entries, {}, opt.threads,
                                  /*warm_start_from_base=*/true);

  result.samples.resize(trials, 0.0);
  for (std::size_t trial = 0; trial < trials; ++trial) {
    double err = 0.0;
    for (std::size_t j = 0; j < v_ideal.size(); ++j)
      err = std::max(err,
                     std::fabs((v_ideal[j] -
                                sols[trial].column_output_voltage[j]) /
                               v_ideal[j]));
    result.samples[trial] = err;
    result.cache_hits += sols[trial].diagnostics.cache_hits;
    result.warm_starts += sols[trial].diagnostics.warm_starts;
  }

  for (double err : result.samples) {
    result.mean_error += err;
    result.max_error = std::max(result.max_error, err);
  }
  result.mean_error /= opt.trials;
  return result;
}

}  // namespace mnsim::accuracy
