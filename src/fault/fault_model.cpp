#include "fault/fault_model.hpp"

#include <algorithm>
#include <cmath>
#include <random>
#include <stdexcept>
#include <vector>

#include "accuracy/retention.hpp"

namespace mnsim::fault {

bool FaultConfig::enabled() const {
  return stuck_at_zero_rate > 0 || stuck_at_one_rate > 0 ||
         broken_wordline_rate > 0 || broken_bitline_rate > 0 ||
         retention_time > 0;
}

void FaultConfig::validate() const {
  auto rate_ok = [](double r) { return r >= 0.0 && r <= 1.0; };
  if (!rate_ok(stuck_at_zero_rate) || !rate_ok(stuck_at_one_rate) ||
      !rate_ok(broken_wordline_rate) || !rate_ok(broken_bitline_rate))
    throw std::invalid_argument("FaultConfig: rates must be in [0, 1]");
  if (stuck_at_zero_rate + stuck_at_one_rate > 1.0)
    throw std::invalid_argument(
        "FaultConfig: stuck-at rates must sum to <= 1");
  if (retention_time < 0)
    throw std::invalid_argument("FaultConfig: retention time");
  if (circuit_check_size < 2)
    throw std::invalid_argument("FaultConfig: circuit check size");
}

int DefectMap::fault_count() const {
  return static_cast<int>(stuck_cells.size() + broken_wordlines.size() +
                          broken_bitlines.size());
}

bool DefectMap::row_broken(int row) const {
  return std::binary_search(broken_wordlines.begin(), broken_wordlines.end(),
                            row);
}

bool DefectMap::col_broken(int col) const {
  return std::binary_search(broken_bitlines.begin(), broken_bitlines.end(),
                            col);
}

DefectMap generate_defect_map(int rows, int cols, const FaultConfig& config,
                              const tech::MemristorModel& device,
                              std::uint32_t seed_offset) {
  config.validate();
  if (rows <= 0 || cols <= 0)
    throw std::invalid_argument("generate_defect_map: array shape");

  DefectMap map;
  map.rows = rows;
  map.cols = cols;
  map.seed = config.seed + seed_offset;
  std::mt19937 rng(map.seed);
  std::uniform_real_distribution<double> u(0.0, 1.0);

  for (int i = 0; i < rows; ++i)
    if (u(rng) < config.broken_wordline_rate)
      map.broken_wordlines.push_back(i);
  for (int j = 0; j < cols; ++j)
    if (u(rng) < config.broken_bitline_rate)
      map.broken_bitlines.push_back(j);

  // Stuck cells on intact lines only: an open line dominates any cell
  // defect underneath it.
  for (int i = 0; i < rows; ++i) {
    if (map.row_broken(i)) continue;
    for (int j = 0; j < cols; ++j) {
      if (map.col_broken(j)) continue;
      const double roll = u(rng);
      if (roll < config.stuck_at_zero_rate)
        map.stuck_cells.push_back({i, j, FaultKind::kStuckAtZero});
      else if (roll < config.stuck_at_zero_rate + config.stuck_at_one_rate)
        map.stuck_cells.push_back({i, j, FaultKind::kStuckAtOne});
    }
  }

  if (config.retention_time > 0) {
    const double nu = accuracy::drift_exponent(device.kind);
    map.drift_factor = accuracy::drift_factor(nu, config.retention_time);
  }
  return map;
}

void apply_to_resistance_map(
    const DefectMap& map, const tech::MemristorModel& device,
    std::vector<std::vector<double>>& cell_resistance) {
  if (cell_resistance.size() != static_cast<std::size_t>(map.rows))
    throw std::invalid_argument("apply_to_resistance_map: row count");
  for (const auto& row : cell_resistance)
    if (row.size() != static_cast<std::size_t>(map.cols))
      throw std::invalid_argument("apply_to_resistance_map: column count");

  for (const auto& f : map.stuck_cells)
    cell_resistance[f.row][f.col] =
        (f.kind == FaultKind::kStuckAtZero ? device.r_max : device.r_min)
            .value();

  if (map.drift_factor != 1.0)
    for (auto& row : cell_resistance)
      for (double& r : row) r *= map.drift_factor;

  // Open lines last: an open must not be drift-scaled past kOpenResistance.
  for (int i : map.broken_wordlines)
    for (int j = 0; j < map.cols; ++j)
      cell_resistance[i][j] = kOpenResistance;
  for (int j : map.broken_bitlines)
    for (int i = 0; i < map.rows; ++i)
      cell_resistance[i][j] = kOpenResistance;
}

void apply_to_spec(const DefectMap& map, spice::CrossbarSpec& spec) {
  if (spec.rows != map.rows || spec.cols != map.cols)
    throw std::invalid_argument("apply_to_spec: shape mismatch");
  apply_to_resistance_map(map, spec.device, spec.cell_resistance);
}

void apply_to_signed_weights(const DefectMap& positive,
                             const DefectMap& negative, int weight_bits,
                             nn::Matrix& weights) {
  if (weight_bits < 2 || weight_bits > 16)
    throw std::invalid_argument("apply_to_signed_weights: weight bits");
  const int outputs = static_cast<int>(weights.size());
  const int inputs = outputs > 0 ? static_cast<int>(weights.front().size())
                                 : 0;
  for (const auto& row : weights)
    if (static_cast<int>(row.size()) != inputs)
      throw std::invalid_argument("apply_to_signed_weights: ragged matrix");
  if (positive.rows != inputs || positive.cols != outputs ||
      negative.rows != inputs || negative.cols != outputs)
    throw std::invalid_argument(
        "apply_to_signed_weights: map shape must be [inputs][outputs]");

  const double wmax = static_cast<double>((1 << (weight_bits - 1)) - 1);

  // Per-polarity magnitudes, as programmed into the two cell arrays: the
  // positive ones in place, the negative ones in one scratch matrix.
  // Both are addressed as the maps are, (row = input, col = output).
  std::vector<double> wneg(static_cast<std::size_t>(outputs) * inputs);
  auto pos = [&](int i, int o) -> double& { return weights[o][i]; };
  auto neg = [&](int i, int o) -> double& {
    return wneg[static_cast<std::size_t>(o) * inputs + i];
  };
  for (int o = 0; o < outputs; ++o)
    for (int i = 0; i < inputs; ++i) {
      neg(i, o) = std::max(-pos(i, o), 0.0);
      pos(i, o) = std::max(pos(i, o), 0.0);
    }

  // One pass over each map's defects: stuck cells in list order (a later
  // entry for the same cell wins), then open lines, which dominate. Cells
  // outside the array are ignored.
  auto apply = [&](const DefectMap& map, auto& cell) {
    for (const auto& f : map.stuck_cells)
      if (f.row >= 0 && f.row < inputs && f.col >= 0 && f.col < outputs)
        cell(f.row, f.col) = f.kind == FaultKind::kStuckAtZero ? 0.0 : wmax;
    for (int i : map.broken_wordlines)
      if (i >= 0 && i < inputs)
        for (int o = 0; o < outputs; ++o) cell(i, o) = 0.0;
    for (int o : map.broken_bitlines)
      if (o >= 0 && o < outputs)
        for (int i = 0; i < inputs; ++i) cell(i, o) = 0.0;
  };
  apply(positive, pos);
  apply(negative, neg);

  // Drift lowers every surviving conductance, i.e. shrinks the effective
  // weight magnitude.
  for (int o = 0; o < outputs; ++o)
    for (int i = 0; i < inputs; ++i)
      weights[o][i] =
          pos(i, o) / positive.drift_factor - neg(i, o) / negative.drift_factor;
}

FaultErrorResult estimate_fault_error(const accuracy::CrossbarErrorInputs& in,
                                      const FaultConfig& config) {
  in.validate();
  config.validate();

  FaultErrorResult result;
  const DefectMap map =
      generate_defect_map(in.rows, in.cols, config, in.device);
  result.faults_injected = map.fault_count();
  result.seed = map.seed;

  // Wire-free star model outputs (Eq. 9, spice::ideal_column_outputs),
  // inputs at v_read, before and after the defects; open cells
  // contribute ~1e-12 S, i.e. effectively nothing.
  auto deviations = [&](double base_state) {
    auto spec = spice::CrossbarSpec::uniform(
        in.rows, in.cols, in.device, 0.0, in.sense_resistance.value(),
        base_state);
    spec.ideal_wires = true;
    const auto clean = spice::ideal_column_outputs(spec);
    apply_to_resistance_map(map, in.device, spec.cell_resistance);
    const auto faulted = spice::ideal_column_outputs(spec);
    std::vector<double> dev(clean.size(), 0.0);
    for (std::size_t j = 0; j < clean.size(); ++j)
      dev[j] = clean[j] > 0 ? std::fabs(faulted[j] - clean[j]) / clean[j]
                            : 0.0;
    return dev;
  };

  // Worst case: every cell at r_min (paper convention), worst column.
  for (double d : deviations(in.device.r_min.value()))
    result.fault_worst = std::max(result.fault_worst, d);
  // Average case: harmonic-mean cells, column average.
  const auto avg_dev =
      deviations(in.device.harmonic_mean_resistance().value());
  for (double d : avg_dev) result.fault_average += d;
  if (!avg_dev.empty())
    result.fault_average /= static_cast<double>(avg_dev.size());

  // Composition with the soft-error chain: hard-defect deviation adds to
  // the wire/nonlinearity/variation bound (same magnitudes-add convention
  // as the Eq. 16 worst case).
  const auto eps = accuracy::estimate_voltage_error(in);
  result.combined_worst = eps.worst + result.fault_worst;
  result.combined_average = eps.average + result.fault_average;
  return result;
}

}  // namespace mnsim::fault
