#include "arch/computation_bank.hpp"

#include <algorithm>
#include <array>
#include <stdexcept>

#include "arch/design_context.hpp"
#include "circuit/buffer.hpp"
#include "circuit/logic.hpp"
#include "circuit/neuron.hpp"
#include "fault/fault_model.hpp"
#include "spice/crossbar_netlist.hpp"

namespace mnsim::arch {

namespace {

// Energy of a peripheral block over one activation: its dynamic power is
// defined over its active latency.
double activation_energy(const circuit::Ppa& p) {
  return p.dynamic_power * p.latency;
}

}  // namespace

std::vector<BankLayers> gather_banks(const nn::Network& network) {
  std::vector<BankLayers> banks;
  for (const auto& layer : network.layers) {
    if (layer.is_weighted()) {
      if (!banks.empty()) banks.back().next_weighted = &layer;
      banks.push_back({&layer, nullptr, nullptr});
    } else if (layer.kind == nn::LayerKind::kPooling && !banks.empty()) {
      banks.back().attached_pooling = &layer;
    }
  }
  return banks;
}

BankReport simulate_bank(const nn::Layer& layer,
                         const nn::Layer* attached_pooling,
                         const nn::Layer* next_weighted,
                         const nn::Network& network,
                         const AcceleratorConfig& config,
                         spice::CrossbarSolveCache* solve_cache) {
  if (!layer.is_weighted())
    throw std::invalid_argument("simulate_bank: layer holds no weights");
  DesignContext context(config);
  return simulate_bank({&layer, attached_pooling, next_weighted}, network,
                       context, solve_cache);
}

BankReport simulate_bank(const BankLayers& layers,
                         const nn::Network& network, DesignContext& context,
                         spice::CrossbarSolveCache* solve_cache) {
  const nn::Layer& layer = *layers.layer;
  const nn::Layer* attached_pooling = layers.attached_pooling;
  const nn::Layer* next_weighted = layers.next_weighted;
  const AcceleratorConfig& config = context.config();
  const tech::CmosTech& cmos = context.cmos();
  BankReport rep;
  rep.mapping = map_layer(layer, network, context);
  rep.iterations = layer.compute_iterations();

  // --- units -----------------------------------------------------------------
  // Up to four unit variants: full, edge-row, edge-col, corner. Each
  // points at the context's memo, which keeps every report in place.
  const auto& m = rep.mapping;
  auto unit_for = [&](int r, int c) -> const UnitReport& {
    return context.unit(r, c, network.input_bits, network.weight_bits);
  };
  const UnitReport& full = unit_for(m.rows_used_full, m.cols_used_full);
  rep.unit = full;

  struct Variant {
    long count;
    const UnitReport* unit;
  };
  std::array<Variant, 4> variants{};
  std::size_t variant_count = 0;
  auto add_variant = [&](long count, const UnitReport& unit) {
    variants[variant_count++] = {count, &unit};
  };
  const long full_rows = m.row_blocks - 1;  // block-rows with full height
  const long full_cols = m.col_blocks - 1;
  const bool edge_r = m.rows_used_edge != m.rows_used_full;
  const bool edge_c = m.cols_used_edge != m.cols_used_full;
  if (!edge_r && !edge_c) {
    add_variant(m.unit_count, full);
  } else if (edge_r && !edge_c) {
    add_variant(full_rows * m.col_blocks, full);
    add_variant(m.col_blocks, unit_for(m.rows_used_edge, m.cols_used_full));
  } else if (!edge_r && edge_c) {
    add_variant(m.row_blocks * full_cols, full);
    add_variant(m.row_blocks, unit_for(m.rows_used_full, m.cols_used_edge));
  } else {
    add_variant(full_rows * full_cols, full);
    add_variant(full_rows, unit_for(m.rows_used_full, m.cols_used_edge));
    add_variant(full_cols, unit_for(m.rows_used_edge, m.cols_used_full));
    add_variant(1, unit_for(m.rows_used_edge, m.cols_used_edge));
  }

  double unit_pass_energy = 0.0;
  double unit_pass_latency = 0.0;
  for (std::size_t v = 0; v < variant_count; ++v) {
    const auto [count, unit] = variants[v];
    rep.units_total.area += count * unit->area;
    rep.units_total.leakage_power += count * unit->leakage_power;
    unit_pass_energy += count * unit->dynamic_energy_per_pass;
    unit_pass_latency = std::max(unit_pass_latency, unit->pass_latency);
  }
  rep.units_total.latency = unit_pass_latency;

  // --- adder tree --------------------------------------------------------------
  rep.output_lanes = m.col_blocks * full.lanes;
  const int adc_bits = circuit::AdcModel::required_bits(
      network.input_bits, network.weight_bits, m.rows_used_full,
      config.output_bits);
  circuit::AdderTreeModel tree;
  tree.inputs = m.row_blocks;
  tree.bits = adc_bits;
  tree.shift_merge = m.cells_per_weight > 1;
  tree.max_shift = (m.cells_per_weight - 1) * context.device().level_bits;
  tree.tech = cmos;
  // Lanes are parallel: times() keeps one lane's latency.
  rep.adder_tree = tree.ppa().times(rep.output_lanes);

  // --- pooling (CNN) -------------------------------------------------------------
  const bool has_pooling = attached_pooling != nullptr;
  if (has_pooling) {
    circuit::PoolingModel pool{attached_pooling->pool_size, adc_bits, cmos};
    const int channels = static_cast<int>(layer.matrix_cols());
    rep.pooling = pool.ppa().times(channels);

    circuit::LineBufferModel pbuf;
    pbuf.length = circuit::line_buffer_length(
        layer.out_width(), attached_pooling->pool_size,
        attached_pooling->pool_size);
    pbuf.bits = adc_bits;
    pbuf.channels = channels;
    pbuf.tech = cmos;
    rep.pooling_buffer = pbuf.ppa();
  }

  // --- neurons ----------------------------------------------------------------
  // One neuron module per output neuron of the pass (paper Sec. III-B.5:
  // each output-buffer register connects to a neuron through a fixed
  // wire): C_out for FC, out_channels for conv.
  circuit::NeuronModel neuron{AcceleratorConfig::neuron_for(network.type),
                              config.output_bits, cmos};
  rep.neuron_count = static_cast<int>(layer.matrix_cols());
  rep.neurons = neuron.ppa().times(rep.neuron_count);

  // --- output buffer -------------------------------------------------------------
  if (layer.kind == nn::LayerKind::kConvolution && next_weighted &&
      next_weighted->kind == nn::LayerKind::kConvolution) {
    circuit::LineBufferModel obuf;
    const int eff_width =
        has_pooling ? layer.out_width() / attached_pooling->pool_size
                    : layer.out_width();
    obuf.length = circuit::line_buffer_length(
        std::max(eff_width, next_weighted->kernel), next_weighted->kernel,
        next_weighted->kernel);
    obuf.bits = config.output_bits;
    obuf.channels = static_cast<int>(layer.matrix_cols());
    obuf.tech = cmos;
    rep.output_buffer = obuf.ppa();
    // The next conv layer can start once the line buffer holds its first
    // window; pooling consumes pool^2 passes per buffered pixel.
    rep.warmup_passes = obuf.length;
    if (has_pooling)
      rep.warmup_passes *= static_cast<long>(attached_pooling->pool_size) *
                           attached_pooling->pool_size;
  } else {
    circuit::RegisterBankModel obuf;
    obuf.words = static_cast<int>(
        std::min<long>(layer.output_count(), 1 << 20));
    obuf.bits = config.output_bits;
    obuf.tech = cmos;
    rep.output_buffer = obuf.ppa();
    // A following FC layer (or the output interface) needs the complete
    // feature map; an FC bank itself finishes in one pass.
    rep.warmup_passes =
        layer.kind == nn::LayerKind::kConvolution ? rep.iterations : 1;
  }

  // --- roll-up -----------------------------------------------------------------
  auto add_block = [&](const circuit::Ppa& p) {
    rep.area += p.area;
    rep.leakage_power += p.leakage_power;
  };
  add_block(rep.units_total);
  add_block(rep.adder_tree);
  add_block(rep.pooling);
  add_block(rep.pooling_buffer);
  add_block(rep.neurons);
  add_block(rep.output_buffer);

  rep.pass_latency = unit_pass_latency + rep.adder_tree.latency +
                     rep.pooling.latency + rep.neurons.latency +
                     rep.output_buffer.latency;
  rep.sample_latency = rep.pass_latency * rep.iterations;

  double peripheral_pass_energy =
      activation_energy(rep.adder_tree) + activation_energy(rep.pooling) +
      activation_energy(rep.pooling_buffer) +
      activation_energy(rep.neurons) + activation_energy(rep.output_buffer);
  rep.dynamic_energy_per_sample =
      (unit_pass_energy + peripheral_pass_energy) * rep.iterations;
  rep.energy_per_sample = rep.dynamic_energy_per_sample +
                          rep.leakage_power * rep.sample_latency;

  // --- computing accuracy of this bank's crossbars -------------------------------
  const auto eps = context.voltage_error(m.rows_used_full, m.cols_used_full);
  rep.epsilon_worst = eps.worst;
  rep.epsilon_average = eps.average;

  // Hard-defect composition (src/fault): the defect-induced output
  // deviation of this bank's crossbar geometry adds to the soft-error
  // chain; optionally cross-validated with a defect-injected
  // circuit-level solve whose diagnostics ride up the report.
  if (config.fault.enabled()) {
    const auto err = context.error_inputs(m.rows_used_full, m.cols_used_full);
    const auto fe = context.fault_error(m.rows_used_full, m.cols_used_full);
    rep.epsilon_worst = fe.combined_worst;
    rep.epsilon_average = fe.combined_average;
    rep.solver.faults_injected += fe.faults_injected;

    if (config.fault.circuit_check) {
      // A bounded sub-array keeps the validation solve tractable inside
      // DSE sweeps while still exercising the defect classes.
      const int check_rows =
          std::min(err.rows, config.fault.circuit_check_size);
      const int check_cols =
          std::min(err.cols, config.fault.circuit_check_size);
      auto spec = spice::CrossbarSpec::uniform(
          check_rows, check_cols, err.device,
          err.segment_resistance.value(), err.sense_resistance.value(),
          err.device.r_min.value());
      const auto map = fault::generate_defect_map(
          check_rows, check_cols, config.fault, err.device);
      fault::apply_to_spec(map, spec);
      const auto sol =
          spice::solve_crossbar(spec, config.solver_options(), solve_cache);
      rep.solver.absorb(sol.dc.diagnostics);
    }
  }
  return rep;
}

}  // namespace mnsim::arch
