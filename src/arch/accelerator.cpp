#include "arch/accelerator.hpp"

#include <algorithm>
#include <optional>
#include <span>

#include "accuracy/digital_error.hpp"
#include "arch/design_context.hpp"
#include "check/config_check.hpp"
#include "check/network_check.hpp"
#include "circuit/buffer.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/cancel.hpp"

namespace mnsim::arch {

BreakdownItem AcceleratorBreakdown::total() const {
  BreakdownItem t;
  for (const BreakdownItem* item :
       {&crossbars, &input_dacs, &read_circuits, &decoders, &digital,
        &adder_trees, &neurons, &pooling, &buffers, &interfaces}) {
    t.area += item->area;
    t.energy += item->energy;
  }
  return t;
}

namespace {

// Accumulates one bank into the module-class breakdown using its
// representative full unit scaled to the bank's unit count.
void accumulate_breakdown(AcceleratorBreakdown& bd, const BankReport& bank) {
  const double units = static_cast<double>(bank.mapping.unit_count);
  const double passes = static_cast<double>(bank.iterations);
  const auto& u = bank.unit;

  bd.crossbars.area += units * u.crossbars.area;
  bd.crossbars.energy += units * passes * u.crossbar_energy;
  bd.input_dacs.area += units * u.dacs.area;
  bd.input_dacs.energy += units * passes * u.dac_energy;
  bd.read_circuits.area +=
      units * (u.adcs.area + u.muxes.area + u.subtractors.area);
  bd.read_circuits.energy += units * passes * u.adc_energy;
  bd.decoders.area += units * u.decoders.area;
  bd.digital.area += units * u.control.area;
  bd.digital.energy += units * passes * u.digital_energy;

  auto peripheral = [&](BreakdownItem& item, const circuit::Ppa& p) {
    item.area += p.area;
    item.energy += passes * p.dynamic_power * p.latency;
  };
  peripheral(bd.adder_trees, bank.adder_tree);
  peripheral(bd.neurons, bank.neurons);
  peripheral(bd.pooling, bank.pooling);
  peripheral(bd.pooling, bank.pooling_buffer);
  peripheral(bd.buffers, bank.output_buffer);
}

// Semantic pre-flight ([check] Enabled): shape chain, mapping
// feasibility and configuration consistency, before any bank is built:
// check::check_system over the network's kept findings and the point's
// checked configuration. `contexts.front()` vets the whole system; a
// heterogeneous design's extra configurations each get a consistency
// pass. Errors throw with the full diagnosis; warnings ride in the
// report (or block too, under Warnings_As_Errors).
std::vector<check::Diagnostic> preflight(const CheckedNetwork& network,
                                         std::span<DesignContext> contexts) {
  const DesignContext& context = contexts.front();
  const AcceleratorConfig& config = context.config();
  if (!config.check_preflight) return {};
  check::DiagnosticList diags = network.diagnostics();
  // As in check_system: mapping only over a structurally sound network.
  if (!diags.has_errors())
    diags.merge(check::check_mapping(network.network(), context));
  for (const DesignContext& each : contexts)
    diags.merge(check::check_config_consistency(each));
  if (config.check_warnings_as_errors) diags.promote_warnings();
  if (diags.has_errors()) throw check::CheckError(std::move(diags));
  return diags.take();
}

// Simulates the network's banks in order, bank i over `contexts[i]`, or
// over the one context of a homogeneous design, and rolls them up with
// the I/O interfaces and the Eq. 15 accuracy chain.
AcceleratorReport simulate_banks(const CheckedNetwork& checked,
                                 std::span<DesignContext> contexts,
                                 std::vector<check::Diagnostic> diagnostics) {
  const nn::Network& network = checked.network();
  const std::vector<BankLayers>& banks = checked.banks();
  const AcceleratorConfig& config = contexts.front().config();
  AcceleratorReport rep;
  rep.diagnostics = std::move(diagnostics);
  rep.banks.reserve(banks.size());
  std::vector<double> eps_worst;
  std::vector<double> eps_avg;
  eps_worst.reserve(banks.size());
  eps_avg.reserve(banks.size());
  // One crossbar solve cache shared by every bank's fault circuit-check,
  // built for the first bank that runs one: the checks all clip to
  // fault.circuit_check_size, so after the first bank builds the
  // topology the remaining banks refill it (cache_hits in the solver
  // diagnostics below).
  std::optional<spice::CrossbarSolveCache> solve_cache;
  for (std::size_t i = 0; i < banks.size(); ++i) {
    // Watchdog poll (docs/ROBUSTNESS.md): bank boundaries are the
    // coarsest rung of the cancellation ladder — the finer ones sit in
    // the CG/LU/Newton loops a bank's circuit checks may enter.
    util::throw_if_cancelled("arch.bank");
    obs::Span bank_span("arch.bank");
    DesignContext& context = contexts[contexts.size() == 1 ? 0 : i];
    const fault::FaultConfig& defects = context.config().fault;
    if (defects.enabled() && defects.circuit_check && !solve_cache)
      solve_cache.emplace();
    const BankReport& bank = rep.banks.emplace_back(simulate_bank(
        banks[i], network, context, solve_cache ? &*solve_cache : nullptr));
    rep.area += bank.area;
    rep.leakage_power += bank.leakage_power;
    rep.sample_latency += bank.sample_latency;
    rep.pipeline_cycle = std::max(rep.pipeline_cycle, bank.pass_latency);
    rep.energy_per_sample += bank.energy_per_sample;
    rep.total_crossbars += bank.mapping.total_crossbars;
    rep.total_units += bank.mapping.unit_count;
    eps_worst.push_back(bank.epsilon_worst);
    eps_avg.push_back(bank.epsilon_average);
    rep.solver.absorb(bank.solver);
    accumulate_breakdown(rep.breakdown, bank);
  }
  rep.fault_config = config.fault;

  obs::Registry& reg = obs::Registry::global();
  reg.add("arch.banks", static_cast<long>(rep.banks.size()));
  reg.add("arch.crossbars", rep.total_crossbars);
  if (rep.solver.faults_injected)
    reg.add("fault.faults_injected", rep.solver.faults_injected);

  // Accelerator I/O interfaces (Sec. III-A).
  {
    obs::Span io_span("arch.interfaces");
    circuit::IoInterfaceModel io_in;
    io_in.wires = config.interface_in;
    io_in.sample_bits = network.input_size() * network.input_bits;
    io_in.bus_clock = units::Hertz{config.bus_clock};
    io_in.tech = contexts.front().cmos();
    rep.io_input = io_in.ppa();

    circuit::IoInterfaceModel io_out;
    io_out.wires = config.interface_out;
    io_out.sample_bits = network.output_size() * config.output_bits;
    io_out.bus_clock = units::Hertz{config.bus_clock};
    io_out.tech = contexts.front().cmos();
    rep.io_output = io_out.ppa();
  }

  rep.breakdown.interfaces.area = rep.io_input.area + rep.io_output.area;
  rep.breakdown.interfaces.energy =
      rep.io_input.dynamic_power * rep.io_input.latency +
      rep.io_output.dynamic_power * rep.io_output.latency;

  rep.area += rep.io_input.area + rep.io_output.area;
  rep.leakage_power +=
      rep.io_input.leakage_power + rep.io_output.leakage_power;
  rep.sample_latency += rep.io_input.latency + rep.io_output.latency;
  rep.energy_per_sample +=
      rep.io_input.dynamic_power * rep.io_input.latency +
      rep.io_output.dynamic_power * rep.io_output.latency;

  rep.power = rep.sample_latency > 0
                  ? rep.energy_per_sample / rep.sample_latency
                  : 0.0;

  // Accuracy propagation across banks (Eq. 15), then digitization
  // (Eq. 12-14) at the read-circuit quantization.
  const int k = 1 << config.output_bits;
  // A validated network has at least one bank: never empty.
  rep.epsilon_worst = accuracy::propagate_layers(eps_worst).back();
  rep.epsilon_average = accuracy::propagate_layers(eps_avg).back();
  rep.max_error_rate = accuracy::max_error_rate(k, rep.epsilon_worst);
  rep.avg_error_rate = accuracy::avg_error_rate(k, rep.epsilon_average);
  rep.relative_accuracy = 1.0 - rep.avg_error_rate;
  return rep;
}

}  // namespace

CheckedNetwork::CheckedNetwork(const nn::Network& network)
    : network_(&network) {
  network.validate();
  diagnostics_ = check::check_network(network);
  banks_ = gather_banks(network);
}

AcceleratorReport simulate_accelerator(const CheckedNetwork& network,
                                       DesignContext& context) {
  obs::Span span("arch.simulate_accelerator");
  auto diagnostics = preflight(network, std::span(&context, 1));
  return simulate_banks(network, std::span(&context, 1),
                        std::move(diagnostics));
}

AcceleratorReport simulate_accelerator(const nn::Network& network,
                                       const AcceleratorConfig& config) {
  const CheckedNetwork checked(network);
  DesignContext context(config);
  return simulate_accelerator(checked, context);
}

AcceleratorReport simulate_accelerator(
    const nn::Network& network,
    const std::vector<AcceleratorConfig>& per_bank_configs) {
  obs::Span span("arch.simulate_accelerator");
  const CheckedNetwork checked(network);
  if (per_bank_configs.empty())
    throw std::invalid_argument("simulate_accelerator: no configurations");
  std::vector<DesignContext> contexts;
  contexts.reserve(per_bank_configs.size());
  for (const auto& cfg : per_bank_configs) contexts.emplace_back(cfg);

  auto diagnostics = preflight(checked, contexts);
  if (per_bank_configs.size() != checked.banks().size())
    throw std::invalid_argument(
        "simulate_accelerator: need one configuration per weighted layer (" +
        std::to_string(checked.banks().size()) + "), got " +
        std::to_string(per_bank_configs.size()));
  return simulate_banks(checked, contexts, std::move(diagnostics));
}

}  // namespace mnsim::arch
