#include "arch/design_context.hpp"

#include "tech/interconnect.hpp"

namespace mnsim::arch {

namespace {

const AcceleratorConfig& validated(const AcceleratorConfig& config) {
  config.validate();
  return config;
}

}  // namespace

accuracy::VoltageError VoltageErrorMemo::estimate(
    const accuracy::CrossbarErrorInputs& in) {
  for (const Entry& e : entries_)
    if (e.in.rows == in.rows && e.in.cols == in.cols && e.in == in)
      return e.error;
  const auto error = accuracy::estimate_voltage_error(in);
  entries_.push_back({in, error});
  return error;
}

DesignContext::DesignContext(const AcceleratorConfig& config,
                             VoltageErrorMemo* errors)
    : config_(&validated(config)),
      shared_errors_(errors),
      cmos_(config.cmos()),
      device_(config.device()),
      segment_resistance_(
          tech::interconnect_tech(config.interconnect_node_nm)
              .segment_resistance) {}

accuracy::CrossbarErrorInputs DesignContext::error_inputs(int rows,
                                                          int cols) const {
  accuracy::CrossbarErrorInputs in;
  in.rows = rows;
  in.cols = cols;
  in.device = device_;
  in.segment_resistance = segment_resistance_;
  in.sense_resistance = units::Ohms{config_->sense_resistance};
  return in;
}

const UnitReport& DesignContext::unit(int rows_used, int cols_used,
                                      int input_bits, int weight_bits) {
  for (const UnitEntry& e : units_)
    if (e.rows_used == rows_used && e.cols_used == cols_used &&
        e.input_bits == input_bits && e.weight_bits == weight_bits)
      return *e.report;
  auto report = std::make_unique<const UnitReport>(
      simulate_unit(*this, rows_used, cols_used, input_bits, weight_bits));
  units_.push_back(
      {rows_used, cols_used, input_bits, weight_bits, std::move(report)});
  return *units_.back().report;
}

accuracy::VoltageError DesignContext::voltage_error(int rows, int cols) {
  for (const ErrorEntry& e : errors_)
    if (e.rows == rows && e.cols == cols) return e.error;
  const auto in = error_inputs(rows, cols);
  const auto error = shared_errors_ != nullptr
                         ? shared_errors_->estimate(in)
                         : accuracy::estimate_voltage_error(in);
  errors_.push_back({rows, cols, error});
  return error;
}

fault::FaultErrorResult DesignContext::fault_error(int rows, int cols) {
  for (const FaultEntry& e : faults_)
    if (e.rows == rows && e.cols == cols) return e.error;
  const auto error =
      fault::estimate_fault_error(error_inputs(rows, cols), config_->fault);
  faults_.push_back({rows, cols, error});
  return error;
}

}  // namespace mnsim::arch
