#include "arch/design_context.hpp"

#include "tech/interconnect.hpp"

namespace mnsim::arch {

namespace {

const AcceleratorConfig& validated(const AcceleratorConfig& config) {
  config.validate();
  return config;
}

}  // namespace

DesignContext::DesignContext(const AcceleratorConfig& config)
    : config_(&validated(config)),
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

UnitReport DesignContext::unit(int rows_used, int cols_used, int input_bits,
                               int weight_bits) {
  for (const UnitEntry& e : units_)
    if (e.rows_used == rows_used && e.cols_used == cols_used &&
        e.input_bits == input_bits && e.weight_bits == weight_bits)
      return e.report;
  UnitReport report =
      simulate_unit(*this, rows_used, cols_used, input_bits, weight_bits);
  units_.push_back({rows_used, cols_used, input_bits, weight_bits, report});
  return report;
}

accuracy::VoltageError DesignContext::voltage_error(int rows, int cols) {
  for (const ErrorEntry& e : errors_)
    if (e.rows == rows && e.cols == cols) return e.error;
  const auto error = accuracy::estimate_voltage_error(error_inputs(rows, cols));
  errors_.push_back({rows, cols, error});
  return error;
}

}  // namespace mnsim::arch
