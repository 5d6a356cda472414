// One design point of the behaviour-level model, checked once.
//
// A simulate call evaluates many banks over one accelerator
// configuration, and those banks share a handful of crossbar geometries
// (a VGG-16 point has 16 banks but only a few distinct used-block
// shapes). DesignContext validates the configuration once, derives the
// technology values every bank reads (CMOS node, memristor device,
// interconnect segment resistance) once, and memoizes the unit model and
// the Eq. 9-14 error estimate per geometry, so each is evaluated once a
// call.
//
// A context lives for one call on its caller's stack:
// simulate_accelerator builds one per configuration it is given,
// dse::optimize_per_bank one per design point, check::check_mapping and
// generate_program_trace one for all layers, and the public
// simulate_bank, simulate_unit and map_layer one each. It is never shared
// across calls or threads, so the memo needs no lock and no eviction,
// and results are bit-identical to evaluating every geometry afresh.
#pragma once

#include <vector>

#include "accuracy/voltage_error.hpp"
#include "arch/computation_unit.hpp"
#include "arch/params.hpp"

namespace mnsim::arch {

class DesignContext {
 public:
  // Validates `config` (throws as AcceleratorConfig::validate does), then
  // derives the values below. `config` must outlive the context.
  explicit DesignContext(const AcceleratorConfig& config);

  [[nodiscard]] const AcceleratorConfig& config() const { return *config_; }
  [[nodiscard]] const tech::CmosTech& cmos() const { return cmos_; }
  [[nodiscard]] const tech::MemristorModel& device() const { return device_; }

  // The Eq. 9-14 inputs of a rows x cols block of this configuration's
  // crossbars.
  [[nodiscard]] accuracy::CrossbarErrorInputs error_inputs(int rows,
                                                           int cols) const;

  // simulate_unit over this configuration, evaluated once per
  // (rows_used, cols_used, input_bits, weight_bits).
  [[nodiscard]] UnitReport unit(int rows_used, int cols_used, int input_bits,
                                int weight_bits);

  // accuracy::estimate_voltage_error(error_inputs(rows, cols)), evaluated
  // once per (rows, cols).
  [[nodiscard]] accuracy::VoltageError voltage_error(int rows, int cols);

 private:
  struct UnitEntry {
    int rows_used, cols_used, input_bits, weight_bits;
    UnitReport report;
  };
  struct ErrorEntry {
    int rows, cols;
    accuracy::VoltageError error;
  };

  const AcceleratorConfig* config_;
  tech::CmosTech cmos_;
  tech::MemristorModel device_;
  units::Ohms segment_resistance_;
  // A call holds a few entries: a linear scan finds them.
  std::vector<UnitEntry> units_;
  std::vector<ErrorEntry> errors_;
};

}  // namespace mnsim::arch
