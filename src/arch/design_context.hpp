// One design point of the behaviour-level model, checked once.
//
// A simulate call evaluates many banks over one accelerator
// configuration, and those banks share a handful of crossbar geometries
// (a VGG-16 point has 16 banks but only a few distinct used-block
// shapes). DesignContext validates the configuration once, derives the
// technology values every bank reads (CMOS node, memristor device,
// interconnect segment resistance) once, and memoizes per geometry the
// unit model, the Eq. 9-14 error estimate and the hard-defect estimate,
// so each is evaluated once a call.
//
// Lifetime. A context lives for one call on its caller's stack:
// simulate_accelerator builds one per configuration it is given,
// dse::evaluate_design one per design point (and hands it on to the
// cycle engine), dse::optimize_per_bank one per design point,
// check::check_mapping and generate_program_trace one for all layers,
// and the public simulate_bank, simulate_unit and map_layer one each.
// Its own memos die with it, and so do the unit reports that unit()
// hands out by reference: a bank reads them in place, copying none. The
// one memo that crosses calls is a VoltageErrorMemo the caller may lend:
// dse::run_sweep keeps one per pool worker for the whole sweep, because
// the Eq. 9-14 inputs repeat across every parallelism degree of a
// crossbar size. Neither kind is shared between threads, so no memo
// needs a lock, and each caches a pure function of its key, so results
// are bit-identical to evaluating every geometry afresh, at any thread
// count.
#pragma once

#include <memory>
#include <vector>

#include "accuracy/voltage_error.hpp"
#include "arch/computation_unit.hpp"
#include "arch/params.hpp"

namespace mnsim::arch {

// accuracy::estimate_voltage_error keyed by every one of its inputs, for
// a caller that evaluates many design points in a row. A lookup hits
// only when the whole CrossbarErrorInputs is equal. An entry is recorded
// only once its estimate has returned, so a point cancelled or failed
// midway leaves none; entries are never evicted. One thread uses a memo
// at a time: it takes no lock.
class VoltageErrorMemo {
 public:
  [[nodiscard]] accuracy::VoltageError estimate(
      const accuracy::CrossbarErrorInputs& in);

 private:
  struct Entry {
    accuracy::CrossbarErrorInputs in;
    accuracy::VoltageError error;
  };
  // A sweep holds a few dozen entries: a linear scan finds them.
  std::vector<Entry> entries_;
};

class DesignContext {
 public:
  // Validates `config` (throws as AcceleratorConfig::validate does), then
  // derives the values below. `config` must outlive the context, and so
  // must `errors` when given: voltage_error then looks there first.
  explicit DesignContext(const AcceleratorConfig& config,
                         VoltageErrorMemo* errors = nullptr);

  [[nodiscard]] const AcceleratorConfig& config() const { return *config_; }
  [[nodiscard]] const tech::CmosTech& cmos() const { return cmos_; }
  [[nodiscard]] const tech::MemristorModel& device() const { return device_; }
  [[nodiscard]] units::Ohms segment_resistance() const {
    return segment_resistance_;
  }

  // The Eq. 9-14 inputs of a rows x cols block of this configuration's
  // crossbars.
  [[nodiscard]] accuracy::CrossbarErrorInputs error_inputs(int rows,
                                                           int cols) const;

  // simulate_unit over this configuration, evaluated once per
  // (rows_used, cols_used, input_bits, weight_bits). The reference stays
  // valid, and its report unchanged, for as long as the context lives:
  // later geometries are stored beside it, never over it, and moving the
  // context does not move the reports.
  [[nodiscard]] const UnitReport& unit(int rows_used, int cols_used,
                                       int input_bits, int weight_bits);

  // accuracy::estimate_voltage_error(error_inputs(rows, cols)), evaluated
  // once per (rows, cols), or taken from the lent memo.
  [[nodiscard]] accuracy::VoltageError voltage_error(int rows, int cols);

  // fault::estimate_fault_error(error_inputs(rows, cols), config().fault),
  // evaluated once per (rows, cols). The defect map is a pure function of
  // the geometry and the fault seed, so every bank of one geometry draws
  // the same map.
  [[nodiscard]] fault::FaultErrorResult fault_error(int rows, int cols);

 private:
  struct UnitEntry {
    int rows_used, cols_used, input_bits, weight_bits;
    // Held apart from the scanned keys, where no insertion moves it.
    std::unique_ptr<const UnitReport> report;
  };
  struct ErrorEntry {
    int rows, cols;
    accuracy::VoltageError error;
  };
  struct FaultEntry {
    int rows, cols;
    fault::FaultErrorResult error;
  };

  const AcceleratorConfig* config_;
  VoltageErrorMemo* shared_errors_;
  tech::CmosTech cmos_;
  tech::MemristorModel device_;
  units::Ohms segment_resistance_;
  // A call holds a few entries: a linear scan finds them.
  std::vector<UnitEntry> units_;
  std::vector<ErrorEntry> errors_;
  std::vector<FaultEntry> faults_;
};

}  // namespace mnsim::arch
