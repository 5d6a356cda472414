// MNSIM configuration (paper Table I).
//
// Every design knob is classified into the three hierarchy levels:
// Accelerator (Interface_Number, Network_Depth — the latter comes from
// the nn::Network), Computation Bank (Network_Type, Network_Scale,
// Crossbar_Size, Pooling_Size), and Computation Unit (Weight_Polarity,
// CMOS_Tech, Cell_Type, Memristor_Model, Interconnect_Tech,
// Parallelism_Degree, Resistance_Range). AcceleratorConfig carries them
// all with the paper's defaults and can be populated from an INI-style
// configuration file via from_config.
#pragma once

#include <optional>
#include <string_view>

#include "circuit/adc.hpp"
#include "circuit/neuron.hpp"
#include "fault/fault_model.hpp"
#include "nn/network.hpp"
#include "spice/mna.hpp"
#include "tech/cmos_tech.hpp"
#include "tech/memristor.hpp"
#include "util/config.hpp"

namespace mnsim::arch {

// The [cycle] configuration vocabulary of the cycle engine
// (arch/cycle_sim.*; docs/PERFORMANCE.md, "Cycle-accurate mode").
//
// Which operand a bank keeps resident across its matrix-vector passes.
// Weight-stationary is the memristor reality (weights live in the
// crossbar cells); input-/output-stationary buffer the whole sample's
// ifmap / ofmap in the scratchpad and trade pipeline overlap for
// backing-store traffic batching.
enum class Dataflow { kWeightStationary, kInputStationary, kOutputStationary };

// When an ifmap tile's fill transfer may start: prefetch lets fills run
// ahead of the consuming compute (bounded by the scratchpad capacity);
// demand starts each fill only once the PE has finished the previous
// tile. Only banks with a resident ofmap have fills that can run ahead:
// a streamed bank's fill already waits for the previous tile's drain.
enum class FillPolicy { kPrefetch, kDemand };

[[nodiscard]] const char* dataflow_name(Dataflow dataflow);
[[nodiscard]] const char* fill_policy_name(FillPolicy policy);
// Accepts the config spellings ("weight_stationary" / "ws", ...).
// Returns nullopt for unknown names.
[[nodiscard]] std::optional<Dataflow> parse_dataflow(std::string_view name);
[[nodiscard]] std::optional<FillPolicy> parse_fill_policy(
    std::string_view name);

struct AcceleratorConfig {
  // --- Accelerator level ---
  int interface_in = 128;    // Interface_Number[0]: input bus lines
  int interface_out = 128;   // Interface_Number[1]: output bus lines
  double bus_clock = 200e6;

  // --- Computation Bank level ---
  int crossbar_size = 128;   // Crossbar_Size
  int pooling_size = 2;      // Pooling_Size (CNN window)
  bool pipelined = true;     // multi-layer accelerators pipeline by default

  // --- Computation Unit level ---
  int weight_polarity = 2;         // 1 = unsigned, 2 = signed weights
  bool signed_two_crossbars = true;  // method (1) two crossbars vs
                                     // method (2) doubled columns
  int cmos_node_nm = 90;           // CMOS_Tech
  tech::CellType cell_type = tech::CellType::k1T1R;  // Cell_Type
  std::string memristor_model = "RRAM";              // Memristor_Model
  int interconnect_node_nm = 28;   // Interconnect_Tech
  int parallelism = 0;             // Parallelism_Degree; 0 = all parallel
  double resistance_min = 500.0;   // Resistance_Range
  double resistance_max = 500e3;
  double sense_resistance = 60.0;
  double device_sigma = 0.0;       // device variation (Sec. VI-D)

  // Read/convert circuit choices (Sec. V-C).
  circuit::AdcKind adc_kind = circuit::AdcKind::kMultiLevelSA;
  double adc_clock = 50e6;
  int output_bits = 8;  // read-circuit quantization (k = 2^output_bits)

  // The sections below carry the non-Table-I keys; docs/CONFIGURATION.md
  // documents each key, config_keys() maps it onto its field.

  // Hard-defect injection ([fault]; fault model in docs/ROBUSTNESS.md).
  fault::FaultConfig fault;

  // Circuit-level solver knobs ([solver]): CG tolerance/budget, the
  // graceful-degradation ladder and the structured (Schur) rung.
  double solver_cg_tolerance = 1e-12;
  long solver_cg_max_iterations = 0;  // 0 = auto
  bool solver_allow_fallback = true;
  bool solver_structured = true;  // off costs throughput, never correctness

  // Sweep worker threads ([parallel]); results are bit-identical for any
  // value (docs/PERFORMANCE.md).
  int parallel_threads = 1;

  // Pre-flight static analysis ([check]; docs/DIAGNOSTICS.md).
  bool check_preflight = true;
  bool check_warnings_as_errors = false;
  double check_wire_drop_warning = 0.10;

  // Crash-safe sweep execution ([sweep]; docs/ROBUSTNESS.md).
  std::string sweep_checkpoint;
  int sweep_shard_index = 0;
  int sweep_shard_count = 1;
  bool sweep_resume = false;
  double sweep_deadline_ms = 0.0;
  int sweep_max_attempts = 2;

  // Cycle-level dataflow engine, arch/cycle_sim.* ([cycle];
  // docs/PERFORMANCE.md). Clock 0 = auto: the shortest pass spans
  // kAutoCyclesPerPass cycles.
  bool cycle_enabled = false;
  Dataflow cycle_dataflow = Dataflow::kWeightStationary;
  FillPolicy cycle_fill_policy = FillPolicy::kPrefetch;
  double cycle_ifmap_kb = 32.0;
  double cycle_filter_kb = 256.0;
  double cycle_ofmap_kb = 32.0;
  double cycle_bandwidth_gbps = 8.0;
  double cycle_clock_ghz = 0.0;
  long cycle_max_events = 256;

  // Observability ([trace]; docs/OBSERVABILITY.md). Tracing only
  // observes: results never depend on it.
  bool trace_enabled = false;
  std::string trace_output;
  bool trace_metrics = true;

  // DC-solve options derived from the solver knobs above.
  [[nodiscard]] spice::DcOptions solver_options() const;

  // Returns the configured device with the resistance range and variation
  // applied.
  [[nodiscard]] tech::MemristorModel device() const;
  [[nodiscard]] tech::CmosTech cmos() const;

  // Effective parallelism for a crossbar with `columns` used columns.
  [[nodiscard]] int effective_parallelism(int columns) const;

  // Reference neuron for a network type (sigmoid / IF / ReLU; Sec. III-B.4).
  static circuit::NeuronKind neuron_for(nn::NetworkType type);

  // Reads every key of config_keys() present in `config` (keys spelled
  // as the paper: Interface_Number = [128, 128], Crossbar_Size = 128,
  // Cell_Type = 1T1R, ...), then validate()s. The first bad value throws
  // util::ConfigError with its MN-CFG-003 message. Unknown keys are
  // ignored so user configs can carry extra sections.
  static AcceleratorConfig from_config(const util::Config& config);

  void validate() const;

  bool operator==(const AcceleratorConfig&) const = default;
};

// One row of the accelerator-configuration key table: the only place a
// key's name, type and range are spelled. from_config reads through it;
// `mnsim check` takes its key registry, MN-CFG-003 value checks and
// did-you-mean candidates from it; docs/CONFIGURATION.md documents each
// row (a test holds the two in step). A key's default is the
// AcceleratorConfig initializer.
struct ConfigKey {
  struct Range {
    double min;
    double max;
  };
  // Parses the value of `key` from `config`, checks its type, range or
  // spelling, and stores it in `out`. Throws util::ConfigError carrying
  // the MN-CFG-003 message (and hint) on a bad value.
  using Reader = void (*)(const ConfigKey& key, const util::Config& config,
                          AcceleratorConfig& out);

  std::string name;  // section-qualified ("fault.Seed"); bare = top level
  Reader read;
  std::optional<Range> range = {};  // inclusive bounds of a scalar numeric key
};

// The key table in registry order (did-you-mean breaks ties by it).
[[nodiscard]] const std::vector<ConfigKey>& config_keys();

}  // namespace mnsim::arch
