#include "arch/params.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>
#include <type_traits>

#include "tech/interconnect.hpp"

namespace mnsim::arch {

const char* dataflow_name(Dataflow dataflow) {
  switch (dataflow) {
    case Dataflow::kWeightStationary:
      return "weight_stationary";
    case Dataflow::kInputStationary:
      return "input_stationary";
    case Dataflow::kOutputStationary:
      return "output_stationary";
  }
  throw std::logic_error("dataflow_name: unreachable");
}

const char* fill_policy_name(FillPolicy policy) {
  switch (policy) {
    case FillPolicy::kPrefetch:
      return "prefetch";
    case FillPolicy::kDemand:
      return "demand";
  }
  throw std::logic_error("fill_policy_name: unreachable");
}

std::optional<Dataflow> parse_dataflow(std::string_view name) {
  if (name == "weight_stationary" || name == "ws")
    return Dataflow::kWeightStationary;
  if (name == "input_stationary" || name == "is")
    return Dataflow::kInputStationary;
  if (name == "output_stationary" || name == "os")
    return Dataflow::kOutputStationary;
  return std::nullopt;
}

std::optional<FillPolicy> parse_fill_policy(std::string_view name) {
  if (name == "prefetch") return FillPolicy::kPrefetch;
  if (name == "demand") return FillPolicy::kDemand;
  return std::nullopt;
}

tech::MemristorModel AcceleratorConfig::device() const {
  tech::MemristorModel m = tech::memristor_by_name(memristor_model);
  m.r_min = units::Ohms{resistance_min};
  m.r_max = units::Ohms{resistance_max};
  m.sigma = device_sigma;
  m.validate();
  return m;
}

tech::CmosTech AcceleratorConfig::cmos() const {
  return tech::cmos_tech(cmos_node_nm);
}

spice::DcOptions AcceleratorConfig::solver_options() const {
  spice::DcOptions opt;
  opt.cg_tolerance = solver_cg_tolerance;
  opt.cg_max_iterations =
      static_cast<std::size_t>(std::max<long>(solver_cg_max_iterations, 0));
  opt.allow_fallback = solver_allow_fallback;
  opt.allow_schur = solver_structured;
  opt.preflight = check_preflight;
  return opt;
}

int AcceleratorConfig::effective_parallelism(int columns) const {
  if (columns <= 0)
    throw std::invalid_argument("effective_parallelism: columns");
  if (parallelism <= 0) return columns;  // 0 means all parallel (Table I)
  return std::min(parallelism, columns);
}

circuit::NeuronKind AcceleratorConfig::neuron_for(nn::NetworkType type) {
  switch (type) {
    case nn::NetworkType::kAnn:
      return circuit::NeuronKind::kSigmoid;
    case nn::NetworkType::kSnn:
      return circuit::NeuronKind::kIntegrateFire;
    case nn::NetworkType::kCnn:
      return circuit::NeuronKind::kRelu;
  }
  throw std::logic_error("neuron_for: unreachable");
}

AcceleratorConfig AcceleratorConfig::from_config(const util::Config& cfg) {
  AcceleratorConfig c;
  for (const auto& key : config_keys())
    if (cfg.has(key.name)) key.read(key, cfg, c);
  c.validate();
  return c;
}

void AcceleratorConfig::validate() const {
  if (interface_in <= 0 || interface_out <= 0)
    throw std::invalid_argument("AcceleratorConfig: interface ports");
  if (crossbar_size < 2 || (crossbar_size & (crossbar_size - 1)) != 0)
    throw std::invalid_argument(
        "AcceleratorConfig: crossbar size must be a power of two >= 2");
  if (pooling_size < 1)
    throw std::invalid_argument("AcceleratorConfig: pooling size");
  if (weight_polarity != 1 && weight_polarity != 2)
    throw std::invalid_argument("AcceleratorConfig: weight polarity 1 or 2");
  if (parallelism < 0)
    throw std::invalid_argument("AcceleratorConfig: parallelism");
  if (!(resistance_min > 0) || !(resistance_max > resistance_min))
    throw std::invalid_argument("AcceleratorConfig: resistance range");
  if (output_bits < 1 || output_bits > 14)
    throw std::invalid_argument("AcceleratorConfig: output bits");
  if (!(solver_cg_tolerance > 0) || solver_cg_max_iterations < 0)
    throw std::invalid_argument("AcceleratorConfig: solver options");
  if (parallel_threads < 0)
    throw std::invalid_argument("AcceleratorConfig: parallel threads");
  if (!(check_wire_drop_warning >= 0))
    throw std::invalid_argument("AcceleratorConfig: wire-drop threshold");
  if (sweep_shard_count < 1 || sweep_shard_index < 0 ||
      sweep_shard_index >= sweep_shard_count)
    throw std::invalid_argument(
        "AcceleratorConfig: sweep shard must satisfy 0 <= index < count");
  // The cycle engine turns these into integer slot and cycle counts, so
  // they must be finite (isfinite first: an ordered compare on a NaN
  // raises FE_INVALID). The INI ranges bound them; a programmatic config
  // reaches here unchecked.
  const auto positive_finite = [](double v) {
    return std::isfinite(v) && v > 0;
  };
  if (!positive_finite(cycle_ifmap_kb) || !positive_finite(cycle_filter_kb) ||
      !positive_finite(cycle_ofmap_kb))
    throw std::invalid_argument(
        "AcceleratorConfig: cycle scratchpad sizes must be positive and "
        "finite");
  if (!positive_finite(cycle_bandwidth_gbps))
    throw std::invalid_argument(
        "AcceleratorConfig: cycle bandwidth must be positive and finite");
  if (!std::isfinite(cycle_clock_ghz) || cycle_clock_ghz < 0)
    throw std::invalid_argument("AcceleratorConfig: cycle clock");
  if (cycle_max_events < 0)
    throw std::invalid_argument("AcceleratorConfig: cycle event cap");
  if (!(sweep_deadline_ms >= 0))
    throw std::invalid_argument("AcceleratorConfig: sweep deadline");
  if (sweep_max_attempts < 1)
    throw std::invalid_argument("AcceleratorConfig: sweep max attempts");
  fault.validate();
  (void)cmos();                    // range check
  (void)device();                  // device validation
  (void)tech::interconnect_tech(interconnect_node_nm);
}

namespace {

template <typename T>
T& field(AcceleratorConfig& c, T AcceleratorConfig::*member) {
  return c.*member;
}

template <typename T>
T& field(AcceleratorConfig& c, T fault::FaultConfig::*member) {
  return c.fault.*member;
}

// Numbers are checked against the key's range; integers as the parsed
// long, before any narrowing.
template <typename V>
V in_range(const ConfigKey& key, V v) {
  const auto min = static_cast<V>(key.range->min);
  const auto max = static_cast<V>(key.range->max);
  if (!(v >= min) || !(v <= max))
    throw util::ConfigError("'" + key.name + "' = " + std::to_string(v) +
                            " outside the supported range [" +
                            std::to_string(min) + ", " +
                            std::to_string(max) + "]");
  return v;
}

// Reader of a plain field, typed by the field: bool, string, floating
// point or integer.
template <auto Member>
void scalar(const ConfigKey& key, const util::Config& cfg,
            AcceleratorConfig& c) {
  auto& f = field(c, Member);
  using T = std::remove_reference_t<decltype(f)>;
  if constexpr (std::is_same_v<T, bool>) {
    f = cfg.get_bool(key.name);
  } else if constexpr (std::is_same_v<T, std::string>) {
    f = cfg.get_string(key.name);
  } else if constexpr (std::is_floating_point_v<T>) {
    f = in_range(key, cfg.get_double(key.name));
  } else {
    f = static_cast<T>(in_range(key, cfg.get_int(key.name)));
  }
}

}  // namespace

const std::vector<ConfigKey>& config_keys() {
  using C = AcceleratorConfig;
  using F = fault::FaultConfig;
  using R = ConfigKey::Range;
  static const std::vector<ConfigKey> keys = {
      {"Interface_Number",
       [](auto& key, auto& cfg, auto& c) {
         const auto v = cfg.get_int_list(key.name);
         if (v.size() != 2 || std::min(v[0], v[1]) < 1 ||
             std::max(v[0], v[1]) > std::numeric_limits<int>::max())
           throw util::ConfigError("'" + key.name +
                                   "' needs two positive entries [in, out]");
         c.interface_in = static_cast<int>(v[0]);
         c.interface_out = static_cast<int>(v[1]);
       }},
      {"Crossbar_Size",
       [](auto& key, auto& cfg, auto& c) {
         const long v = cfg.get_int(key.name);
         if (v < 2 || (v & (v - 1)) != 0) {
           long pow2 = 2;
           while (pow2 < v && pow2 < (1L << 20)) pow2 <<= 1;
           throw util::ConfigError(
               "'" + key.name + "' = " + std::to_string(v) +
                   " must be a power of two >= 2",
               "nearest supported size: " + std::to_string(pow2));
         }
         c.crossbar_size = static_cast<int>(in_range(key, v));
       },
       R{2, 1L << 30}},
      {"Pooling_Size", scalar<&C::pooling_size>, R{1, 64}},
      {"Weight_Polarity", scalar<&C::weight_polarity>, R{1, 2}},
      {"CMOS_Tech", scalar<&C::cmos_node_nm>, R{16, 250}},
      {"Cell_Type",
       [](auto& key, auto& cfg, auto& c) {
         const std::string v = cfg.get_string(key.name);
         if (v != "1T1R" && v != "0T1R")
           throw util::ConfigError("'" + key.name +
                                   "' must be 1T1R or 0T1R, got '" + v + "'");
         c.cell_type =
             v == "1T1R" ? tech::CellType::k1T1R : tech::CellType::k0T1R;
       }},
      {"Memristor_Model",
       [](auto& key, auto& cfg, auto& c) {
         std::string v = cfg.get_string(key.name);
         try {
           (void)tech::memristor_by_name(v);
         } catch (const std::invalid_argument&) {
           throw util::ConfigError("unknown device model '" + v + "'",
                                   "supported models: RRAM, PCM, STT-MRAM");
         }
         c.memristor_model = std::move(v);
       }},
      {"Interconnect_Tech", scalar<&C::interconnect_node_nm>, R{10, 180}},
      {"Parallelism_Degree", scalar<&C::parallelism>, R{0, 1L << 20}},
      {"Resistance_Range",
       [](auto& key, auto& cfg, auto& c) {
         const auto v = cfg.get_list(key.name);
         if (v.size() != 2 || !(v[0] > 0) || !(v[1] > v[0]))
           throw util::ConfigError(
               "'" + key.name +
               "' needs [min, max] with 0 < min < max (ohms)");
         c.resistance_min = v[0];
         c.resistance_max = v[1];
       }},
      {"Output_Bits", scalar<&C::output_bits>, R{1, 14}},
      {"Sense_Resistance", scalar<&C::sense_resistance>, R{0, 1e6}},
      {"Device_Sigma", scalar<&C::device_sigma>, R{0, 0.3}},
      {"Pipelined", scalar<&C::pipelined>},
      {"fault.Stuck_At_0_Rate", scalar<&F::stuck_at_zero_rate>, R{0, 1}},
      {"fault.Stuck_At_1_Rate", scalar<&F::stuck_at_one_rate>, R{0, 1}},
      {"fault.Wordline_Defect_Rate", scalar<&F::broken_wordline_rate>,
       R{0, 1}},
      {"fault.Bitline_Defect_Rate", scalar<&F::broken_bitline_rate>, R{0, 1}},
      {"fault.Retention_Time", scalar<&F::retention_time>, R{0, 1e12}},
      {"fault.Seed", scalar<&F::seed>, R{0, 4294967295.0}},
      {"fault.Circuit_Check", scalar<&F::circuit_check>},
      {"fault.Circuit_Check_Size", scalar<&F::circuit_check_size>,
       R{2, 1L << 14}},
      {"solver.CG_Tolerance",
       [](auto& key, auto& cfg, auto& c) {
         const double v = cfg.get_double(key.name);
         if (!(v > 0))
           throw util::ConfigError("'" + key.name + "' must be positive");
         c.solver_cg_tolerance = v;
       }},
      {"solver.CG_Max_Iterations", scalar<&C::solver_cg_max_iterations>,
       R{0, 1L << 30}},
      {"solver.Allow_Fallback", scalar<&C::solver_allow_fallback>},
      {"solver.Structured", scalar<&C::solver_structured>},
      {"parallel.Threads", scalar<&C::parallel_threads>, R{0, 4096}},
      {"check.Enabled", scalar<&C::check_preflight>},
      {"check.Warnings_As_Errors", scalar<&C::check_warnings_as_errors>},
      {"check.Wire_Drop_Warning", scalar<&C::check_wire_drop_warning>,
       R{0, 1}},
      {"trace.Enabled", scalar<&C::trace_enabled>},
      {"trace.Output", scalar<&C::trace_output>},
      {"trace.Metrics", scalar<&C::trace_metrics>},
      {"sweep.Checkpoint", scalar<&C::sweep_checkpoint>},
      {"sweep.Shard_Index", scalar<&C::sweep_shard_index>, R{0, 1L << 20}},
      {"sweep.Shard_Count", scalar<&C::sweep_shard_count>, R{1, 1L << 20}},
      {"sweep.Resume", scalar<&C::sweep_resume>},
      {"sweep.Point_Deadline_Ms", scalar<&C::sweep_deadline_ms>, R{0, 1e9}},
      {"sweep.Max_Attempts", scalar<&C::sweep_max_attempts>, R{1, 100}},
      {"cycle.Enabled", scalar<&C::cycle_enabled>},
      {"cycle.Dataflow",
       [](auto& key, auto& cfg, auto& c) {
         const std::string v = cfg.get_string(key.name);
         const auto parsed = parse_dataflow(v);
         if (!parsed)
           throw util::ConfigError(
               "unknown dataflow '" + v + "'",
               "supported: weight_stationary, input_stationary, "
               "output_stationary (or ws/is/os)");
         c.cycle_dataflow = *parsed;
       }},
      {"cycle.Fill_Policy",
       [](auto& key, auto& cfg, auto& c) {
         const std::string v = cfg.get_string(key.name);
         const auto parsed = parse_fill_policy(v);
         if (!parsed)
           throw util::ConfigError("unknown fill policy '" + v + "'",
                                   "supported: prefetch, demand");
         c.cycle_fill_policy = *parsed;
       }},
      {"cycle.Ifmap_KB", scalar<&C::cycle_ifmap_kb>, R{1e-3, 1e6}},
      {"cycle.Filter_KB", scalar<&C::cycle_filter_kb>, R{1e-3, 1e6}},
      {"cycle.Ofmap_KB", scalar<&C::cycle_ofmap_kb>, R{1e-3, 1e6}},
      {"cycle.Bandwidth_GBps", scalar<&C::cycle_bandwidth_gbps>, R{1e-6, 1e6}},
      {"cycle.Clock_GHz", scalar<&C::cycle_clock_ghz>, R{0, 1e3}},
      {"cycle.Max_Events", scalar<&C::cycle_max_events>, R{0, 1L << 30}},
  };
  return keys;
}

}  // namespace mnsim::arch
