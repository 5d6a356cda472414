#include "check/config_check.hpp"

#include <algorithm>
#include <cctype>
#include <set>
#include <string>
#include <vector>

#include "arch/design_context.hpp"
#include "check/network_check.hpp"
#include "nn/parser.hpp"
#include "tech/interconnect.hpp"
#include "util/units.hpp"

namespace mnsim::check {

namespace {

// ---- key registry -----------------------------------------------------------

std::pair<std::string, std::string> split_key(const std::string& key) {
  const auto dot = key.find('.');
  if (dot == std::string::npos) return {"", key};
  return {key.substr(0, dot), key.substr(dot + 1)};
}

// The key table's section-qualified names (bare = no section) and the
// sections they use, both in table order.
struct Registry {
  std::vector<std::string> keys;
  std::vector<std::string> sections;
};

const Registry& registry() {
  static const Registry r = [] {
    Registry out;
    for (const auto& key : arch::config_keys()) {
      out.keys.push_back(key.name);
      const std::string section = split_key(key.name).first;
      if (!section.empty() && std::find(out.sections.begin(),
                                        out.sections.end(),
                                        section) == out.sections.end())
        out.sections.push_back(section);
    }
    return out;
  }();
  return r;
}

std::size_t edit_distance(const std::string& a, const std::string& b) {
  std::vector<std::size_t> row(b.size() + 1);
  for (std::size_t j = 0; j <= b.size(); ++j) row[j] = j;
  for (std::size_t i = 1; i <= a.size(); ++i) {
    std::size_t diag = row[0];
    row[0] = i;
    for (std::size_t j = 1; j <= b.size(); ++j) {
      const std::size_t up = row[j];
      const bool same =
          std::tolower(static_cast<unsigned char>(a[i - 1])) ==
          std::tolower(static_cast<unsigned char>(b[j - 1]));
      row[j] = std::min({row[j] + 1, row[j - 1] + 1, diag + (same ? 0 : 1)});
      diag = up;
    }
  }
  return row[b.size()];
}

}  // namespace

std::string nearest_key(const std::string& key,
                        const std::vector<std::string>& known) {
  std::string best;
  std::size_t best_distance = 0;
  for (const auto& candidate : known) {
    const std::size_t d = edit_distance(key, candidate);
    if (best.empty() || d < best_distance) {
      best = candidate;
      best_distance = d;
    }
  }
  // Only suggest plausible typos: within a third of the key's length.
  const std::size_t budget = std::max<std::size_t>(1, key.size() / 3);
  return best_distance <= budget ? best : std::string();
}

Diagnostic& emit_at_key(DiagnosticList& out, const util::Config& cfg,
                        const char* code, Severity severity,
                        std::string message, const std::string& key) {
  auto& d = out.emit(code, severity, std::move(message));
  d.file = cfg.source();
  d.line = cfg.line_of(key);
  d.location = key;
  return d;
}

namespace {

// Unknown-key / unknown-section pass against the key table.
void registry_pass(const util::Config& cfg, DiagnosticList& out) {
  const auto& [keys, sections] = registry();
  std::set<std::string> unknown_sections;
  for (const auto& [key, value] : cfg.entries()) {
    (void)value;
    if (std::find(keys.begin(), keys.end(), key) != keys.end()) continue;
    const auto [section, bare] = split_key(key);
    const bool known_section =
        section.empty() ||
        std::find(sections.begin(), sections.end(), section) !=
            sections.end();
    if (!known_section) {
      // Report the foreign section once; its keys are not typos of ours.
      if (unknown_sections.insert(section).second) {
        auto& d = emit_at_key(out, cfg, "MN-CFG-002", Severity::kWarning,
                              "unknown section [" + section + "]", key);
        d.location = "[" + section + "]";
        const std::string near = nearest_key(section, sections);
        if (!near.empty()) d.hint = "did you mean [" + near + "]?";
      }
      continue;
    }
    auto& d = emit_at_key(
        out, cfg, "MN-CFG-001", Severity::kError,
        "unknown key '" + bare + "'" +
            (section.empty() ? std::string() : " in section [" + section + "]"),
        key);
    const std::string near = nearest_key(key, keys);
    if (!near.empty()) {
      const auto [near_section, near_bare] = split_key(near);
      d.hint = near_section == section
                   ? "did you mean '" + near_bare + "'?"
                   : "did you mean '" + near_bare + "' in section [" +
                         near_section + "]?";
    }
  }
}

// ---- per-key value validation ----------------------------------------------

void value_error(DiagnosticList& out, const util::Config& cfg,
                 const std::string& key, const std::string& message,
                 std::string hint = {}) {
  emit_at_key(out, cfg, "MN-CFG-003", Severity::kError, message, key).hint =
      std::move(hint);
}

// MN-CFG-005 on a well-formed Resistance_Range outside the plausible
// device band (a default or unreadable range is always in band).
void resistance_plausibility(const util::Config& cfg,
                             const arch::AcceleratorConfig& built,
                             DiagnosticList& out) {
  using namespace mnsim::units;
  const Ohms r_min{built.resistance_min};
  const Ohms r_max{built.resistance_max};
  if (r_min >= Ohms{1.0} && r_max <= Ohms{1e9}) return;
  emit_at_key(out, cfg, "MN-CFG-005", Severity::kWarning,
              "'Resistance_Range' = [" +
                  std::to_string(built.resistance_min) + ", " +
                  std::to_string(built.resistance_max) +
                  "] ohm is outside the plausible memristor band [1, 1e9] ohm",
              "Resistance_Range")
      .hint = "values are ohms, not kilo-ohms; 500k is written 500e3";
}

// Cross-key: the shard index must fall inside the shard count.
void shard_order(const util::Config& cfg, DiagnosticList& out) {
  if (!cfg.has("sweep.Shard_Index") || !cfg.has("sweep.Shard_Count")) return;
  try {
    const long index = cfg.get_int("sweep.Shard_Index");
    const long count = cfg.get_int("sweep.Shard_Count");
    if (count >= 1 && index >= count)
      value_error(out, cfg, "sweep.Shard_Index",
                  "'sweep.Shard_Index' must be below 'sweep.Shard_Count'");
  } catch (const util::ConfigError& e) {
    value_error(out, cfg, "sweep.Shard_Index", e.what());
  }
}

// check_config_consistency over `cfg` and the values derived from it.
DiagnosticList consistency_pass(const arch::AcceleratorConfig& cfg,
                                const tech::MemristorModel& device,
                                units::Ohms segment) {
  using namespace mnsim::units;
  DiagnosticList out;

  if (cfg.parallelism > cfg.crossbar_size) {
    auto& d = out.emit(
        "MN-CFG-004", Severity::kWarning,
        "Parallelism_Degree = " + std::to_string(cfg.parallelism) +
            " exceeds Crossbar_Size = " + std::to_string(cfg.crossbar_size) +
            "; the extra read circuits are never used");
    d.location = "Parallelism_Degree";
    d.hint = "0 means one read circuit per column (all parallel)";
  }

  if (cfg.fault.circuit_check &&
      cfg.fault.circuit_check_size > cfg.crossbar_size) {
    auto& d = out.emit(
        "MN-CFG-004", Severity::kError,
        "fault.Circuit_Check_Size = " +
            std::to_string(cfg.fault.circuit_check_size) +
            " references cells outside the " +
            std::to_string(cfg.crossbar_size) + "x" +
            std::to_string(cfg.crossbar_size) + " crossbar");
    d.location = "fault.Circuit_Check_Size";
    d.hint = "the validation sub-array must fit the configured array";
  }

  // Read-circuit quantization vs. what a single cell stores: an ADC with
  // fewer levels than the cell throws away programmed precision.
  if (cfg.output_bits < device.level_bits) {
    auto& d = out.emit(
        "MN-CFG-004", Severity::kWarning,
        "Output_Bits = " + std::to_string(cfg.output_bits) + " (" +
            std::to_string(1 << cfg.output_bits) +
            " ADC levels) quantizes below the cell's " +
            std::to_string(device.level_bits) + "-bit level count");
    d.location = "Output_Bits";
    d.hint = "raise Output_Bits or pick a coarser Memristor_Model";
  }

  // Wire-drop plausibility through the Quantity layer: total wire
  // resistance of the worst-case column against the low-resistance
  // state. Beyond the threshold the Eq. 9-11 error model predicts the
  // array is dominated by IR drop, not by the programmed weights.
  const Ohms wire_total = segment * static_cast<double>(cfg.crossbar_size);
  const Ohms r_min{cfg.resistance_min};
  const double drop_fraction = wire_total / r_min;  // dimensionless ratio
  if (drop_fraction > cfg.check_wire_drop_warning) {
    auto& d = out.emit(
        "MN-CFG-005", Severity::kWarning,
        "worst-case column wire resistance (" +
            std::to_string(wire_total.value()) + " ohm at " +
            std::to_string(cfg.interconnect_node_nm) + " nm x " +
            std::to_string(cfg.crossbar_size) + " cells) is " +
            std::to_string(100.0 * drop_fraction) +
            "% of R_min; IR drop will dominate the computing error");
    d.location = "Crossbar_Size";
    d.hint =
        "shrink Crossbar_Size, pick a finer Interconnect_Tech, or raise "
        "[check] Wire_Drop_Warning to silence";
  }

  const Ohms sense{cfg.sense_resistance};
  if (sense >= r_min * 0.5) {
    auto& d = out.emit(
        "MN-CFG-005", Severity::kWarning,
        "Sense_Resistance = " + std::to_string(cfg.sense_resistance) +
            " ohm is comparable to R_min = " +
            std::to_string(cfg.resistance_min) +
            " ohm; the column load distorts the read voltage");
    d.location = "Sense_Resistance";
    d.hint = "keep the sense load well below the low-resistance state";
  }

  return out;
}

}  // namespace

DiagnosticList check_config_consistency(const arch::AcceleratorConfig& cfg) {
  return consistency_pass(
      cfg, cfg.device(),
      tech::interconnect_tech(cfg.interconnect_node_nm).segment_resistance);
}

DiagnosticList check_config_consistency(const arch::DesignContext& context) {
  return consistency_pass(context.config(), context.device(),
                          context.segment_resistance());
}

void check_unread_keys(const util::Config& cfg, DiagnosticList& out) {
  for (const auto& key : cfg.unread_keys()) {
    auto& d = emit_at_key(out, cfg, "MN-CFG-006", Severity::kWarning,
                          "key '" + key +
                              "' was parsed but never read by any consumer",
                          key);
    const std::string near = nearest_key(key, registry().keys);
    if (!near.empty() && near != key)
      d.hint = "possible typo of '" + near + "'";
  }
}

DiagnosticList check_accelerator_config(const util::Config& cfg) {
  DiagnosticList out;
  registry_pass(cfg, out);

  // Every value through the reader from_config runs; unlike from_config,
  // each bad value reports MN-CFG-003 at its key and the pass goes on.
  arch::AcceleratorConfig built;
  bool values_ok = true;
  for (const auto& key : arch::config_keys()) {
    if (!cfg.has(key.name)) continue;
    try {
      key.read(key, cfg, built);
    } catch (const util::ConfigError& e) {
      value_error(out, cfg, key.name, e.what(), e.hint());
      values_ok = false;
    }
  }
  resistance_plausibility(cfg, built, out);
  shard_order(cfg, out);
  if (!values_ok) return out;

  // What from_config would build; validate() adds information only when
  // the targeted passes missed the problem (a cross-field throw).
  try {
    built.validate();
  } catch (const std::exception& e) {
    if (!out.has_errors())
      out.emit("MN-CFG-003", Severity::kError, e.what()).file = cfg.source();
    return out;
  }
  auto consistency = check_config_consistency(built);
  consistency.set_file(cfg.source());
  out.merge(std::move(consistency));
  return out;
}

DiagnosticList check_network_description(const util::Config& cfg) {
  DiagnosticList out;
  const nn::Network network = nn::read_network(cfg, out);
  if (out.has_errors()) return out;

  // A layer's structural diagnostics point at the line of its `kind`.
  for (Diagnostic& d : check_network(network).take()) {
    d.file = cfg.source();
    if (d.location.size() > 2 && d.location.front() == '[')
      d.line = cfg.line_of(d.location.substr(1, d.location.size() - 2) +
                           ".kind");
    out.add(std::move(d));
  }
  return out;
}

}  // namespace mnsim::check
