// Configuration cross-field validation (`mnsim check`, config pass).
//
// Three layers of defense for the INI inputs, each with a stable code:
//   * key/section registry — the accelerator configuration and the
//     network-description dialect have a closed key set; an unknown key
//     in a known section is the classic silent typo (`Theads = 8`) and
//     reports MN-CFG-001 with a did-you-mean hint (edit distance over
//     the registry), an unknown section reports MN-CFG-002. The
//     registries are arch::config_keys() and nn::network_keys(),
//   * per-key value validation — type, range, and structure (power-of-
//     two crossbars, [min, max] lists, enum spellings) as MN-CFG-003,
//     through the same key-table readers AcceleratorConfig::from_config
//     runs, with unit-plausibility warnings (MN-CFG-005) computed
//     through the dimensional-safety Quantity layer,
//   * inter-key consistency — constraints spanning several keys
//     (parallelism vs. crossbar size, read-circuit quantization vs. cell
//     level bits, fault-check sub-array vs. array geometry, wire-drop
//     estimate from the interconnect node) as MN-CFG-004/005.
//
// Additionally, util::Config tracks which keys its consumers actually
// probed; keys that parse but are never read by any registered consumer
// report MN-CFG-006 (promotable to error via [check]
// Warnings_As_Errors).
#pragma once

#include "arch/params.hpp"
#include "check/diagnostic.hpp"
#include "util/config.hpp"

namespace mnsim::arch {
class DesignContext;
}  // namespace mnsim::arch

namespace mnsim::check {

// Full pass over an accelerator configuration file: registry + values +
// validate() bridge + consistency.
[[nodiscard]] DiagnosticList check_accelerator_config(
    const util::Config& config);

// Full pass over a network-description file: nn::read_network (the key
// table of nn/parser.hpp: MN-CFG-001/002/003, each at its key), then,
// when every value was read, the structural passes of check_network.
[[nodiscard]] DiagnosticList check_network_description(
    const util::Config& config);

// Inter-key consistency over an already-built configuration (also the
// pre-flight entry used by simulate/explore, where no raw Config
// exists).
[[nodiscard]] DiagnosticList check_config_consistency(
    const arch::AcceleratorConfig& config);

// The same pass over the already-checked configuration of `context`,
// reading the device and wire resistance it derived.
[[nodiscard]] DiagnosticList check_config_consistency(
    const arch::DesignContext& context);

// MN-CFG-006 for every parsed-but-never-probed key of `config`. Call
// after the consumer (e.g. AcceleratorConfig::from_config) has run.
void check_unread_keys(const util::Config& config, DiagnosticList& out);

// Emits a diagnostic at `key` of `config`: its file, line and location.
Diagnostic& emit_at_key(DiagnosticList& out, const util::Config& config,
                        const char* code, Severity severity,
                        std::string message, const std::string& key);

// Closest registry entry within a small edit distance, for did-you-mean
// hints; empty when nothing is plausibly close.
[[nodiscard]] std::string nearest_key(const std::string& key,
                                      const std::vector<std::string>& known);

}  // namespace mnsim::check
