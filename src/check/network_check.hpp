// Network / mapping analysis (`mnsim check`, network pass).
//
// The behavior-level flow consumes a layer list and an accelerator
// configuration; each can be internally consistent yet mutually
// incompatible. These passes catch the structural problems before any
// bank is simulated:
//   * MN-NN-001 — layer shape-chain mismatches (a conv whose input
//     geometry is not the previous layer's output, an FC whose fan-in is
//     not the flattened preceding map),
//   * MN-NN-002 — invalid layer dimensions or network-level problems
//     (no weighted layers, precision bits out of range),
//   * MN-NN-003 — pooling placement (pool before any weighted layer or
//     after an FC layer, window larger than the feature map;
//     non-divisible windows warn),
//   * MN-NN-004 — layers the crossbar mapper cannot tile at all,
//   * MN-NN-005 — retired (defect-map ranges; never reused),
//   * MN-NN-006 — weights spread across suspiciously many cells
//     (weight_bits far above the device level bits), a warning,
//   * MN-CUS-001..004 — customized-design module bags (Sec. III-E).
#pragma once

#include "arch/params.hpp"
#include "check/diagnostic.hpp"
#include "nn/network.hpp"
#include "sim/custom_module.hpp"

namespace mnsim::arch {
class DesignContext;
}  // namespace mnsim::arch

namespace mnsim::check {

// The rules nn::Layer::validate() throws on: MN-NN-002 dimensions.
void check_layer(const nn::Layer& layer, DiagnosticList& out);

// The rules nn::Network::validate() throws on: MN-NN-002 (no layers, no
// weighted layer, precision bits, check_layer) and MN-NN-003 pooling
// before any weighted layer. Diagnostics are built only on error.
[[nodiscard]] DiagnosticList check_network_rules(const nn::Network& network);

// Structural pass over a network description alone: check_network_rules,
// then (over sound layer dimensions) the shape chain and the remaining
// pooling placement. A layer's diagnostics are located at its section
// ("[layer3]" is the third layer).
[[nodiscard]] DiagnosticList check_network(const nn::Network& network);

// Cross-checks a network against an accelerator configuration: every
// weighted layer must tile onto the configured crossbars.
[[nodiscard]] DiagnosticList check_mapping(const nn::Network& network,
                                           const arch::AcceleratorConfig& cfg);

// The same pass over the already-checked configuration of `context` (the
// pre-flight of simulate_accelerator and of every sweep point).
[[nodiscard]] DiagnosticList check_mapping(
    const nn::Network& network, const arch::DesignContext& context);

// Customized-design spec (the diagnostic-producing core of
// sim::CustomAcceleratorSpec::validate()).
[[nodiscard]] DiagnosticList check_custom_spec(
    const sim::CustomAcceleratorSpec& spec);

}  // namespace mnsim::check
