#include "check/network_check.hpp"

#include <algorithm>
#include <optional>
#include <stdexcept>
#include <string>

#include "arch/design_context.hpp"
#include "arch/mapper.hpp"

namespace mnsim::check {

namespace {

constexpr std::size_t kStandalone = static_cast<std::size_t>(-1);

std::string layer_label(const nn::Layer& layer, std::size_t index) {
  // Appended piece by piece: GCC 12's -Wrestrict misfires on an inlined
  // `" " + std::to_string(...)` temporary.
  std::string label = "layer";
  if (index != kStandalone) {
    label += ' ';
    label += std::to_string(index + 1);
  }
  if (!layer.name.empty()) {
    label += " '";
    label += layer.name;
    label += '\'';
  }
  return label;
}

// "a x b": a geometry in a message.
std::string by(long a, long b) {
  return std::to_string(a) + "x" + std::to_string(b);
}

// About layer `index`, located at its section: built only on error.
Diagnostic& emit_at(DiagnosticList& out, const nn::Layer& l, std::size_t index,
                    const char* code, Severity severity,
                    const std::string& what) {
  auto& d = out.emit(code, severity, layer_label(l, index) + ": " + what);
  if (index != kStandalone)
    d.location = "[layer" + std::to_string(index + 1) + "]";
  return d;
}

// Feature-map state threaded through the shape-chain walk. A network is
// either in "spatial" mode (after a conv/pool: channels x width x height)
// or "flat" mode (after an FC: a plain vector).
struct ShapeState {
  bool known = false;
  bool spatial = false;
  long channels = 0;
  long width = 0;
  long height = 0;
  long flat = 0;

  [[nodiscard]] long flattened() const {
    return spatial ? channels * width * height : flat;
  }
};

// The MN-NN-002 dimension rules of one layer.
void layer_dims(const nn::Layer& l, std::size_t index, DiagnosticList& out) {
  const auto error = [&](const std::string& what) -> Diagnostic& {
    return emit_at(out, l, index, "MN-NN-002", Severity::kError, what);
  };
  switch (l.kind) {
    case nn::LayerKind::kFullyConnected:
      if (l.in_features <= 0 || l.out_features <= 0)
        error("fully-connected features must be positive (in=" +
              std::to_string(l.in_features) +
              ", out=" + std::to_string(l.out_features) + ")");
      break;
    case nn::LayerKind::kConvolution:
      if (l.in_channels <= 0 || l.out_channels <= 0 || l.kernel <= 0)
        error("convolution shape must be positive (in_channels=" +
              std::to_string(l.in_channels) +
              ", out_channels=" + std::to_string(l.out_channels) +
              ", kernel=" + std::to_string(l.kernel) + ")");
      else if (l.stride <= 0 || l.padding < 0)
        error("stride must be positive and padding non-negative");
      else if (l.in_width < l.kernel - 2 * l.padding ||
               l.in_height < l.kernel - 2 * l.padding)
        error(by(l.kernel, l.kernel) + " kernel does not fit the " +
              by(l.in_width, l.in_height) + " input map")
            .hint = "enlarge the input map, shrink the kernel, or add padding";
      break;
    case nn::LayerKind::kPooling:
      if (l.pool_size <= 0) error("pooling window must be positive");
      break;
  }
}

}  // namespace

void check_layer(const nn::Layer& layer, DiagnosticList& out) {
  layer_dims(layer, kStandalone, out);
}

DiagnosticList check_network_rules(const nn::Network& network) {
  DiagnosticList out;
  if (network.layers.empty()) {
    out.emit("MN-NN-002", Severity::kError,
             "network '" + network.name + "' has no layers");
    return out;
  }
  if (network.depth() == 0) {
    out.emit("MN-NN-002", Severity::kError,
             "network '" + network.name +
                 "' has no weighted (neuromorphic) layers — nothing maps "
                 "onto crossbars");
  }
  for (const auto& [name, bits] : {std::pair{"input_bits", network.input_bits},
                                   {"weight_bits", network.weight_bits}})
    if (bits < 1 || bits > 16)
      out.emit("MN-NN-002", Severity::kError,
               std::string(name) + " = " + std::to_string(bits) +
                   " is outside the supported 1..16 range");
  bool seen_weighted = false;
  for (std::size_t i = 0; i < network.layers.size(); ++i) {
    const nn::Layer& l = network.layers[i];
    layer_dims(l, i, out);
    if (l.kind == nn::LayerKind::kPooling && !seen_weighted)
      emit_at(out, l, i, "MN-NN-003", Severity::kError,
              "pooling before any weighted layer — pooling attaches to the "
              "preceding computation bank")
          .hint = "move the pooling layer after a conv or fc layer";
    seen_weighted = seen_weighted || l.is_weighted();
  }
  return out;
}

DiagnosticList check_network(const nn::Network& network) {
  DiagnosticList out = check_network_rules(network);
  // The shape chain is meaningless over layers with broken dimensions;
  // report the per-layer problems alone rather than cascade mismatches.
  const bool dims_ok =
      std::none_of(out.begin(), out.end(), [](const Diagnostic& d) {
        return d.code == "MN-NN-002" && !d.location.empty();
      });
  if (network.layers.empty() || !dims_ok) return out;

  ShapeState state;
  for (std::size_t i = 0; i < network.layers.size(); ++i) {
    const nn::Layer& l = network.layers[i];
    const auto emit = [&](const char* code, Severity severity,
                          const std::string& what) -> Diagnostic& {
      return emit_at(out, l, i, code, severity, what);
    };
    switch (l.kind) {
      case nn::LayerKind::kConvolution: {
        const long values = static_cast<long>(l.in_channels) * l.in_width *
                            l.in_height;
        if (state.known && state.spatial &&
            (l.in_channels != state.channels || l.in_width != state.width ||
             l.in_height != state.height)) {
          emit("MN-NN-001", Severity::kError,
               "input map " + std::to_string(l.in_channels) + "x" +
                   by(l.in_width, l.in_height) +
                   " does not match the previous layer's output " +
                   std::to_string(state.channels) + "x" +
                   by(state.width, state.height) +
                   " (channels x width x height)");
        } else if (state.known && !state.spatial && values != state.flat) {
          emit("MN-NN-001", Severity::kError,
               "input map holds " + std::to_string(values) +
                   " values but the previous layer produces " +
                   std::to_string(state.flat));
        }
        state = {true, true, l.out_channels, l.out_width(), l.out_height(), 0};
        break;
      }
      case nn::LayerKind::kFullyConnected:
        if (state.known && l.in_features != state.flattened())
          emit("MN-NN-001", Severity::kError,
               "in = " + std::to_string(l.in_features) +
                   " does not match the previous layer's " +
                   std::to_string(state.flattened()) + " flattened outputs");
        state = {true, false, 0, 0, 0, l.out_features};
        break;
      case nn::LayerKind::kPooling:
        // Pooling before any weighted layer: check_network_rules.
        if (!state.known) break;
        if (!state.spatial) {
          emit("MN-NN-003", Severity::kError,
               "pooling after a fully-connected layer has no spatial map to "
               "pool")
              .hint = "pool the conv output before the fc layer, or drop the "
                      "pooling layer";
          break;
        }
        if (l.pool_size > state.width || l.pool_size > state.height) {
          emit("MN-NN-003", Severity::kError,
               by(l.pool_size, l.pool_size) + " window is larger than the " +
                   by(state.width, state.height) + " feature map");
          break;
        }
        if (state.width % l.pool_size != 0 || state.height % l.pool_size != 0)
          emit("MN-NN-003", Severity::kWarning,
               by(l.pool_size, l.pool_size) + " window does not tile the " +
                   by(state.width, state.height) +
                   " map evenly — edge pixels are dropped");
        state.width /= l.pool_size;
        state.height /= l.pool_size;
        break;
    }
  }
  return out;
}

namespace {

// check_mapping over `context`, or, when the configuration failed to
// validate (`context` null), one MN-NN-004 per weighted layer saying why.
DiagnosticList mapping_pass(const nn::Network& network,
                            const arch::AcceleratorConfig& cfg,
                            const arch::DesignContext* context,
                            const std::string& config_error) {
  DiagnosticList out;
  for (std::size_t i = 0; i < network.layers.size(); ++i) {
    const nn::Layer& l = network.layers[i];
    if (!l.is_weighted()) continue;
    const auto cannot_map = [&](const std::string& why) {
      emit_at(out, l, i, "MN-NN-004", Severity::kError,
              "cannot map onto " + by(cfg.crossbar_size, cfg.crossbar_size) +
                  " crossbars: " + why);
    };
    if (context == nullptr) {
      cannot_map(config_error);
      continue;
    }
    arch::LayerMapping mapping;
    try {
      mapping = arch::map_layer(l, network, *context);
    } catch (const std::exception& e) {
      cannot_map(e.what());
      continue;
    }
    if (mapping.cells_per_weight > 4)
      emit_at(out, l, i, "MN-NN-006", Severity::kWarning,
              "each " + std::to_string(network.weight_bits) +
                  "-bit weight spreads across " +
                  std::to_string(mapping.cells_per_weight) + " cells (" +
                  cfg.memristor_model + " stores " +
                  std::to_string(context->device().level_bits) +
                  " bits/cell)")
          .hint = "a higher-precision cell or lower weight_bits shrinks the "
                  "array and the adder/shifter tree";
  }
  return out;
}

}  // namespace

DiagnosticList check_mapping(const nn::Network& network,
                             const arch::AcceleratorConfig& cfg) {
  // The configuration is checked once; when it is invalid, every weighted
  // layer reports why it cannot be mapped.
  std::optional<arch::DesignContext> context;
  std::string config_error;
  try {
    context.emplace(cfg);
  } catch (const std::exception& e) {
    config_error = e.what();
  }
  return mapping_pass(network, cfg, context ? &*context : nullptr,
                      config_error);
}

DiagnosticList check_mapping(const nn::Network& network,
                             const arch::DesignContext& context) {
  return mapping_pass(network, context.config(), &context, {});
}

DiagnosticList check_custom_spec(const sim::CustomAcceleratorSpec& spec) {
  DiagnosticList out;
  const std::string label =
      spec.name.empty() ? std::string("custom design") : "'" + spec.name + "'";
  if (spec.modules.empty()) {
    out.emit("MN-CUS-001", Severity::kError, label + ": no modules");
    return out;
  }
  for (const auto& m : spec.modules) {
    if (m.count <= 0) {
      out.emit("MN-CUS-002", Severity::kError,
               label + ": module '" + m.name + "' has count " +
                   std::to_string(m.count) + " (must be positive)");
    }
    if (m.ops_per_task < 0) {
      out.emit("MN-CUS-002", Severity::kError,
               label + ": module '" + m.name +
                   "' has a negative ops_per_task");
    }
  }
  if (spec.pipeline_stages < 1) {
    out.emit("MN-CUS-003", Severity::kError,
             label + ": pipeline_stages must be >= 1");
  } else if (spec.pipeline_stages > 1 && !(spec.cycle_time > 0)) {
    out.emit("MN-CUS-003", Severity::kError,
             label + ": a " + std::to_string(spec.pipeline_stages) +
                 "-stage pipeline needs a positive cycle_time")
        .hint = "set cycle_time to the stage clock period in seconds";
  }
  if (spec.pipeline_stages <= 1) {
    const bool any_critical =
        std::any_of(spec.modules.begin(), spec.modules.end(),
                    [](const sim::CustomModule& m) {
                      return m.on_critical_path;
                    });
    if (!any_critical) {
      out.emit("MN-CUS-004", Severity::kWarning,
               label + ": no module is on the critical path and there is no "
                       "inner pipeline — task latency evaluates to zero")
          .hint = "mark latency-bearing modules with critical = true";
    }
  }
  return out;
}

}  // namespace mnsim::check
