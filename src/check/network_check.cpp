#include "check/network_check.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "arch/mapper.hpp"

namespace mnsim::check {

namespace {

std::string layer_label(const nn::Layer& layer, std::size_t index) {
  std::string label = "layer " + std::to_string(index);
  if (!layer.name.empty()) label += " '" + layer.name + "'";
  return label;
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

// Individual-layer validity as diagnostics (the MN-NN-002 family).
// Mirrors nn::Layer::validate() so check_network can report *all*
// problems instead of throwing on the first.
void check_layer_dims(const nn::Layer& l, std::size_t index,
                      DiagnosticList& out) {
  const std::string label = layer_label(l, index);
  switch (l.kind) {
    case nn::LayerKind::kFullyConnected:
      if (l.in_features <= 0 || l.out_features <= 0) {
        out.emit("MN-NN-002", Severity::kError,
                 label + ": fully-connected features must be positive (in=" +
                     std::to_string(l.in_features) +
                     ", out=" + std::to_string(l.out_features) + ")");
      }
      break;
    case nn::LayerKind::kConvolution:
      if (l.in_channels <= 0 || l.out_channels <= 0 || l.kernel <= 0) {
        out.emit("MN-NN-002", Severity::kError,
                 label + ": convolution shape must be positive (in_channels=" +
                     std::to_string(l.in_channels) +
                     ", out_channels=" + std::to_string(l.out_channels) +
                     ", kernel=" + std::to_string(l.kernel) + ")");
        break;
      }
      if (l.stride <= 0) {
        out.emit("MN-NN-002", Severity::kError,
                 label + ": stride must be positive");
        break;
      }
      if (l.in_width < l.kernel - 2 * l.padding ||
          l.in_height < l.kernel - 2 * l.padding) {
        out.emit("MN-NN-002", Severity::kError,
                 label + ": " + std::to_string(l.kernel) + "x" +
                     std::to_string(l.kernel) + " kernel does not fit the " +
                     std::to_string(l.in_width) + "x" +
                     std::to_string(l.in_height) + " input map")
            .hint = "enlarge the input map, shrink the kernel, or add padding";
      }
      break;
    case nn::LayerKind::kPooling:
      if (l.pool_size <= 0) {
        out.emit("MN-NN-002", Severity::kError,
                 label + ": pooling window must be positive");
      }
      break;
  }
}

}  // namespace

DiagnosticList check_network(const nn::Network& network) {
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
  if (network.input_bits < 1 || network.input_bits > 16) {
    out.emit("MN-NN-002", Severity::kError,
             "input_bits = " + std::to_string(network.input_bits) +
             " is outside the supported 1..16 range");
  }
  if (network.weight_bits < 1 || network.weight_bits > 16) {
    out.emit("MN-NN-002", Severity::kError,
             "weight_bits = " + std::to_string(network.weight_bits) +
             " is outside the supported 1..16 range");
  }

  bool dims_ok = true;
  {
    const std::size_t before = out.error_count();
    for (std::size_t i = 0; i < network.layers.size(); ++i)
      check_layer_dims(network.layers[i], i, out);
    dims_ok = out.error_count() == before;
  }
  // The shape chain is meaningless over layers with broken dimensions;
  // report the per-layer problems alone rather than cascade mismatches.
  if (!dims_ok) return out;

  ShapeState state;
  bool seen_weighted = false;
  for (std::size_t i = 0; i < network.layers.size(); ++i) {
    const nn::Layer& l = network.layers[i];
    const std::string label = layer_label(l, i);
    switch (l.kind) {
      case nn::LayerKind::kConvolution: {
        if (state.known) {
          if (state.spatial) {
            if (l.in_channels != state.channels ||
                l.in_width != state.width || l.in_height != state.height) {
              out.emit("MN-NN-001", Severity::kError,
                       label + ": input map " +
                           std::to_string(l.in_channels) + "x" +
                           std::to_string(l.in_width) + "x" +
                           std::to_string(l.in_height) +
                           " does not match the previous layer's output " +
                           std::to_string(state.channels) + "x" +
                           std::to_string(state.width) + "x" +
                           std::to_string(state.height) +
                           " (channels x width x height)");
            }
          } else if (static_cast<long>(l.in_channels) * l.in_width *
                         l.in_height != state.flat) {
            out.emit("MN-NN-001", Severity::kError,
                     label + ": input map holds " +
                         std::to_string(static_cast<long>(l.in_channels) *
                                        l.in_width * l.in_height) +
                         " values but the previous layer produces " +
                         std::to_string(state.flat));
          }
        }
        state.known = true;
        state.spatial = true;
        state.channels = l.out_channels;
        state.width = l.out_width();
        state.height = l.out_height();
        seen_weighted = true;
        break;
      }
      case nn::LayerKind::kFullyConnected: {
        if (state.known && l.in_features != state.flattened()) {
          out.emit("MN-NN-001", Severity::kError,
                   label + ": in = " + std::to_string(l.in_features) +
                       " does not match the previous layer's " +
                       std::to_string(state.flattened()) +
                       " flattened outputs");
        }
        state.known = true;
        state.spatial = false;
        state.flat = l.out_features;
        seen_weighted = true;
        break;
      }
      case nn::LayerKind::kPooling: {
        if (!seen_weighted) {
          out.emit("MN-NN-003", Severity::kError,
                   label + ": pooling before any weighted layer — pooling "
                           "attaches to the preceding computation bank")
              .hint = "move the pooling layer after a conv or fc layer";
          break;
        }
        if (!state.spatial) {
          out.emit("MN-NN-003", Severity::kError,
                   label + ": pooling after a fully-connected layer has no "
                           "spatial map to pool")
              .hint = "pool the conv output before the fc layer, or drop the "
                      "pooling layer";
          break;
        }
        if (l.pool_size > state.width || l.pool_size > state.height) {
          out.emit("MN-NN-003", Severity::kError,
                   label + ": " + std::to_string(l.pool_size) + "x" +
                       std::to_string(l.pool_size) +
                       " window is larger than the " +
                       std::to_string(state.width) + "x" +
                       std::to_string(state.height) + " feature map");
          break;
        }
        if (state.width % l.pool_size != 0 ||
            state.height % l.pool_size != 0) {
          out.emit("MN-NN-003", Severity::kWarning,
                   label + ": " + std::to_string(l.pool_size) + "x" +
                       std::to_string(l.pool_size) +
                       " window does not tile the " +
                       std::to_string(state.width) + "x" +
                       std::to_string(state.height) +
                       " map evenly — edge pixels are dropped");
        }
        state.width /= l.pool_size;
        state.height /= l.pool_size;
        break;
      }
    }
  }
  return out;
}

DiagnosticList check_mapping(const nn::Network& network,
                             const arch::AcceleratorConfig& cfg) {
  DiagnosticList out;
  const int device_bits = cfg.device().level_bits;
  for (std::size_t i = 0; i < network.layers.size(); ++i) {
    const nn::Layer& l = network.layers[i];
    if (!l.is_weighted()) continue;
    const std::string label = layer_label(l, i);
    arch::LayerMapping mapping;
    try {
      mapping = arch::map_layer(l, network, cfg);
    } catch (const std::exception& e) {
      out.emit("MN-NN-004", Severity::kError,
               label + ": cannot map onto " +
                   std::to_string(cfg.crossbar_size) + "x" +
                   std::to_string(cfg.crossbar_size) + " crossbars: " +
                   e.what());
      continue;
    }
    if (mapping.cells_per_weight > 4) {
      out.emit("MN-NN-006", Severity::kWarning,
               label + ": each " + std::to_string(network.weight_bits) +
                   "-bit weight spreads across " +
                   std::to_string(mapping.cells_per_weight) + " cells (" +
                   cfg.memristor_model + " stores " +
                   std::to_string(device_bits) + " bits/cell)")
          .hint = "a higher-precision cell or lower weight_bits shrinks the "
                  "array and the adder/shifter tree";
    }
  }
  return out;
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
