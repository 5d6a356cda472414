#include "nn/network.hpp"

#include "check/network_check.hpp"

namespace mnsim::nn {

Layer Layer::fully_connected(std::string name, int in, int out, bool bias) {
  Layer l{.kind = LayerKind::kFullyConnected, .name = std::move(name),
                .in_features = in, .out_features = out, .has_bias = bias};
  l.validate();
  return l;
}

Layer Layer::convolution(std::string name, int in_channels, int out_channels,
                         int kernel, int in_width, int in_height,
                         int padding) {
  Layer l{.kind = LayerKind::kConvolution, .name = std::move(name),
                .in_channels = in_channels, .out_channels = out_channels,
                .kernel = kernel, .in_width = in_width,
                .in_height = in_height, .padding = padding};
  l.validate();
  return l;
}

Layer Layer::pooling(std::string name, int window) {
  Layer l{.kind = LayerKind::kPooling, .name = std::move(name),
                .pool_size = window};
  l.validate();
  return l;
}

int Layer::out_width() const {
  if (kind == LayerKind::kConvolution)
    return (in_width + 2 * padding - kernel) / stride + 1;
  return in_width;
}

int Layer::out_height() const {
  if (kind == LayerKind::kConvolution)
    return (in_height + 2 * padding - kernel) / stride + 1;
  return in_height;
}

long Layer::matrix_rows() const {
  switch (kind) {
    case LayerKind::kFullyConnected:
      return in_features + (has_bias ? 1 : 0);
    case LayerKind::kConvolution:
      return static_cast<long>(in_channels) * kernel * kernel;
    case LayerKind::kPooling:
      return 0;
  }
  throw std::logic_error("matrix_rows: unreachable");
}

long Layer::matrix_cols() const {
  switch (kind) {
    case LayerKind::kFullyConnected:
      return out_features;
    case LayerKind::kConvolution:
      return out_channels;
    case LayerKind::kPooling:
      return 0;
  }
  throw std::logic_error("matrix_cols: unreachable");
}

long Layer::compute_iterations() const {
  if (kind == LayerKind::kConvolution)
    return static_cast<long>(out_width()) * out_height();
  return kind == LayerKind::kFullyConnected ? 1 : 0;
}

long Layer::output_count() const {
  switch (kind) {
    case LayerKind::kFullyConnected:
      return out_features;
    case LayerKind::kConvolution:
      return static_cast<long>(out_channels) * out_width() * out_height();
    case LayerKind::kPooling:
      return 0;  // attached to the preceding bank; no own outputs here
  }
  throw std::logic_error("output_count: unreachable");
}

void Layer::validate() const {
  check::DiagnosticList diags;
  check::check_layer(*this, diags);
  check::throw_if_errors(diags, "");
}

int Network::depth() const {
  int d = 0;
  for (const auto& l : layers)
    if (l.is_weighted()) ++d;
  return d;
}

long Network::total_weights() const {
  long total = 0;
  for (const auto& l : layers)
    if (l.is_weighted()) total += l.matrix_rows() * l.matrix_cols();
  return total;
}

long Network::input_size() const {
  for (const auto& l : layers) {
    if (!l.is_weighted()) continue;
    if (l.kind == LayerKind::kFullyConnected) return l.in_features;
    return static_cast<long>(l.in_channels) * l.in_width * l.in_height;
  }
  return 0;
}

long Network::output_size() const {
  for (auto it = layers.rbegin(); it != layers.rend(); ++it)
    if (it->is_weighted()) return it->output_count();
  return 0;
}

void Network::validate() const {
  check::throw_if_errors(check::check_network_rules(*this), "Network: ");
}

}  // namespace mnsim::nn
