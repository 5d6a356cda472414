// Neuromorphic network descriptions (paper Sec. II-B).
//
// MNSIM consumes layer geometry, not trained weights: a neuromorphic
// layer is anything holding Conv kernels or fully-connected weights (it
// becomes one Computation Bank); pooling attaches to the preceding
// weighted layer as a peripheral function (paper Sec. III-A).
#pragma once

#include <stdexcept>
#include <string>
#include <vector>

namespace mnsim::nn {

enum class NetworkType { kAnn, kSnn, kCnn };

enum class LayerKind { kFullyConnected, kConvolution, kPooling };

struct Layer {
  LayerKind kind = LayerKind::kFullyConnected;
  std::string name;

  // Fully connected.
  int in_features = 0;
  int out_features = 0;
  bool has_bias = true;

  // Convolution (kind == kConvolution): input feature map geometry and
  // kernel; stride 1 reference design.
  int in_channels = 0;
  int out_channels = 0;
  int kernel = 0;       // square k x k kernel
  int in_width = 0;
  int in_height = 0;
  int stride = 1;
  int padding = 0;

  // Pooling (kind == kPooling): window (stride equals the window).
  int pool_size = 2;

  // Factory helpers.
  static Layer fully_connected(std::string name, int in, int out,
                               bool bias = true);
  static Layer convolution(std::string name, int in_channels,
                           int out_channels, int kernel, int in_width,
                           int in_height, int padding = 0);
  static Layer pooling(std::string name, int window);

  // Output feature-map geometry (convolution / pooling).
  [[nodiscard]] int out_width() const;
  [[nodiscard]] int out_height() const;

  // The weight matrix the layer maps onto crossbars: rows = inputs of one
  // matrix-vector product, cols = outputs. FC: (in_features + bias) x
  // out_features. Conv: (in_channels * k^2) x out_channels (paper
  // Sec. II-B.3: kernels sharing inputs form a matrix).
  [[nodiscard]] long matrix_rows() const;
  [[nodiscard]] long matrix_cols() const;

  // How many times the matrix-vector product runs per input sample:
  // 1 for FC; out_width * out_height for convolution.
  [[nodiscard]] long compute_iterations() const;

  // Total outputs per sample (neurons, or out pixels * channels).
  [[nodiscard]] long output_count() const;

  [[nodiscard]] bool is_weighted() const {
    return kind != LayerKind::kPooling;
  }

  // Throws check::check_layer's first error (message and code).
  void validate() const;
  bool operator==(const Layer&) const = default;
};

struct Network {
  std::string name;
  NetworkType type = NetworkType::kAnn;
  std::vector<Layer> layers;
  int input_bits = 8;   // signal precision
  int weight_bits = 4;  // signed weight precision (paper case studies)

  // Number of neuromorphic layers = computation banks (paper
  // Network_Depth): only weighted layers count.
  [[nodiscard]] int depth() const;

  // Total weights (storage requirement across all crossbars).
  [[nodiscard]] long total_weights() const;

  // Input sample size in values (first layer inputs).
  [[nodiscard]] long input_size() const;
  [[nodiscard]] long output_size() const;

  // Throws check::check_network_rules's first error (message and code).
  void validate() const;
  bool operator==(const Network&) const = default;
};

}  // namespace mnsim::nn
