// Network description files.
//
// MNSIM's inputs are a configuration plus the target application's layer
// scales (paper Table I: Network_Type, Network_Depth, Network_Scale).
// This parser reads the network from the same INI dialect as the
// accelerator configuration:
//
//   [network]
//   name = my-cnn
//   type = CNN             ; ANN | SNN | CNN
//   input_bits = 8
//   weight_bits = 4
//
//   [layer1]
//   kind = conv            ; fc | conv | pool
//   in_channels = 3
//   out_channels = 64
//   kernel = 3
//   in_width = 32
//   in_height = 32
//   padding = 1
//
//   [layer2]
//   kind = pool
//   window = 2
//
//   [layer3]
//   kind = fc
//   in = 16384
//   out = 10
//
// Layers are ordered by their numeric suffix; gaps are an error.
#pragma once

#include <string>

#include "nn/network.hpp"
#include "util/config.hpp"

namespace mnsim::nn {

// Throws util::ConfigError on malformed descriptions.
Network parse_network(const util::Config& config);
Network parse_network_file(const std::string& path);

// Inverse: renders a network back into the description dialect (useful
// for dumping generated topologies into editable files).
// mnsim-analyze: allow(unreferenced-api, test oracle: test_nn_parser and test_nn_generator round-trip parse_network through it)
std::string write_network(const Network& network);

}  // namespace mnsim::nn
