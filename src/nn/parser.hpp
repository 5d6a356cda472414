// Network description files: the application side of MNSIM's inputs
// (paper Table I: Network_Type, Network_Depth, Network_Scale), in the
// INI dialect of the accelerator configuration:
//
//   [network]
//   name = my-cnn
//   type = CNN             ; ANN | SNN | CNN
//
//   [layer1]
//   kind = conv            ; fc | conv | pool
//   in_channels = 3
//   out_channels = 64
//   kernel = 3
//   in_width = 32
//   in_height = 32
//
//   [layer2]
//   kind = pool
//   window = 2
//
// Each key is one row of network_keys() (docs/CONFIGURATION.md lists
// them). The loader, `mnsim check` and write_network all go through that
// table, so the loader and the check refuse the same input with the same
// message: a key the table lacks for the section's layer kind (`paddng`,
// MN-CFG-001), a bad value (`in = 4294967304`, MN-CFG-003). Layers run
// [layer1] .. [layerN] without gaps; other sections are ignored.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "check/diagnostic.hpp"
#include "nn/network.hpp"
#include "util/config.hpp"

namespace mnsim::nn {

// One row of the network-description key table: the only place a key's
// name, sections, type and range are spelled. A key's default is the
// Network / Layer initializer; a network is named "network" and a layer
// after its section.
struct NetworkKey {
  // The sections a key belongs to: [network], or the [layerN] sections
  // of the given layer kinds (kFc << LayerKind).
  enum Scope : unsigned { kNetwork = 1, kFc = 2, kConv = 4, kPool = 8 };
  static constexpr unsigned kLayer = kFc | kConv | kPool;
  struct Range { long min, max; };
  // Parses `qualified` ("layer3.in") from `config`, checks its type and
  // range, and stores it in `network` or `layer`; a bad or missing value
  // throws util::ConfigError with the MN-CFG-003 message.
  using Reader = void (*)(const NetworkKey& key, const util::Config& config,
                          const std::string& qualified, Network& network,
                          Layer& layer);
  // The value as write_network spells it.
  using Writer = std::string (*)(const Network& network, const Layer& layer);

  std::string name;  // bare, as written in its section
  unsigned scope;
  Reader read;
  Writer write;
  std::optional<Range> range;  // inclusive bounds of an integer key
  bool required;               // no default: the section must hold it
};

// The key table in write order.
[[nodiscard]] const std::vector<NetworkKey>& network_keys();

// Reads `config` through network_keys(), reporting every problem at its
// key (file, line, location): MN-CFG-001 unknown keys, MN-CFG-002 other
// sections (warnings), MN-CFG-003 bad or missing values and layer gaps.
// What it returns is only meaningful when `out` gained no error; no
// validate() has run on it.
Network read_network(const util::Config& config, check::DiagnosticList& out);

// read_network, then Network::validate(). The first error throws
// util::ConfigError with its message and hint; an invalid network throws
// std::invalid_argument (MN-NN-002 / MN-NN-003).
Network parse_network(const util::Config& config);
Network parse_network_file(const std::string& path);

// Inverse: renders a network back into the description dialect, one line
// per table row of each section (useful for dumping generated topologies
// into editable files).
// mnsim-analyze: allow(unreferenced-api, test oracle: test_nn_parser and test_nn_generator round-trip parse_network through it)
std::string write_network(const Network& network);

}  // namespace mnsim::nn
