// NVSim interoperability (paper Sec. III-E.4).
//
// MNSIM exposes each computation-oriented module's performance in an
// NVSim-style key/value text block so results can flow both ways: NVSim
// module results can be imported as custom modules, and MNSIM module
// models can be exported for use inside NVSim.
//
// Format (one module per block):
//   -ModuleName: Sigmoid
//   -Area (um^2): 605.2
//   -DynamicPower (mW): 0.21
//   -LeakagePower (uW): 12.5
//   -Latency (ns): 1.2
#pragma once

#include <string>
#include <vector>

#include "circuit/module.hpp"

namespace mnsim::sim {

struct NvsimModule {
  std::string name;
  circuit::Ppa ppa;
};

// Renders one module block.
std::string write_nvsim_module(const NvsimModule& module);

// Parses all module blocks in `text`. Throws util::ConfigError-style
// std::runtime_error on malformed blocks.
std::vector<NvsimModule> read_nvsim_modules(const std::string& text);

// File helpers. save writes atomically and durably (util::atomic_file)
// and throws std::runtime_error when the write fails.
void save_nvsim_modules(const std::string& path,
                        const std::vector<NvsimModule>& modules);
// mnsim-analyze: allow(unreferenced-api, paper inventory: PAPER.md section 1 row 9, NVSim-style module import)
std::vector<NvsimModule> load_nvsim_modules(const std::string& path);

}  // namespace mnsim::sim
