// Design space definition (paper Sec. VII-C).
//
// The case studies sweep three unit-level knobs while everything else is
// fixed: crossbar size (4..1024, doubling), computation parallelism
// degree (1..crossbar size, doubling; the number of read circuits per
// crossbar), and interconnect technology node ({18,22,28,36,45} nm,
// extended to 90 nm for the CNN study). The traversal enumerates every
// combination — MNSIM's simulation speed makes exhaustive search cheap.
#pragma once

#include <vector>

#include "arch/params.hpp"

namespace mnsim::dse {

struct DesignPoint {
  int crossbar_size = 128;
  int parallelism = 0;        // 0 = all columns in parallel
  int interconnect_node = 28; // nm
};

// `base` with the three swept knobs taken from `point`.
[[nodiscard]] arch::AcceleratorConfig apply_point(
    arch::AcceleratorConfig base, const DesignPoint& point);

struct DesignSpace {
  std::vector<int> crossbar_sizes = {4, 8, 16, 32, 64, 128, 256, 512, 1024};
  std::vector<int> parallelism_degrees = {1, 2, 4, 8, 16, 32, 64, 128, 0};
  std::vector<int> interconnect_nodes = {18, 22, 28, 36, 45};

  // All combinations, with parallelism degrees exceeding the crossbar
  // size dropped (they alias the full-parallel point).
  [[nodiscard]] std::vector<DesignPoint> enumerate() const;

  // The paper's large-bank sweep; ~10^4 designs.
  static DesignSpace paper_default();
  // The CNN study: interconnect extended to 90 nm.
  static DesignSpace paper_cnn();
};

}  // namespace mnsim::dse
