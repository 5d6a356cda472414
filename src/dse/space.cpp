#include "dse/space.hpp"

namespace mnsim::dse {

arch::AcceleratorConfig apply_point(arch::AcceleratorConfig base,
                                    const DesignPoint& point) {
  base.crossbar_size = point.crossbar_size;
  base.parallelism = point.parallelism;
  base.interconnect_node_nm = point.interconnect_node;
  return base;
}

std::vector<DesignPoint> DesignSpace::enumerate() const {
  std::vector<DesignPoint> points;
  for (int node : interconnect_nodes) {
    for (int size : crossbar_sizes) {
      for (int p : parallelism_degrees) {
        if (p > size) continue;  // aliases full parallel
        points.push_back({size, p, node});
      }
    }
  }
  return points;
}

DesignSpace DesignSpace::paper_default() { return DesignSpace{}; }

DesignSpace DesignSpace::paper_cnn() {
  DesignSpace s;
  s.interconnect_nodes = {18, 22, 28, 36, 45, 90};
  return s;
}

}  // namespace mnsim::dse
