// The common performance quadruple every MNSIM circuit module reports.
//
// MNSIM is a behavior-level simulator: each module contributes area,
// dynamic power (while the module is active), leakage power (always), and
// a critical-path latency. Higher levels accumulate these bottom-up
// (paper Sec. IV-A): areas and powers add; latencies add along serial
// paths and take the max across parallel paths.
#pragma once

#include <algorithm>

namespace mnsim::circuit {

struct Ppa {
  double area = 0.0;           // [m^2]
  double dynamic_power = 0.0;  // [W], while the module is active
  double leakage_power = 0.0;  // [W], always
  double latency = 0.0;        // [s], module critical path

  // Parallel composition: resources add, latency is the max.
  Ppa& operator+=(const Ppa& o) {
    area += o.area;
    dynamic_power += o.dynamic_power;
    leakage_power += o.leakage_power;
    latency = std::max(latency, o.latency);
    return *this;
  }

  friend Ppa operator+(Ppa a, const Ppa& b) { return a += b; }

  // Resource scaling for n identical instances working in parallel.
  [[nodiscard]] Ppa times(double n) const {
    Ppa out = *this;
    out.area *= n;
    out.dynamic_power *= n;
    out.leakage_power *= n;
    return out;
  }

  [[nodiscard]] double total_power() const {
    return dynamic_power + leakage_power;
  }
};

}  // namespace mnsim::circuit
