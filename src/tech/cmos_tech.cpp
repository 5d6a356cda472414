#include "tech/cmos_tech.hpp"

#include <cmath>
#include <stdexcept>

#include "util/units.hpp"

namespace mnsim::tech {

using namespace mnsim::units;
using namespace mnsim::units::literals;

namespace {

// Supply voltage by node, piecewise from the ITRS roadmap; interpolated
// logarithmically between anchors for non-listed nodes.
double vdd_for(int node_nm) {
  struct Anchor {
    int node;
    double vdd;
  };
  static constexpr Anchor anchors[] = {{250, 2.5}, {180, 1.8}, {130, 1.3},
                                       {90, 1.2},  {65, 1.1},  {45, 1.0},
                                       {32, 0.9},  {28, 0.9},  {16, 0.8}};
  if (node_nm >= anchors[0].node) return anchors[0].vdd;
  for (std::size_t i = 1; i < std::size(anchors); ++i) {
    if (node_nm >= anchors[i].node) {
      const auto& hi = anchors[i - 1];
      const auto& lo = anchors[i];
      double t = std::log(static_cast<double>(node_nm) / lo.node) /
                 std::log(static_cast<double>(hi.node) / lo.node);
      return lo.vdd + t * (hi.vdd - lo.vdd);
    }
  }
  return anchors[std::size(anchors) - 1].vdd;
}

}  // namespace

CmosTech cmos_tech(int node_nm) {
  if (node_nm < 16 || node_nm > 250) {
    throw std::invalid_argument("cmos_tech: node " + std::to_string(node_nm) +
                                " nm outside supported range [16, 250]");
  }
  // 45 nm anchors (CACTI/PTM-class magnitudes).
  constexpr Seconds kGateDelay45 = 20_ps;  // FO4-ish minimum gate delay
  constexpr Joules kGateEnergy45 = 1.0_fJ; // C*V^2 with ~1 fF switched cap
  constexpr Watts kGateLeak45 = 20_nW;
  constexpr double kGateArea45 = 100.0;      // in F^2
  constexpr double kRegArea45 = 650.0;       // in F^2
  constexpr double kRegEnergy45 = 4.0;       // in gate-energy units
  constexpr double kSramArea45 = 146.0;      // in F^2

  CmosTech t;
  t.node_nm = node_nm;
  t.feature_size = node_nm * 1.0_nm;
  t.vdd = Volts{vdd_for(node_nm)};

  const double scale = node_nm / 45.0;       // linear scale factor
  const double vscale = t.vdd / 1.0_V;       // voltage scale vs 45 nm
  const Area f2 = t.feature_size * t.feature_size;

  t.gate_delay = kGateDelay45 * scale;
  t.gate_energy = kGateEnergy45 * scale * vscale * vscale;  // CV^2, C ~ F
  t.gate_leakage = kGateLeak45 * scale * vscale;
  t.gate_area = kGateArea45 * f2;
  t.reg_area = kRegArea45 * f2;
  t.reg_energy = kRegEnergy45 * t.gate_energy;
  t.reg_leakage = 4.0 * t.gate_leakage;
  t.sram_bit_area = kSramArea45 * f2;
  return t;
}

}  // namespace mnsim::tech
