#include "spice/export.hpp"

#include <cstdio>
#include <sstream>

namespace mnsim::spice {

namespace {

// Appended with += : GCC 12 at -O3 reports a -Wrestrict false positive
// on "n" + std::to_string(n).
std::string node_name(NodeId n) {
  if (n == kGround) return "0";
  std::string name = "n";
  name += std::to_string(n);
  return name;
}

std::string fmt(double v) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

}  // namespace

std::string export_spice(const Netlist& nl, const std::string& title) {
  nl.validate();
  std::ostringstream os;
  os << "* " << title << "\n";

  // Wire-structure metadata rides along as comment directives so a
  // re-imported deck keeps the structured solver path (and therefore
  // solves bit-identically); stock SPICE tools skip '*' lines.
  const auto& ws = nl.wire_structure();
  if (!ws.empty()) {
    auto chain_line = [&os](const char* tag, const std::vector<NodeId>& chain) {
      os << "*.mnsim " << tag;
      for (NodeId n : chain) os << ' ' << node_name(n);
      os << "\n";
    };
    for (const auto& c : ws.row_chains) chain_line("rowchain", c);
    for (const auto& c : ws.col_chains) chain_line("colchain", c);
  }

  int auto_id = 0;
  auto name_or = [&auto_id](const std::string& name, const char* prefix) {
    if (!name.empty()) return name;
    return std::string(prefix) + "auto" + std::to_string(auto_id++);
  };

  for (std::size_t i = 0; i < nl.resistors().size(); ++i) {
    const auto& r = nl.resistors()[i];
    os << "R" << name_or(nl.element_name(ElementKind::kResistor, i), "r")
       << ' ' << node_name(r.a) << ' ' << node_name(r.b) << ' '
       << fmt(r.ohms) << "\n";
  }
  for (std::size_t i = 0; i < nl.capacitors().size(); ++i) {
    const auto& c = nl.capacitors()[i];
    os << "C" << name_or(nl.element_name(ElementKind::kCapacitor, i), "c")
       << ' ' << node_name(c.a) << ' ' << node_name(c.b) << ' '
       << fmt(c.farads) << "\n";
  }
  for (std::size_t i = 0; i < nl.sources().size(); ++i) {
    const auto& s = nl.sources()[i];
    os << "V" << name_or(nl.element_name(ElementKind::kSource, i), "v")
       << ' ' << node_name(s.node) << " 0 DC " << fmt(s.volts) << "\n";
  }
  const auto& dev = nl.device();
  for (std::size_t i = 0; i < nl.memristors().size(); ++i) {
    const auto& m = nl.memristors()[i];
    const std::string name =
        name_or(nl.element_name(ElementKind::kMemristor, i), "x");
    if (nl.linear_memristors()) {
      os << "R" << name << ' ' << node_name(m.a) << ' ' << node_name(m.b)
         << ' ' << fmt(m.r_state) << "\n";
    } else {
      // Behavioral element: I = (vt / R) * sinh(V / vt).
      os << "B" << name << ' ' << node_name(m.a) << ' ' << node_name(m.b)
         << " I=" << fmt(dev.nonlinearity_vt.value() / m.r_state)
         << "*sinh(V(" << node_name(m.a) << ',' << node_name(m.b) << ")/"
         << fmt(dev.nonlinearity_vt.value()) << ")\n";
    }
  }
  os << ".op\n.end\n";
  return os.str();
}

}  // namespace mnsim::spice
