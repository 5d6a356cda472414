#include "spice/netlist.hpp"

#include <cmath>
#include <stdexcept>

#include "check/netlist_check.hpp"

namespace mnsim::spice {

NodeId Netlist::add_node() { return next_node_++; }

void Netlist::check_node(NodeId n) const {
  if (n < 0 || n >= next_node_)
    throw std::invalid_argument("Netlist: node id " + std::to_string(n) +
                                " not allocated");
}

void Netlist::reserve(std::size_t resistors, std::size_t memristors,
                      std::size_t sources, std::size_t capacitors) {
  resistors_.reserve(resistors);
  memristors_.reserve(memristors);
  sources_.reserve(sources);
  capacitors_.reserve(capacitors);
}

void Netlist::add_resistor(NodeId a, NodeId b, double ohms,
                           std::string name) {
  check_node(a);
  check_node(b);
  if (!std::isfinite(ohms))
    throw std::invalid_argument("Netlist: resistance not finite");
  if (!(ohms > 0)) throw std::invalid_argument("Netlist: resistance <= 0");
  if (a == b) throw std::invalid_argument("Netlist: resistor shorted");
  resistors_.push_back({a, b, ohms});
  record_name(ElementKind::kResistor, resistors_.size() - 1, std::move(name));
}

void Netlist::add_memristor(NodeId a, NodeId b, double r_state,
                            std::string name) {
  check_node(a);
  check_node(b);
  if (!std::isfinite(r_state))
    throw std::invalid_argument("Netlist: memristor state not finite");
  if (!(r_state > 0))
    throw std::invalid_argument("Netlist: memristor state <= 0");
  if (a == b) throw std::invalid_argument("Netlist: memristor shorted");
  memristors_.push_back({a, b, r_state});
  record_name(ElementKind::kMemristor, memristors_.size() - 1,
              std::move(name));
}

void Netlist::add_source(NodeId node, double volts, std::string name) {
  check_node(node);
  if (node == kGround)
    throw std::invalid_argument("Netlist: source on ground node");
  if (!std::isfinite(volts))
    throw std::invalid_argument("Netlist: source voltage not finite");
  sources_.push_back({node, volts});
  record_name(ElementKind::kSource, sources_.size() - 1, std::move(name));
}

void Netlist::add_capacitor(NodeId a, NodeId b, double farads,
                            std::string name) {
  check_node(a);
  check_node(b);
  if (!std::isfinite(farads))
    throw std::invalid_argument("Netlist: capacitance not finite");
  if (!(farads > 0)) throw std::invalid_argument("Netlist: capacitance <= 0");
  capacitors_.push_back({a, b, farads});
  record_name(ElementKind::kCapacitor, capacitors_.size() - 1,
              std::move(name));
}

void Netlist::record_name(ElementKind kind, std::size_t index,
                          std::string&& name) {
  auto& names = names_[static_cast<std::size_t>(kind)];
  if (name.empty() && names.empty()) return;
  names.resize(index);
  names.push_back(std::move(name));
}

std::string Netlist::element_name(ElementKind kind, std::size_t index) const {
  const auto& names = names_[static_cast<std::size_t>(kind)];
  if (index < names.size() && !names[index].empty()) return names[index];
  return namer_ ? namer_(kind, index) : std::string();
}

void Netlist::set_memristor_state(std::size_t index, double r_state) {
  if (index >= memristors_.size())
    throw std::out_of_range("Netlist: memristor index");
  if (!std::isfinite(r_state))
    throw std::invalid_argument("Netlist: memristor state not finite");
  if (!(r_state > 0))
    throw std::invalid_argument("Netlist: memristor state <= 0");
  memristors_[index].r_state = r_state;
}

void Netlist::set_source_voltage(std::size_t index, double volts) {
  if (index >= sources_.size())
    throw std::out_of_range("Netlist: source index");
  if (!std::isfinite(volts))
    throw std::invalid_argument("Netlist: source voltage not finite");
  sources_[index].volts = volts;
}

void Netlist::validate() const {
  // Thin wrapper over the semantic analyzer's invariant pass
  // (check/netlist_check.hpp) kept for API compatibility: callers that
  // expect std::invalid_argument still get one, now carrying the first
  // diagnostic's full message (which names the conflicting sources
  // instead of just the node).
  check::throw_if_errors(check::check_netlist_invariants(*this), "Netlist: ");
}

}  // namespace mnsim::spice
