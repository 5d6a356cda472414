#include "spice/netlist.hpp"

#include <gtest/gtest.h>

#include "spice/export.hpp"

namespace mnsim::spice {
namespace {

TEST(Netlist, NodeAllocationStartsAtOne) {
  Netlist nl;
  EXPECT_EQ(nl.add_node(), 1);
  EXPECT_EQ(nl.add_node(), 2);
  EXPECT_EQ(nl.node_count(), 2);
}

TEST(Netlist, RejectsDanglingNodes) {
  Netlist nl;
  NodeId n = nl.add_node();
  EXPECT_THROW(nl.add_resistor(n, 42, 1.0), std::invalid_argument);
  EXPECT_THROW(nl.add_memristor(7, n, 1e3), std::invalid_argument);
  EXPECT_THROW(nl.add_source(-1, 1.0), std::invalid_argument);
}

TEST(Netlist, RejectsNonPositiveValues) {
  Netlist nl;
  NodeId n = nl.add_node();
  EXPECT_THROW(nl.add_resistor(n, kGround, 0.0), std::invalid_argument);
  EXPECT_THROW(nl.add_resistor(n, kGround, -5.0), std::invalid_argument);
  EXPECT_THROW(nl.add_memristor(n, kGround, 0.0), std::invalid_argument);
  EXPECT_THROW(nl.add_capacitor(n, kGround, 0.0), std::invalid_argument);
}

TEST(Netlist, RejectsShortedElements) {
  Netlist nl;
  NodeId n = nl.add_node();
  EXPECT_THROW(nl.add_resistor(n, n, 1.0), std::invalid_argument);
  EXPECT_THROW(nl.add_memristor(n, n, 1e3), std::invalid_argument);
}

TEST(Netlist, RejectsSourceOnGround) {
  Netlist nl;
  EXPECT_THROW(nl.add_source(kGround, 1.0), std::invalid_argument);
}

TEST(Netlist, DoublePinnedNodeFailsValidation) {
  Netlist nl;
  NodeId n = nl.add_node();
  nl.add_source(n, 1.0);
  nl.add_source(n, 2.0);
  EXPECT_THROW(nl.validate(), std::invalid_argument);
}

TEST(Netlist, StoresElementsInOrder) {
  Netlist nl;
  NodeId a = nl.add_node();
  NodeId b = nl.add_node();
  nl.add_resistor(a, b, 10.0, "r1");
  nl.add_memristor(a, b, 1e3, "x1");
  nl.add_source(a, 0.5, "vin");
  EXPECT_EQ(nl.resistors().size(), 1u);
  EXPECT_EQ(nl.element_name(ElementKind::kResistor, 0), "r1");
  EXPECT_EQ(nl.memristors()[0].r_state, 1e3);
  EXPECT_EQ(nl.sources()[0].volts, 0.5);
}

TEST(Export, EmitsAllElementCards) {
  Netlist nl;
  NodeId a = nl.add_node();
  NodeId b = nl.add_node();
  nl.add_source(a, 0.5, "in");
  nl.add_resistor(a, b, 100.0, "load");
  nl.add_memristor(b, kGround, 2e3, "cell");
  nl.add_capacitor(b, kGround, 1e-15, "cw");
  const std::string deck = export_spice(nl, "unit test");
  EXPECT_NE(deck.find("* unit test"), std::string::npos);
  EXPECT_NE(deck.find("Rload n1 n2 100"), std::string::npos);
  EXPECT_NE(deck.find("Vin n1 0 DC 0.5"), std::string::npos);
  EXPECT_NE(deck.find("Bcell n2 0 I="), std::string::npos);
  EXPECT_NE(deck.find("sinh("), std::string::npos);
  EXPECT_NE(deck.find("Ccw n2 0 1e-15"), std::string::npos);
  EXPECT_NE(deck.find(".op"), std::string::npos);
  EXPECT_NE(deck.find(".end"), std::string::npos);
}

TEST(Export, LinearModeEmitsMemristorsAsResistors) {
  Netlist nl;
  NodeId a = nl.add_node();
  nl.add_source(a, 1.0);
  nl.add_memristor(a, kGround, 5e3, "cell");
  nl.set_linear_memristors(true);
  const std::string deck = export_spice(nl);
  EXPECT_NE(deck.find("Rcell n1 0 5000"), std::string::npos);
  EXPECT_EQ(deck.find("sinh"), std::string::npos);
}

TEST(Export, UnnamedElementsGetAutoNames) {
  Netlist nl;
  NodeId a = nl.add_node();
  nl.add_source(a, 1.0);
  nl.add_resistor(a, kGround, 10.0);
  const std::string deck = export_spice(nl);
  EXPECT_NE(deck.find("auto"), std::string::npos);
}

}  // namespace
}  // namespace mnsim::spice
