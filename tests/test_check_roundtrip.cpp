// SPICE export -> import round-trip error paths: every MN-SPI parse
// diagnostic has a golden trigger, truncated and malformed decks fail
// with code + line, and a corrupted deck is caught by the structural
// analyzer when the syntax survives.
#include "spice/import.hpp"

#include <gtest/gtest.h>

#include "check/diagnostic.hpp"
#include "check/netlist_check.hpp"
#include "spice/export.hpp"
#include "spice/netlist.hpp"
#include "check_testing.hpp"

namespace mnsim::spice {
namespace {

using check::ParseError;

Netlist divider() {
  Netlist nl;
  const NodeId n1 = nl.add_node();
  const NodeId n2 = nl.add_node();
  nl.add_source(n1, 1.0, "in");
  nl.add_resistor(n1, n2, 100.0, "top");
  nl.add_memristor(n2, kGround, 1e3, "cell");
  return nl;
}

// Asserts that importing `deck` fails with `code` at 1-based `line`.
void expect_parse_error(const std::string& deck, const std::string& code,
                        int line) {
  try {
    (void)import_spice(deck);
    FAIL() << "expected ParseError " << code << " for deck:\n" << deck;
  } catch (const ParseError& e) {
    EXPECT_EQ(e.diagnostic().code, code) << e.what();
    EXPECT_EQ(e.diagnostic().line, line) << e.what();
  }
}

TEST(CheckRoundTrip, ExportImportIsClean) {
  const Netlist original = divider();
  const Netlist imported = import_spice(export_spice(original));
  EXPECT_EQ(imported.resistors().size(), 1u);
  EXPECT_EQ(imported.memristors().size(), 1u);
  EXPECT_TRUE(check::check_netlist(imported).empty());
}

// MN-SPI-001: malformed node token.
TEST(CheckRoundTrip, BadNodeToken) {
  expect_parse_error("R1 nx 0 100\n", "MN-SPI-001", 1);
}

// MN-SPI-002: unparseable numeric value.
TEST(CheckRoundTrip, BadValueToken) {
  expect_parse_error("* title\nR1 n1 0 lots\n", "MN-SPI-002", 2);
}

// MN-SPI-003: short card — also what a mid-card truncation produces.
TEST(CheckRoundTrip, ShortCard) {
  expect_parse_error("R1 n1\n", "MN-SPI-003", 1);
}

TEST(CheckRoundTrip, TruncatedDeckFailsWithCodeAndLine) {
  std::string deck = export_spice(divider());
  // Cut mid-card: keep everything up to the last card's second token.
  const auto cell = deck.find("Bcell");
  ASSERT_NE(cell, std::string::npos);
  const auto space = deck.find(' ', cell + 6);
  deck.resize(space + 1);
  try {
    (void)import_spice(deck);
    FAIL() << "expected ParseError for truncated deck:\n" << deck;
  } catch (const ParseError& e) {
    EXPECT_EQ(e.diagnostic().code, "MN-SPI-003");
    EXPECT_GT(e.diagnostic().line, 1);
  }
}

// MN-SPI-004: non-DC source.
TEST(CheckRoundTrip, AcSourceRejected) {
  expect_parse_error("V1 n1 0 AC 1.0\n", "MN-SPI-004", 1);
}

// MN-SPI-005: ungrounded source.
TEST(CheckRoundTrip, UngroundedSourceRejected) {
  expect_parse_error("V1 n1 n2 DC 1.0\n", "MN-SPI-005", 1);
}

// MN-SPI-006: behavioral card without an I= expression.
TEST(CheckRoundTrip, BehavioralCardWithoutCurrent) {
  expect_parse_error("B1 n1 n2 V=1\n", "MN-SPI-006", 1);
}

// MN-SPI-007: I= expression that is not the sinh form.
TEST(CheckRoundTrip, MalformedSinhExpression) {
  expect_parse_error("B1 n1 n2 I=tanh(V(n1,n2))\n", "MN-SPI-007", 1);
}

// MN-SPI-008: element kind outside the exported subset.
TEST(CheckRoundTrip, UnsupportedElementKind) {
  expect_parse_error("X1 n1 n2 whatever\n", "MN-SPI-008", 1);
}

// MN-SPI-009: non-positive sinh coefficient (r_state would be <= 0).
TEST(CheckRoundTrip, NonPositiveSinhCoefficient) {
  expect_parse_error("V1 n1 0 DC 1\nB1 n1 n2 I=-0.5*sinh(V(n1,n2)/0.25)\n",
                     "MN-SPI-009", 2);
  expect_parse_error("B1 n1 n2 I=0*sinh(V(n1,n2)/0.25)\n", "MN-SPI-009", 1);
}

// ParseError still satisfies the historical std::runtime_error contract.
TEST(CheckRoundTrip, ParseErrorIsRuntimeError) {
  try {
    (void)import_spice("R1 n1\n");
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("MN-SPI-003"), std::string::npos);
  }
}

// A deck that parses but describes a broken circuit lands in the
// structural analyzer instead (the check_file bridge).
TEST(CheckRoundTrip, SyntacticallyValidButFloatingDeck) {
  const std::string deck =
      "V1 n1 0 DC 1\nR1 n1 0 100\nR2 n2 n3 100\n.op\n.end\n";
  const Netlist nl = import_spice(deck);
  EXPECT_TRUE(has_code(check::check_netlist(nl), "MN-NET-001"));
}

}  // namespace
}  // namespace mnsim::spice
