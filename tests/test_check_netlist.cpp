// Golden tests for the netlist structural analyzer: one test per MN-NET
// diagnostic code, plus the solve_dc pre-flight (refuse-with-diagnosis
// before factorization) and the Netlist::validate() wrapper.
#include "check/netlist_check.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "spice/mna.hpp"
#include "spice/netlist.hpp"
#include "check_testing.hpp"

namespace mnsim::spice {

// Injects raw elements past the adders' eager validation so the
// defense-in-depth invariant diagnostics stay reachable (see the friend
// declaration in netlist.hpp).
class NetlistTestPeer {
 public:
  static void push_resistor(Netlist& nl, NodeId a, NodeId b, double ohms) {
    nl.resistors_.push_back({a, b, ohms});
    nl.record_name(ElementKind::kResistor, nl.resistors_.size() - 1, "raw");
  }
  static void push_source(Netlist& nl, NodeId node, double volts) {
    nl.sources_.push_back({node, volts});
    nl.record_name(ElementKind::kSource, nl.sources_.size() - 1, "raw");
  }
};

}  // namespace mnsim::spice

namespace mnsim::check {
namespace {

using spice::kGround;
using spice::Netlist;
using spice::NetlistTestPeer;
using spice::NodeId;

// A healthy driven divider: source -> n1 -R- n2 -R- ground.
Netlist healthy() {
  Netlist nl;
  const NodeId n1 = nl.add_node();
  const NodeId n2 = nl.add_node();
  nl.add_source(n1, 1.0, "drive");
  nl.add_resistor(n1, n2, 100.0, "top");
  nl.add_resistor(n2, kGround, 100.0, "bottom");
  return nl;
}

TEST(NetlistCheck, HealthyNetlistIsClean) {
  EXPECT_TRUE(check_netlist(healthy()).empty());
}

// MN-NET-001: island with elements but no DC path to ground.
TEST(NetlistCheck, FloatingIslandIsDiagnosed) {
  Netlist nl = healthy();
  const NodeId a = nl.add_node();
  const NodeId b = nl.add_node();
  nl.add_resistor(a, b, 50.0, "island");
  const DiagnosticList diags = check_netlist(nl);
  EXPECT_TRUE(has_code(diags, "MN-NET-001"));
  EXPECT_EQ(diags.error_count(), 2u);  // both island nodes reported
}

// MN-NET-002: allocated node with nothing attached.
TEST(NetlistCheck, UnconnectedNodeIsDiagnosed) {
  Netlist nl = healthy();
  (void)nl.add_node();
  const DiagnosticList diags = check_netlist(nl);
  EXPECT_TRUE(has_code(diags, "MN-NET-002"));
}

// MN-NET-003: two sources pinning one node, named in the message.
TEST(NetlistCheck, ConflictingSourcesAreNamed) {
  Netlist nl = healthy();
  nl.add_source(1, 2.0, "second");
  const DiagnosticList diags = check_netlist_invariants(nl);
  ASSERT_TRUE(has_code(diags, "MN-NET-003"));
  const auto& d = diags.begin()[0];
  EXPECT_NE(d.message.find("'drive'"), std::string::npos);
  EXPECT_NE(d.message.find("'second'"), std::string::npos);
}

// A node stamped by no conductive element is singular for any values
// (capacitors are open at DC); the union-find pass reports it as an
// island of its own.
TEST(NetlistCheck, CapacitorOnlyNodeIsAFloatingIsland) {
  Netlist nl = healthy();
  const NodeId c = nl.add_node();
  nl.add_capacitor(c, kGround, 1e-15, "hang");
  const DiagnosticList diags = check_netlist(nl);
  EXPECT_TRUE(has_code(diags, "MN-NET-001"));
  EXPECT_EQ(diags.error_count(), 1u);
}

// MN-NET-005: extreme conductance spread predicts ill-conditioning.
TEST(NetlistCheck, ConductanceSpreadWarns) {
  Netlist nl = healthy();
  nl.add_resistor(1, kGround, 1e15, "huge");
  const DiagnosticList diags = check_netlist(nl);
  EXPECT_TRUE(has_code(diags, "MN-NET-005"));
  EXPECT_FALSE(diags.has_errors());
}

// MN-NET-006: element referencing an unallocated node id.
TEST(NetlistCheck, DanglingNodeIdIsDiagnosed) {
  Netlist nl = healthy();
  NetlistTestPeer::push_resistor(nl, 1, 99, 100.0);
  EXPECT_TRUE(has_code(check_netlist_invariants(nl), "MN-NET-006"));
}

// MN-NET-012: a source voltage or element value that is not finite. The
// adders and setters refuse one; a netlist that carries one anyway is
// refused by the invariant screen, and so by the solver's preflight,
// before any PCG iteration.
TEST(NetlistCheck, NonFiniteValueIsDiagnosed) {
  for (double bad : {std::numeric_limits<double>::quiet_NaN(),
                     std::numeric_limits<double>::infinity(),
                     -std::numeric_limits<double>::infinity()}) {
    Netlist source = healthy();
    NetlistTestPeer::push_source(source, source.add_node(), bad);
    EXPECT_TRUE(has_code(check_netlist_invariants(source), "MN-NET-012"));
    Netlist resistor = healthy();
    NetlistTestPeer::push_resistor(resistor, 1, kGround, bad);
    const DiagnosticList diags = check_netlist_invariants(resistor);
    EXPECT_TRUE(has_code(diags, "MN-NET-012"));
    EXPECT_FALSE(has_code(diags, "MN-NET-007"));
    try {
      (void)spice::solve_dc(source);
      ADD_FAILURE() << "expected check::CheckError";
    } catch (const CheckError& e) {
      EXPECT_TRUE(has_code(e.diagnostics(), "MN-NET-012"));
    }
  }
}

// MN-NET-007: non-positive element value.
TEST(NetlistCheck, NonPositiveResistanceIsDiagnosed) {
  Netlist nl = healthy();
  NetlistTestPeer::push_resistor(nl, 1, kGround, 0.0);
  EXPECT_TRUE(has_code(check_netlist_invariants(nl), "MN-NET-007"));
}

// MN-NET-008: element shorting a node to itself.
TEST(NetlistCheck, ShortedElementIsDiagnosed) {
  Netlist nl = healthy();
  NetlistTestPeer::push_resistor(nl, 2, 2, 100.0);
  EXPECT_TRUE(has_code(check_netlist_invariants(nl), "MN-NET-008"));
}

// MN-NET-009: a source pinning the ground node.
TEST(NetlistCheck, SourceOnGroundIsDiagnosed) {
  Netlist nl = healthy();
  NetlistTestPeer::push_source(nl, kGround, 1.0);
  EXPECT_TRUE(has_code(check_netlist_invariants(nl), "MN-NET-009"));
}

// MN-NET-010: duplicate names within a kind warn; across kinds they are
// fine (a deck renders R1 vs V1 unambiguously).
TEST(NetlistCheck, DuplicateNamesWarnPerKind) {
  Netlist nl = healthy();
  nl.add_resistor(1, kGround, 100.0, "top");  // second resistor 'top'
  const DiagnosticList diags = check_netlist(nl);
  EXPECT_TRUE(has_code(diags, "MN-NET-010"));
  EXPECT_FALSE(diags.has_errors());

  Netlist cross;
  const NodeId n1 = cross.add_node();
  cross.add_source(n1, 1.0, "1");
  cross.add_resistor(n1, kGround, 100.0, "1");
  EXPECT_FALSE(has_code(check_netlist(cross), "MN-NET-010"));
}

// MN-NET-011: elements but no drive — the DC answer is all zeros.
TEST(NetlistCheck, SourcelessNetlistWarns) {
  Netlist nl;
  const NodeId n1 = nl.add_node();
  nl.add_resistor(n1, kGround, 100.0);
  const DiagnosticList diags = check_netlist(nl);
  EXPECT_TRUE(has_code(diags, "MN-NET-011"));
  EXPECT_FALSE(diags.has_errors());
}

// The acceptance-criteria scenario: a deliberately singular netlist is
// refused by the pre-flight before MnaSolver attempts factorization.
TEST(NetlistCheck, SolveDcRefusesWithDiagnosisBeforeFactorizing) {
  Netlist nl = healthy();
  const NodeId a = nl.add_node();
  const NodeId b = nl.add_node();
  nl.add_resistor(a, b, 50.0, "island");
  try {
    (void)spice::solve_dc(nl);
    FAIL() << "expected CheckError";
  } catch (const CheckError& e) {
    EXPECT_TRUE(has_code(e.diagnostics(), "MN-NET-001"));
  }
}

TEST(NetlistCheck, SolveDcPreflightCanBeDisabled) {
  Netlist nl = healthy();
  spice::DcOptions options;
  options.preflight = false;
  const auto dc = spice::solve_dc(nl, options);
  EXPECT_NEAR(dc.voltage(2), 0.5, 1e-9);
}

// The retired structural-rank pass (MN-NET-004) as it ran before its
// removal: a row-to-column matching over the stamped pattern of the
// reduced system (conductive elements only; sources pin their nodes),
// diagonal first, then augmenting paths. Returns the nodes it reported:
// unmatchable rows of touched nodes.
std::vector<NodeId> structurally_singular_nodes(const Netlist& nl) {
  const int nodes = nl.node_count() + 1;
  std::vector<bool> touched(static_cast<std::size_t>(nodes), false);
  std::vector<bool> pinned(static_cast<std::size_t>(nodes), false);
  const auto touch = [&](NodeId a, NodeId b) {
    touched[static_cast<std::size_t>(a)] = true;
    touched[static_cast<std::size_t>(b)] = true;
  };
  for (const auto& r : nl.resistors()) touch(r.a, r.b);
  for (const auto& m : nl.memristors()) touch(m.a, m.b);
  for (const auto& c : nl.capacitors()) touch(c.a, c.b);
  for (const auto& s : nl.sources()) {
    touched[static_cast<std::size_t>(s.node)] = true;
    pinned[static_cast<std::size_t>(s.node)] = true;
  }
  std::vector<int> unknown(static_cast<std::size_t>(nodes), -1);
  std::vector<NodeId> node_of;
  for (NodeId n = 1; n < nodes; ++n)
    if (!pinned[static_cast<std::size_t>(n)]) {
      unknown[static_cast<std::size_t>(n)] = static_cast<int>(node_of.size());
      node_of.push_back(n);
    }
  std::vector<std::vector<int>> pattern(node_of.size());
  const auto stamp = [&](NodeId a, NodeId b) {
    const int ia = unknown[static_cast<std::size_t>(a)];
    const int ib = unknown[static_cast<std::size_t>(b)];
    if (ia >= 0) pattern[static_cast<std::size_t>(ia)].push_back(ia);
    if (ib >= 0) pattern[static_cast<std::size_t>(ib)].push_back(ib);
    if (ia >= 0 && ib >= 0) {
      pattern[static_cast<std::size_t>(ia)].push_back(ib);
      pattern[static_cast<std::size_t>(ib)].push_back(ia);
    }
  };
  for (const auto& r : nl.resistors()) stamp(r.a, r.b);
  for (const auto& m : nl.memristors()) stamp(m.a, m.b);

  const std::size_t u = node_of.size();
  std::vector<int> match_col(u, -1), match_row(u, -1);
  for (std::size_t i = 0; i < u; ++i)
    for (int j : pattern[i])
      if (j == static_cast<int>(i)) {
        match_row[i] = match_col[i] = j;
        break;
      }
  std::vector<char> visited(u, 0);
  const auto augment = [&](auto&& self, int row) -> bool {
    for (int col : pattern[static_cast<std::size_t>(row)]) {
      if (visited[static_cast<std::size_t>(col)]) continue;
      visited[static_cast<std::size_t>(col)] = 1;
      if (match_col[static_cast<std::size_t>(col)] < 0 ||
          self(self, match_col[static_cast<std::size_t>(col)])) {
        match_col[static_cast<std::size_t>(col)] = row;
        match_row[static_cast<std::size_t>(row)] = col;
        return true;
      }
    }
    return false;
  };
  std::vector<NodeId> singular;
  for (std::size_t i = 0; i < u; ++i) {
    if (match_row[i] >= 0) continue;
    std::fill(visited.begin(), visited.end(), 0);
    if (!augment(augment, static_cast<int>(i)) &&
        touched[static_cast<std::size_t>(node_of[i])])
      singular.push_back(node_of[i]);
  }
  return singular;
}

// MN-NET-004 was retired because connectivity implies it: wherever the
// structural-rank pass fired, MN-NET-001 or MN-NET-002 already reports
// the same node. Checked over the golden netlists above and seeded
// random netlists with capacitor-only nodes.
TEST(NetlistCheck, ConnectivityCoversStructuralSingularity) {
  std::vector<Netlist> cases;
  cases.push_back(healthy());
  {
    Netlist nl = healthy();
    const NodeId a = nl.add_node();
    const NodeId b = nl.add_node();
    nl.add_resistor(a, b, 50.0, "island");
    cases.push_back(nl);
  }
  {
    Netlist nl = healthy();
    (void)nl.add_node();
    cases.push_back(nl);
  }
  {
    Netlist nl = healthy();
    const NodeId c = nl.add_node();
    nl.add_capacitor(c, kGround, 1e-15, "hang");
    cases.push_back(nl);
  }
  std::mt19937 rng(4242);
  for (int trial = 0; trial < 300; ++trial) {
    Netlist nl;
    const int nodes = 2 + static_cast<int>(rng() % 12);
    for (int i = 0; i < nodes; ++i) (void)nl.add_node();
    std::uniform_int_distribution<NodeId> pick(0, nodes);
    const int elements = static_cast<int>(rng() % (2 * nodes + 1));
    for (int e = 0; e < elements; ++e) {
      const NodeId a = pick(rng);
      const NodeId b = pick(rng);
      if (a == b) continue;
      switch (rng() % 4) {
        case 0: nl.add_memristor(a, b, 1e3); break;
        case 1: nl.add_capacitor(a, b, 1e-15); break;
        default: nl.add_resistor(a, b, 100.0); break;
      }
    }
    for (NodeId n = 1; n <= nodes; ++n)
      if (rng() % 5 == 0) nl.add_source(n, 0.1);
    cases.push_back(nl);
  }

  int fired = 0;
  for (std::size_t k = 0; k < cases.size(); ++k) {
    const DiagnosticList diags = check_netlist(cases[k]);
    for (NodeId n : structurally_singular_nodes(cases[k])) {
      ++fired;
      const std::string where = "node n" + std::to_string(n);
      bool covered = false;
      for (const auto& d : diags)
        covered = covered || ((d.code == "MN-NET-001" ||
                               d.code == "MN-NET-002") &&
                              d.location == where);
      EXPECT_TRUE(covered) << "case " << k << ": " << where;
    }
  }
  EXPECT_GT(fired, 10);  // the random cases do reach the retired pass
}

// The pre-flight decides with warnings off, then rebuilds the refusal
// with the full analysis: the thrown list is check_netlist's, warnings
// (MN-NET-010 here) included.
TEST(NetlistCheck, SolveDcRefusalCarriesFullDiagnostics) {
  Netlist nl = healthy();
  nl.add_resistor(1, kGround, 100.0, "top");  // duplicate name: warning
  const NodeId a = nl.add_node();
  const NodeId b = nl.add_node();
  nl.add_resistor(a, b, 50.0, "island");
  NetlistTestPeer::push_resistor(nl, 2, kGround, 100.0);
  NetlistTestPeer::push_resistor(nl, 2, kGround, 100.0);  // 'raw' twice
  const DiagnosticList want = check_netlist(nl);
  ASSERT_TRUE(want.has_errors());
  ASSERT_TRUE(has_code(want, "MN-NET-010"));
  try {
    (void)spice::solve_dc(nl);
    FAIL() << "expected CheckError";
  } catch (const CheckError& e) {
    EXPECT_EQ(e.diagnostics().render_json(), want.render_json());
  }
}

// The validate() wrapper keeps the historical std::invalid_argument but
// now carries the first diagnostic's code and message.
TEST(NetlistCheck, ValidateWrapperNamesConflict) {
  Netlist nl = healthy();
  nl.add_source(1, 2.0, "second");
  try {
    nl.validate();
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("MN-NET-003"), std::string::npos);
    EXPECT_NE(what.find("'second'"), std::string::npos);
  }
}

}  // namespace
}  // namespace mnsim::check
