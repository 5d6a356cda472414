#include "check/netlist_check.hpp"

#include <cmath>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace mnsim::check {

namespace {

using spice::ElementKind;
using spice::kGround;
using spice::Netlist;
using spice::NodeId;

// MN-NET-005 fires above this max g / min g spread.
constexpr double kConductanceSpreadWarning = 1e12;

// Appended with += : GCC 12 at -O3 reports a -Wrestrict false positive
// on "n" + std::to_string(n).
std::string node_name(NodeId n) {
  if (n == kGround) return "ground";
  std::string name = "n";
  name += std::to_string(n);
  return name;
}

// Appended with += for the same reason as node_name.
std::string element_label(const char* kind, const std::string& name,
                          std::size_t index) {
  std::string label = kind;
  label += " ";
  if (name.empty()) {
    label += "#";
    label += std::to_string(index);
  } else {
    label += "'";
    label += name;
    label += "'";
  }
  return label;
}

bool node_ok(const Netlist& nl, NodeId n) {
  return n >= 0 && n <= nl.node_count();
}

// Union-find over node ids.
class DisjointSet {
 public:
  explicit DisjointSet(int n)
      : parent_(static_cast<std::size_t>(n)),
        size_(static_cast<std::size_t>(n), 1) {
    for (int i = 0; i < n; ++i) parent_[static_cast<std::size_t>(i)] = i;
  }
  int find(int x) {
    while (parent_[static_cast<std::size_t>(x)] != x) {
      parent_[static_cast<std::size_t>(x)] =
          parent_[static_cast<std::size_t>(
              parent_[static_cast<std::size_t>(x)])];
      x = parent_[static_cast<std::size_t>(x)];
    }
    return x;
  }
  // Union by size: the smaller tree hangs under the larger root, so no
  // find walks more than log2(n) links.
  void unite(int a, int b) {
    auto ra = static_cast<std::size_t>(find(a));
    auto rb = static_cast<std::size_t>(find(b));
    if (ra == rb) return;
    if (size_[ra] < size_[rb]) std::swap(ra, rb);
    parent_[rb] = static_cast<int>(ra);
    size_[ra] += size_[rb];
  }

 private:
  std::vector<int> parent_;
  std::vector<int> size_;
};

// Screen for every invariant error without building a label: true when
// the labelled pass below would emit at least one error. The common,
// healthy netlist stops here.
bool has_invariant_error(const Netlist& nl) {
  const auto bad = [&](NodeId a, NodeId b, double value) {
    // Finiteness first: an ordered compare against NaN would raise
    // FE_INVALID (a trap under the MNSIM_FPE tripwire).
    return !node_ok(nl, a) || !node_ok(nl, b) || a == b ||
           !std::isfinite(value) || !(value > 0.0);
  };
  for (const auto& r : nl.resistors())
    if (bad(r.a, r.b, r.ohms)) return true;
  for (const auto& m : nl.memristors())
    if (bad(m.a, m.b, m.r_state)) return true;
  for (const auto& c : nl.capacitors())
    if (bad(c.a, c.b, c.farads)) return true;
  std::vector<char> pinned(static_cast<std::size_t>(nl.node_count()) + 1, 0);
  for (const auto& s : nl.sources()) {
    if (!node_ok(nl, s.node) || s.node == kGround || !std::isfinite(s.volts))
      return true;
    char& pin = pinned[static_cast<std::size_t>(s.node)];
    if (pin) return true;
    pin = 1;
  }
  return false;
}

// The labelled invariant errors (MN-NET-003/006..009/012), element by
// element; only run when has_invariant_error() found something.
void invariant_errors(const Netlist& nl, DiagnosticList& out) {
  auto bad_node = [&](const std::string& label, NodeId n) {
    auto& d = out.emit("MN-NET-006", Severity::kError,
                       label + " references unallocated node id " +
                           std::to_string(n));
    d.location = label;
    d.hint = "allocate nodes with Netlist::add_node() before wiring them";
  };
  // A value that is not finite (NaN or +-inf) is MN-NET-012; a finite
  // one that is not positive MN-NET-007. True when either was emitted.
  auto bad_value = [&](const std::string& label, double value,
                       const char* what) {
    if (std::isfinite(value)) return !(value > 0.0);
    auto& d = out.emit("MN-NET-012", Severity::kError,
                       label + " has a non-finite " + what + " (" +
                           std::to_string(value) + ")");
    d.location = label;
    d.hint = "every element value and source voltage must be a finite number";
    return false;
  };
  auto shorted = [&](const std::string& label, NodeId n) {
    auto& d = out.emit("MN-NET-008", Severity::kError,
                       label + " connects node " + node_name(n) +
                           " to itself");
    d.location = label;
  };

  for (std::size_t i = 0; i < nl.resistors().size(); ++i) {
    const auto& r = nl.resistors()[i];
    const std::string label = element_label(
        "resistor", nl.element_name(ElementKind::kResistor, i), i);
    if (!node_ok(nl, r.a)) bad_node(label, r.a);
    if (!node_ok(nl, r.b)) bad_node(label, r.b);
    if (node_ok(nl, r.a) && r.a == r.b) shorted(label, r.a);
    if (bad_value(label, r.ohms, "resistance")) {
      auto& d = out.emit("MN-NET-007", Severity::kError,
                         label + " has non-positive resistance " +
                             std::to_string(r.ohms) + " ohm");
      d.location = label;
      d.hint = "model an ideal short as a small positive resistance";
    }
  }
  for (std::size_t i = 0; i < nl.memristors().size(); ++i) {
    const auto& m = nl.memristors()[i];
    const std::string label = element_label(
        "memristor", nl.element_name(ElementKind::kMemristor, i), i);
    if (!node_ok(nl, m.a)) bad_node(label, m.a);
    if (!node_ok(nl, m.b)) bad_node(label, m.b);
    if (node_ok(nl, m.a) && m.a == m.b) shorted(label, m.a);
    if (bad_value(label, m.r_state, "programmed state")) {
      auto& d = out.emit("MN-NET-007", Severity::kError,
                         label + " has non-positive programmed state " +
                             std::to_string(m.r_state) + " ohm");
      d.location = label;
    }
  }
  for (std::size_t i = 0; i < nl.capacitors().size(); ++i) {
    const auto& c = nl.capacitors()[i];
    const std::string label = element_label(
        "capacitor", nl.element_name(ElementKind::kCapacitor, i), i);
    if (!node_ok(nl, c.a)) bad_node(label, c.a);
    if (!node_ok(nl, c.b)) bad_node(label, c.b);
    if (node_ok(nl, c.a) && c.a == c.b) shorted(label, c.a);
    if (bad_value(label, c.farads, "capacitance")) {
      auto& d = out.emit("MN-NET-007", Severity::kError,
                         label + " has non-positive capacitance " +
                             std::to_string(c.farads) + " F");
      d.location = label;
    }
  }

  // Source conflicts: report *which* sources collide on which node.
  std::map<NodeId, std::vector<std::size_t>> pins;
  for (std::size_t i = 0; i < nl.sources().size(); ++i) {
    const auto& s = nl.sources()[i];
    const std::string label = element_label(
        "source", nl.element_name(ElementKind::kSource, i), i);
    if (!node_ok(nl, s.node)) {
      bad_node(label, s.node);
      continue;
    }
    if (!std::isfinite(s.volts)) {
      auto& d = out.emit("MN-NET-012", Severity::kError,
                         label + " has a non-finite voltage (" +
                             std::to_string(s.volts) + " V)");
      d.location = label;
      d.hint = "every element value and source voltage must be a finite number";
    }
    if (s.node == kGround) {
      auto& d = out.emit("MN-NET-009", Severity::kError,
                         label + " pins the ground node");
      d.location = label;
      d.hint = "ground is fixed at 0 V; drive a non-ground node instead";
      continue;
    }
    pins[s.node].push_back(i);
  }
  for (const auto& [node, sources] : pins) {
    if (sources.size() < 2) continue;
    std::string who;
    for (std::size_t i = 0; i < sources.size(); ++i) {
      const auto& s = nl.sources()[sources[i]];
      if (i > 0) who += i + 1 == sources.size() ? " and " : ", ";
      who += element_label("source",
                           nl.element_name(ElementKind::kSource, sources[i]),
                           sources[i]) +
             " (" + std::to_string(s.volts) + " V)";
    }
    auto& d = out.emit("MN-NET-003", Severity::kError,
                       "node " + node_name(node) +
                           " is pinned by conflicting sources: " + who);
    d.location = "node " + node_name(node);
    d.hint = "keep exactly one grounded source per driven node";
  }
}

// MN-NET-010: names only need to be unique within a kind: a deck renders
// them with a kind prefix (R1 vs V1), so cross-kind reuse is not
// ambiguous. Sources that fail their node checks are not counted.
void duplicate_names(const Netlist& nl, DiagnosticList& out) {
  std::map<std::string, int> name_uses;
  auto count_name = [&](const char* kind, const std::string& name) {
    if (!name.empty()) ++name_uses[std::string(kind) + " '" + name + "'"];
  };
  for (std::size_t i = 0; i < nl.resistors().size(); ++i)
    count_name("resistor", nl.element_name(ElementKind::kResistor, i));
  for (std::size_t i = 0; i < nl.memristors().size(); ++i)
    count_name("memristor", nl.element_name(ElementKind::kMemristor, i));
  for (std::size_t i = 0; i < nl.capacitors().size(); ++i)
    count_name("capacitor", nl.element_name(ElementKind::kCapacitor, i));
  for (std::size_t i = 0; i < nl.sources().size(); ++i) {
    const auto& s = nl.sources()[i];
    if (node_ok(nl, s.node) && s.node != kGround)
      count_name("source", nl.element_name(ElementKind::kSource, i));
  }
  for (const auto& [name, uses] : name_uses) {
    if (uses > 1) {
      auto& d = out.emit("MN-NET-010", Severity::kWarning,
                         name + " name is used " + std::to_string(uses) +
                             " times");
      d.hint = "duplicate names make exported decks ambiguous";
    }
  }
}

// Invariant checks shared by check_netlist and the validate() wrapper:
// labels and diagnostics are built only when the screen finds an error,
// and the name map only when warnings are requested.
void invariants(const Netlist& nl, DiagnosticList& out, bool warnings) {
  if (has_invariant_error(nl)) invariant_errors(nl, out);
  if (warnings) duplicate_names(nl, out);
}

}  // namespace

DiagnosticList check_netlist_invariants(const Netlist& nl) {
  DiagnosticList out;
  invariants(nl, out, /*warnings=*/false);
  return out;
}

DiagnosticList check_netlist(const Netlist& nl,
                             const NetlistCheckOptions& options) {
  DiagnosticList out;
  invariants(nl, out, options.warnings);
  // Graph passes assume in-range node ids; bail out on invariant errors.
  if (out.has_errors()) return out;

  const int nodes = nl.node_count() + 1;  // index 0 = ground

  // Which nodes any element touches.
  std::vector<bool> touched(static_cast<std::size_t>(nodes), false);
  touched[kGround] = true;
  auto touch = [&](NodeId n) { touched[static_cast<std::size_t>(n)] = true; };
  for (const auto& r : nl.resistors()) {
    touch(r.a);
    touch(r.b);
  }
  for (const auto& m : nl.memristors()) {
    touch(m.a);
    touch(m.b);
  }
  for (const auto& c : nl.capacitors()) {
    touch(c.a);
    touch(c.b);
  }
  for (const auto& s : nl.sources()) touch(s.node);

  // DC-conductive connectivity: resistors and memristors conduct,
  // capacitors are open, a source ties its node to ground.
  DisjointSet dsu(nodes);
  for (const auto& r : nl.resistors()) dsu.unite(r.a, r.b);
  for (const auto& m : nl.memristors()) dsu.unite(m.a, m.b);
  for (const auto& s : nl.sources()) dsu.unite(s.node, kGround);
  const int ground_root = dsu.find(kGround);

  for (int n = 1; n < nodes; ++n) {
    if (!touched[static_cast<std::size_t>(n)]) {
      auto& d = out.emit("MN-NET-002", Severity::kError,
                         "node " + node_name(n) +
                             " is allocated but connected to nothing");
      d.location = "node " + node_name(n);
      d.hint = "remove the node or wire an element to it";
    } else if (dsu.find(n) != ground_root) {
      auto& d = out.emit(
          "MN-NET-001", Severity::kError,
          "node " + node_name(n) +
              " has no DC path to ground (floating island: the reduced "
              "conductance matrix is singular there)");
      d.location = "node " + node_name(n);
      d.hint =
          "add a conductive path (resistor/memristor/source) from the "
          "island to ground";
    }
  }

  if (options.warnings) {
    // Conditioning plausibility: spread of stamped conductances.
    double g_min = 0.0;
    double g_max = 0.0;
    auto account = [&](double g) {
      if (!(g > 0.0)) return;
      if (g_min == 0.0 || g < g_min) g_min = g;
      if (g > g_max) g_max = g;
    };
    for (const auto& r : nl.resistors()) account(1.0 / r.ohms);
    for (const auto& m : nl.memristors()) account(1.0 / m.r_state);
    if (g_min > 0.0 && g_max / g_min > kConductanceSpreadWarning) {
      auto& d = out.emit(
          "MN-NET-005", Severity::kWarning,
          "conductance spread " + std::to_string(g_max / g_min) +
              " exceeds " +
              std::to_string(kConductanceSpreadWarning) +
              "; expect an ill-conditioned solve (CG retries or dense "
              "fallback)");
      d.hint = "see docs/ROBUSTNESS.md for the graceful-degradation ladder";
    }
    if (nl.sources().empty() &&
        !(nl.resistors().empty() && nl.memristors().empty())) {
      auto& d = out.emit("MN-NET-011", Severity::kWarning,
                         "netlist has no voltage sources; the DC solution "
                         "is identically zero");
      d.hint = "add a grounded source to drive the network";
    }
  }

  return out;
}

}  // namespace mnsim::check
