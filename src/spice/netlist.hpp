// Circuit netlist data model for the circuit-level ("SPICE") baseline.
//
// MNSIM's validation (paper Sec. VII-A/B, Fig. 5, Tables II/III) compares
// the behavior-level models against a circuit-level simulation of the
// crossbar resistor network. This substrate represents exactly that
// circuit class: linear resistors, nonlinear memristor elements
// (I = A*sinh(V/v_t), the same device law tech::MemristorModel uses),
// ideal grounded voltage sources, and (for RC ablations and export)
// grounded capacitors — solved for the DC operating point by
// Newton-iterated modified nodal analysis in mna.hpp.
#pragma once

#include <array>
#include <cstddef>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "tech/memristor.hpp"

namespace mnsim::spice {

// Node 0 is ground; add_node() allocates 1, 2, ...
using NodeId = int;
inline constexpr NodeId kGround = 0;

// Element names live in the Netlist (element_name), not in the elements.
struct Resistor {
  NodeId a = kGround;
  NodeId b = kGround;
  double ohms = 0.0;
};

struct MemristorElement {
  NodeId a = kGround;      // current flows a -> b for positive v(a)-v(b)
  NodeId b = kGround;
  double r_state = 1e3;    // programmed (linear-limit) resistance
};

struct VoltageSource {
  NodeId node = kGround;   // ideal source from `node` to ground
  double volts = 0.0;
};

struct Capacitor {
  NodeId a = kGround;
  NodeId b = kGround;
  double farads = 0.0;
};

enum class ElementKind { kResistor, kMemristor, kSource, kCapacitor };

// Optional crossbar wire metadata a netlist builder can attach: the
// node-id chains (in wire order) of each row wire and each column wire
// (column chains include the sense node). Adjacent chain entries are
// coupled by wire-segment resistors, the two sides only by one
// memristor per tap pair — exactly the bipartite structure the Schur
// rung of the linear-solve ladder exploits (numeric/schur.hpp). The
// solver lays out that structure's chain slots, and from the memristors
// joining its two sides its cell slots, and assembles straight into
// them; a stamp that lands on none of them, a non-positive chain pivot or a
// failed residual check sends the solve to the generic ladder, so stale
// or wrong structure degrades performance, never correctness.
struct WireStructure {
  std::vector<std::vector<NodeId>> row_chains;  // row taps, wire order
  std::vector<std::vector<NodeId>> col_chains;  // column taps + sense node

  [[nodiscard]] bool empty() const {
    return row_chains.empty() || col_chains.empty();
  }
};

class Netlist {
 public:
  // The shared nonlinear device law for all memristor elements.
  explicit Netlist(tech::MemristorModel device = tech::default_rram())
      : device_(std::move(device)) {}

  NodeId add_node();
  [[nodiscard]] int node_count() const { return next_node_ - 1; }

  // Capacity for the elements a builder is about to add.
  void reserve(std::size_t resistors, std::size_t memristors,
               std::size_t sources, std::size_t capacitors);
  void add_resistor(NodeId a, NodeId b, double ohms, std::string name = {});
  void add_memristor(NodeId a, NodeId b, double r_state,
                     std::string name = {});
  void add_source(NodeId node, double volts, std::string name = {});
  void add_capacitor(NodeId a, NodeId b, double farads,
                     std::string name = {});

  // Value-only mutation for sweep reuse: updates element `index` (in
  // insertion order) without touching the topology, so a netlist built
  // once can be re-programmed per Monte-Carlo trial instead of being
  // reconstructed (node allocation and element storage). Both setters
  // keep validate()'s invariants, which is what lets a cache that vouches
  // for its netlist skip validate() (MnaCache::reprogrammed_only).
  void set_memristor_state(std::size_t index, double r_state);
  void set_source_voltage(std::size_t index, double volts);

  // An element's name: the one it was added with (an imported deck's),
  // else what the namer gives for its kind and index, else empty. A
  // builder whose names follow from kind and index (build_crossbar_netlist)
  // sets a namer and stores none, so a name costs nothing until an export
  // or a diagnostic asks for it.
  using Namer = std::function<std::string(ElementKind, std::size_t)>;
  void set_namer(Namer namer) { namer_ = std::move(namer); }
  [[nodiscard]] std::string element_name(ElementKind kind,
                                         std::size_t index) const;

  // Wire-structure metadata for structure-exploiting solves; empty by
  // default (generic netlists). Value-only mutation never invalidates
  // it — it describes topology, not element values.
  void set_wire_structure(WireStructure ws) {
    wire_structure_ = std::move(ws);
  }
  [[nodiscard]] const WireStructure& wire_structure() const {
    return wire_structure_;
  }

  // Treat memristors as linear resistors at their programmed state
  // (disables the Newton loop; used for the nonlinearity ablation).
  void set_linear_memristors(bool linear) { linear_memristors_ = linear; }
  [[nodiscard]] bool linear_memristors() const { return linear_memristors_; }

  [[nodiscard]] const tech::MemristorModel& device() const { return device_; }
  [[nodiscard]] const std::vector<Resistor>& resistors() const {
    return resistors_;
  }
  [[nodiscard]] const std::vector<MemristorElement>& memristors() const {
    return memristors_;
  }
  [[nodiscard]] const std::vector<VoltageSource>& sources() const {
    return sources_;
  }
  [[nodiscard]] const std::vector<Capacitor>& capacitors() const {
    return capacitors_;
  }

  // Throws std::invalid_argument on dangling node ids or non-positive
  // element values.
  void validate() const;

 private:
  // The adders reject malformed elements eagerly, which makes the
  // defense-in-depth invariant diagnostics (MN-NET-006..009 in
  // check/netlist_check.cpp) unreachable through this API. The test peer
  // injects raw elements so those paths keep golden coverage.
  friend class NetlistTestPeer;

  void check_node(NodeId n) const;
  // Keeps the names of `kind` in step with its elements once any of them
  // is named; `index` is the element just added.
  void record_name(ElementKind kind, std::size_t index, std::string&& name);

  tech::MemristorModel device_;
  NodeId next_node_ = 1;
  bool linear_memristors_ = false;
  WireStructure wire_structure_;
  std::vector<Resistor> resistors_;
  std::vector<MemristorElement> memristors_;
  std::vector<VoltageSource> sources_;
  std::vector<Capacitor> capacitors_;
  // Stored names by kind (ElementKind order); empty until one is named.
  std::array<std::vector<std::string>, 4> names_;
  Namer namer_;
};

}  // namespace mnsim::spice
