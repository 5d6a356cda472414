// Netlist structural analysis (`mnsim check`, netlist pass).
//
// Inspects a spice::Netlist without solving it and reports every reason
// the DC operating-point solve could fail or mislead:
//   * construction invariants — dangling node ids, non-positive element
//     values, shorted elements, sources on ground (MN-NET-006..009) —
//     re-checked here so imported or hand-assembled netlists share one
//     validation path with constructed ones. A label-free screen runs
//     first; element labels and diagnostics are built only when it finds
//     an error,
//   * source conflicts — a node pinned by two voltage sources, reported
//     with *which* sources collide (MN-NET-003),
//   * DC connectivity — union-find over the conductive elements
//     (resistors, memristors, source pins; capacitors are open at DC):
//     an island with no path to ground or to any source makes the
//     reduced conductance matrix a singular Laplacian block (MN-NET-001),
//     and a node touched by nothing has an empty row (MN-NET-002). These
//     two also cover every structurally singular pattern: a node touched
//     only by capacitors is an island of its own,
//   * plausibility warnings (NetlistCheckOptions::warnings) — duplicate
//     names within a kind (MN-NET-010), a max/min conductance spread
//     beyond 1e12 predicting an ill-conditioned system (MN-NET-005), and
//     a netlist with no sources solving to all-zero voltages
//     (MN-NET-011).
//
// spice::solve_dc runs this analysis with warnings off as its pre-flight
// (DcOptions::preflight) and refuses-with-diagnosis via check::CheckError
// (re-running it with warnings on to build the error) instead of failing
// numerically; `Netlist::validate()` wraps the invariant subset.
#pragma once

#include "check/diagnostic.hpp"
#include "spice/netlist.hpp"

namespace mnsim::check {

struct NetlistCheckOptions {
  bool warnings = true;  // plausibility warnings (005/010/011)
};

// Full structural analysis; never throws on bad structure (that is the
// caller's decision), only on internal misuse.
[[nodiscard]] DiagnosticList check_netlist(
    const spice::Netlist& netlist, const NetlistCheckOptions& options = {});

// The invariant subset Netlist::validate() wraps: element/node sanity and
// source-conflict detection, no graph passes.
[[nodiscard]] DiagnosticList check_netlist_invariants(
    const spice::Netlist& netlist);

}  // namespace mnsim::check
