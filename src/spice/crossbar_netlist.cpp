#include "spice/crossbar_netlist.hpp"

#include <cmath>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>

#include "numeric/schur.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/fp.hpp"
#include "util/parallel.hpp"

namespace mnsim::spice {

CrossbarSpec CrossbarSpec::uniform(int rows, int cols,
                                   const tech::MemristorModel& device,
                                   double segment_resistance,
                                   double sense_resistance, double r_state) {
  CrossbarSpec spec;
  spec.rows = rows;
  spec.cols = cols;
  spec.device = device;
  spec.segment_resistance = segment_resistance;
  spec.sense_resistance = sense_resistance;
  spec.input_voltages.assign(static_cast<std::size_t>(rows),
                             device.v_read.value());
  spec.cell_resistance.assign(
      static_cast<std::size_t>(rows),
      std::vector<double>(static_cast<std::size_t>(cols), r_state));
  return spec;
}

void CrossbarSpec::validate() const {
  if (rows <= 0 || cols <= 0)
    throw std::invalid_argument("CrossbarSpec: rows/cols");
  // Each value is checked finite before any ordered compare, which would
  // raise FE_INVALID on a NaN (a trap under the MNSIM_FPE tripwire).
  if (!std::isfinite(sense_resistance) || !std::isfinite(segment_resistance) ||
      !std::isfinite(segment_capacitance))
    throw std::invalid_argument("CrossbarSpec: wire value not finite");
  if (!(sense_resistance > 0))
    throw std::invalid_argument("CrossbarSpec: sense resistance");
  if (!ideal_wires && !(segment_resistance > 0))
    throw std::invalid_argument("CrossbarSpec: segment resistance");
  if (input_voltages.size() != static_cast<std::size_t>(rows))
    throw std::invalid_argument("CrossbarSpec: input vector size");
  for (double v : input_voltages)
    if (!std::isfinite(v))
      throw std::invalid_argument("CrossbarSpec: input voltage not finite");
  if (cell_resistance.size() != static_cast<std::size_t>(rows))
    throw std::invalid_argument("CrossbarSpec: cell matrix rows");
  for (const auto& row : cell_resistance) {
    if (row.size() != static_cast<std::size_t>(cols))
      throw std::invalid_argument("CrossbarSpec: cell matrix cols");
    for (double r : row)
      if (!std::isfinite(r) || !(r > 0))
        throw std::invalid_argument(
            "CrossbarSpec: cell resistance <= 0 or not finite");
  }
  device.validate();
}

namespace {

// "<prefix><i>_<j>", appended with += (GCC 12 at -O3 reports a
// -Wrestrict false positive on "prefix" + std::to_string(i)).
std::string tap_name(const char* prefix, std::size_t i, std::size_t j) {
  std::string name = prefix;
  name += std::to_string(i);
  name += '_';
  name += std::to_string(j);
  return name;
}

std::string indexed_name(const char* prefix, std::size_t i) {
  std::string name = prefix;
  name += std::to_string(i);
  return name;
}

// The names of build_crossbar_netlist's elements, from kind and index:
// sources Vin<i>; cells X<i>_<j>; resistors, in insertion order, the row
// wires Rrow<i>_<j>, the column wires Rcol<i>_<j> and Rcol_end<j> (or,
// with ideal wires, the unnamed tap-to-sense shorts), then the sense
// loads Rs<j>. Capacitors are unnamed.
Netlist::Namer crossbar_namer(const CrossbarSpec& spec) {
  const auto m = static_cast<std::size_t>(spec.rows);
  const auto n = static_cast<std::size_t>(spec.cols);
  const bool ideal = spec.ideal_wires;
  return [m, n, ideal](ElementKind kind, std::size_t k) -> std::string {
    switch (kind) {
      case ElementKind::kSource:
        return indexed_name("Vin", k);
      case ElementKind::kMemristor:
        return tap_name("X", k / n, k % n);
      case ElementKind::kCapacitor:
        return {};
      case ElementKind::kResistor:
        break;
    }
    if (k < m * n)
      return ideal ? std::string() : tap_name("Rrow", k / n, k % n);
    k -= m * n;
    if (!ideal) {
      if (k < m * n) {
        const std::size_t j = k / m;
        const std::size_t i = k % m;
        return i + 1 < m ? tap_name("Rcol", i, j)
                         : indexed_name("Rcol_end", j);
      }
      k -= m * n;
    }
    return indexed_name("Rs", k);
  };
}

}  // namespace

Netlist build_crossbar_netlist(const CrossbarSpec& spec,
                               std::vector<NodeId>* out_column_nodes) {
  obs::Span span("spice.build_netlist");
  spec.validate();
  Netlist nl(spec.device);
  nl.set_linear_memristors(spec.linear_memristors);
  nl.set_namer(crossbar_namer(spec));

  const int m = spec.rows;
  const int n = spec.cols;
  const auto cells = static_cast<std::size_t>(m) * static_cast<std::size_t>(n);
  const auto columns = static_cast<std::size_t>(n);
  const bool caps = spec.segment_capacitance > 0 && !spec.ideal_wires;
  nl.reserve((spec.ideal_wires ? cells : 2 * cells) + columns, cells,
             static_cast<std::size_t>(m), caps ? 2 * cells + columns : 0);

  // One driven node per row; row taps at each cell; column taps at each
  // cell; a sense node per column (shared with the last column tap).
  std::vector<NodeId> source_node(static_cast<std::size_t>(m));
  std::vector<std::vector<NodeId>> row_tap(
      static_cast<std::size_t>(m),
      std::vector<NodeId>(static_cast<std::size_t>(n)));
  std::vector<std::vector<NodeId>> col_tap(
      static_cast<std::size_t>(m),
      std::vector<NodeId>(static_cast<std::size_t>(n)));

  for (int i = 0; i < m; ++i) source_node[i] = nl.add_node();
  for (int i = 0; i < m; ++i)
    for (int j = 0; j < n; ++j) {
      row_tap[i][j] = spec.ideal_wires ? source_node[i] : nl.add_node();
      col_tap[i][j] = nl.add_node();
    }

  for (int i = 0; i < m; ++i)
    nl.add_source(source_node[i], spec.input_voltages[i]);

  // Row wires: source -> tap(0) -> tap(1) -> ...
  if (!spec.ideal_wires) {
    for (int i = 0; i < m; ++i) {
      NodeId prev = source_node[i];
      for (int j = 0; j < n; ++j) {
        nl.add_resistor(prev, row_tap[i][j], spec.segment_resistance);
        prev = row_tap[i][j];
      }
    }
  }

  // Cells.
  for (int i = 0; i < m; ++i)
    for (int j = 0; j < n; ++j)
      nl.add_memristor(row_tap[i][j], col_tap[i][j],
                       spec.cell_resistance[i][j]);

  // Column wires run down to the sense resistor below the last row; when
  // wires are ideal the column taps are merged by zero-resistance
  // modelling: we emulate that by chaining negligible-cost merges — here
  // we simply connect every tap straight to the sense node.
  std::vector<NodeId> sense_node(static_cast<std::size_t>(n));
  for (int j = 0; j < n; ++j) sense_node[j] = nl.add_node();

  if (spec.ideal_wires) {
    // Ideal column: all taps shorted to the sense node. MNA needs finite
    // resistances, so use a value far below any cell resistance.
    const double tiny = 1e-6;
    for (int i = 0; i < m; ++i)
      for (int j = 0; j < n; ++j)
        nl.add_resistor(col_tap[i][j], sense_node[j], tiny);
  } else {
    for (int j = 0; j < n; ++j) {
      for (int i = 0; i + 1 < m; ++i)
        nl.add_resistor(col_tap[i][j], col_tap[i + 1][j],
                        spec.segment_resistance);
      nl.add_resistor(col_tap[m - 1][j], sense_node[j],
                      spec.segment_resistance);
    }
  }

  for (int j = 0; j < n; ++j)
    nl.add_resistor(sense_node[j], kGround, spec.sense_resistance);

  if (caps) {
    for (int i = 0; i < m; ++i)
      for (int j = 0; j < n; ++j) {
        nl.add_capacitor(row_tap[i][j], kGround, spec.segment_capacitance);
        nl.add_capacitor(col_tap[i][j], kGround, spec.segment_capacitance);
      }
    for (int j = 0; j < n; ++j)
      nl.add_capacitor(sense_node[j], kGround, spec.segment_capacitance);
  }

  // Publish the wire chains so the linear solver can run its bipartite
  // Schur rung: row wires on the eliminated side, column wires (with
  // their sense node) on the kept side. With ideal wires the row taps
  // are pinned source nodes and every column tap shorts to the sense
  // node — no chain structure to exploit, so none is attached.
  if (!spec.ideal_wires) {
    WireStructure ws;
    ws.row_chains.resize(static_cast<std::size_t>(m));
    for (int i = 0; i < m; ++i) {
      ws.row_chains[static_cast<std::size_t>(i)]
          .assign(row_tap[static_cast<std::size_t>(i)].begin(),
                  row_tap[static_cast<std::size_t>(i)].end());
    }
    ws.col_chains.resize(static_cast<std::size_t>(n));
    for (int j = 0; j < n; ++j) {
      auto& chain = ws.col_chains[static_cast<std::size_t>(j)];
      chain.reserve(static_cast<std::size_t>(m) + 1);
      for (int i = 0; i < m; ++i)
        chain.push_back(col_tap[static_cast<std::size_t>(i)]
                               [static_cast<std::size_t>(j)]);
      chain.push_back(sense_node[static_cast<std::size_t>(j)]);
    }
    nl.set_wire_structure(std::move(ws));
  }

  if (out_column_nodes) *out_column_nodes = sense_node;
  return nl;
}

bool CrossbarSolveCache::matches(const CrossbarSpec& spec) const {
  if (!valid) return false;
  const auto& k = key;
  // Everything except cell_resistance / input_voltages values is
  // topology (or enters the device law), so any difference forces a
  // rebuild. The shapes of the value arrays are implied by rows/cols.
  return k.rows == spec.rows && k.cols == spec.cols &&
         util::exactly_equal(k.segment_resistance, spec.segment_resistance) &&
         util::exactly_equal(k.sense_resistance, spec.sense_resistance) &&
         k.linear_memristors == spec.linear_memristors &&
         k.ideal_wires == spec.ideal_wires &&
         util::exactly_equal(k.segment_capacitance,
                             spec.segment_capacitance) &&
         k.device.kind == spec.device.kind &&
         k.device.r_min == spec.device.r_min &&
         k.device.r_max == spec.device.r_max &&
         k.device.v_read == spec.device.v_read &&
         k.device.nonlinearity_vt == spec.device.nonlinearity_vt;
}

namespace {

// The fields matches() compares. The value arrays stay empty, so
// re-keying and batch-worker clones copy no rows x cols matrix.
CrossbarSpec topology_key(const CrossbarSpec& spec) {
  CrossbarSpec key;
  key.rows = spec.rows;
  key.cols = spec.cols;
  key.device = spec.device;
  key.segment_resistance = spec.segment_resistance;
  key.sense_resistance = spec.sense_resistance;
  key.linear_memristors = spec.linear_memristors;
  key.ideal_wires = spec.ideal_wires;
  key.segment_capacitance = spec.segment_capacitance;
  return key;
}

CrossbarSolution solve_built(const Netlist& nl,
                             const std::vector<NodeId>& column_nodes,
                             const DcOptions& options, MnaCache* mna) {
  CrossbarSolution sol;
  sol.column_output_nodes = column_nodes;
  sol.dc = solve_dc(nl, options, mna);
  sol.column_output_voltage.reserve(sol.column_output_nodes.size());
  for (NodeId node : sol.column_output_nodes)
    sol.column_output_voltage.push_back(sol.dc.voltage(node));
  sol.total_power = total_source_power(nl, sol.dc);
  return sol;
}

// Value-only reprogramming of a cached netlist, then the solve on its
// cache. build_crossbar_netlist adds memristors row-major (index
// i*cols + j) and sources in row order.
CrossbarSolution reprogram_and_solve(
    CrossbarSolveCache& cache, const std::vector<double>& input_voltages,
    const std::vector<std::vector<double>>& cell_resistance,
    const DcOptions& options) {
  const auto rows = static_cast<std::size_t>(cache.key.rows);
  const auto cols = static_cast<std::size_t>(cache.key.cols);
  for (std::size_t i = 0; i < rows; ++i) {
    cache.netlist.set_source_voltage(i, input_voltages[i]);
    for (std::size_t j = 0; j < cols; ++j)
      cache.netlist.set_memristor_state(i * cols + j, cell_resistance[i][j]);
  }
  return solve_built(cache.netlist, cache.column_nodes, options, &cache.mna);
}

}  // namespace

CrossbarSolution solve_crossbar(const CrossbarSpec& spec,
                                const DcOptions& options,
                                CrossbarSolveCache* cache) {
  if (!cache) {
    std::vector<NodeId> column_nodes;
    Netlist nl = build_crossbar_netlist(spec, &column_nodes);
    return solve_built(nl, column_nodes, options, nullptr);
  }
  if (cache->matches(spec)) {
    spec.validate();
    return reprogram_and_solve(*cache, spec.input_voltages,
                               spec.cell_resistance, options);
  }
  cache->netlist = build_crossbar_netlist(spec, &cache->column_nodes);
  cache->key = topology_key(spec);
  cache->mna = MnaCache{};  // topology changed: drop pattern + warm start
  cache->mna.reprogrammed_only = true;
  cache->valid = true;
  return solve_built(cache->netlist, cache->column_nodes, options,
                     &cache->mna);
}

std::vector<CrossbarBatchResult> solve_crossbar_batch(
    const CrossbarSpec& base, const std::vector<CrossbarBatchEntry>& entries,
    const DcOptions& options, int threads, bool warm_start_from_base) {
  std::vector<CrossbarBatchResult> results(entries.size());
  if (entries.empty()) return results;

  // Every entry's conductance matrix equals the base's when the cells
  // are linear and no entry reprograms them (inputs only enter the
  // right-hand side). Decided statically from the batch shape, never
  // from per-worker history, so results cannot depend on scheduling.
  const auto rows = static_cast<std::size_t>(base.rows);
  const auto cols = static_cast<std::size_t>(base.cols);
  bool shared_matrix = base.linear_memristors;
  for (const auto& e : entries) {
    if (!e.input_voltages.empty() && e.input_voltages.size() != rows)
      throw std::invalid_argument(
          "solve_crossbar_batch: input_voltages size mismatch");
    if (e.cell_resistance.empty()) continue;
    shared_matrix = false;
    if (e.cell_resistance.size() != rows)
      throw std::invalid_argument(
          "solve_crossbar_batch: cell_resistance rows mismatch");
    for (const auto& row : e.cell_resistance)
      if (row.size() != cols)
        throw std::invalid_argument(
            "solve_crossbar_batch: cell_resistance cols mismatch");
  }

  // One master cache, primed serially: the netlist is built, vetted and
  // assembled into its CSR pattern once, so every entry is a value-only
  // refill on a worker clone — the same floats a fresh build would give.
  CrossbarSolveCache master;
  master.netlist = build_crossbar_netlist(base, &master.column_nodes);
  master.key = topology_key(base);
  master.mna.reprogrammed_only = true;
  master.valid = true;
  obs::Span span("spice.solve_dc_batch");
  prime_cache(master.netlist, options, master.mna);
  // A refill of the primed pattern reproduces a cold solve's floats.
  if (warm_start_from_base)
    master.mna.warm_start_voltages =
        solve_dc(master.netlist, options, &master.mna).node_voltages;
  if (shared_matrix && master.mna.system.assembled()) {
    obs::Span factor_span("numeric.batch");
    master.mna.factor = std::make_shared<const numeric::SchurFactorization>(
        numeric::SchurFactorization::build(master.mna.system));
  }

  obs::Registry& reg = obs::Registry::global();
  if (reg.enabled()) {
    reg.add("spice.dc_batches");
    reg.add("spice.dc_batch_entries", static_cast<long>(entries.size()));
  }

  util::ThreadPool pool(threads);
  // Every mutable object the entry loop touches is either indexed by
  // `worker` (one cache clone per pool worker, never shared), by `index`
  // (one result slot per entry) or internally locked (the obs registry).
  // The last worker takes the master itself; the clones share the
  // factor read-only. CrossbarSolveCache is
  // deliberately lock-free (see crossbar_netlist.hpp) — this worker-slot
  // discipline, checked by mnsim-analyze's parallel-capture rule, is
  // what makes that safe.
  std::vector<CrossbarSolveCache> caches(pool.worker_count() - 1, master);
  caches.push_back(std::move(master));
  pool.for_each_index(
      entries.size(), [&](std::size_t index, std::size_t worker) {
        // An empty override writes the base value, so an entry never
        // sees the previous entry's programming.
        const CrossbarBatchEntry& e = entries[index];
        CrossbarSolution sol = reprogram_and_solve(
            caches[worker],
            e.input_voltages.empty() ? base.input_voltages : e.input_voltages,
            e.cell_resistance.empty() ? base.cell_resistance
                                      : e.cell_resistance,
            options);
        CrossbarBatchResult& out = results[index];
        out.column_output_voltage = std::move(sol.column_output_voltage);
        out.total_power = sol.total_power;
        out.converged = sol.dc.converged;
        out.diagnostics = sol.dc.diagnostics;
      });
  return results;
}

std::vector<double> ideal_column_outputs(const CrossbarSpec& spec) {
  spec.validate();
  // Wire-free linear network: column j is a star of conductances g_ij
  // from each input to the sense node, loaded by g_s (paper Eq. 1-2):
  //   v_out_j = sum_i g_ij v_i / (g_s + sum_i g_ij).
  std::vector<double> out(static_cast<std::size_t>(spec.cols), 0.0);
  const double gs = 1.0 / spec.sense_resistance;
  for (int j = 0; j < spec.cols; ++j) {
    double num = 0.0;
    double den = gs;
    for (int i = 0; i < spec.rows; ++i) {
      const double g = 1.0 / spec.cell_resistance[i][j];
      num += g * spec.input_voltages[i];
      den += g;
    }
    out[j] = num / den;
  }
  return out;
}

}  // namespace mnsim::spice
