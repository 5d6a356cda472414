// dse_sweep: dse::explore over slices of the paper design spaces plus
// the VGG-16 case-study timing engines. Solves no circuit: the control
// workload for spice/numeric changes, and the one that measures the
// arch, cycle, trace and dse layers in both the cycle-engine regime
// (milliseconds per point) and the analytic one (microseconds).
#include <algorithm>
#include <cmath>
#include <deque>
#include <exception>
#include <fstream>
#include <sstream>

#include "arch/cycle_sim.hpp"
#include "arch/trace_sim.hpp"
#include "check/check.hpp"
#include "common.hpp"
#include "dse/explorer.hpp"
#include "nn/generator.hpp"
#include "nn/topologies.hpp"
#include "util/parallel.hpp"
#include "util/units.hpp"

namespace perfbench {

using namespace mnsim;

namespace {

constexpr int kRandomNetworks = 6;

// Cells of results/table6_vgg16_dse.csv keyed by (size, parallelism,
// node), each as printed there.
using Table6 = std::map<std::string, std::vector<std::string>>;

std::string point_key(const dse::DesignPoint& p) {
  return std::to_string(p.crossbar_size) + "," +
         std::to_string(p.parallelism) + "," +
         std::to_string(p.interconnect_node);
}

// Formats like util::CsvWriter, the writer of the results files.
std::string csv_cell(double v) {
  std::ostringstream os;
  os << v;
  return os.str();
}

Table6 load_table6(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read " + path);
  Table6 table;
  std::string line;
  std::getline(in, line);  // header
  while (std::getline(in, line)) {
    std::vector<std::string> cells;
    std::stringstream row(line);
    std::string cell;
    while (std::getline(row, cell, ',')) cells.push_back(cell);
    if (cells.size() != 9) throw std::runtime_error("malformed row in " + path);
    table[cells[0] + "," + cells[1] + "," + cells[2]] = std::move(cells);
  }
  return table;
}

bool finite_positive(double v) { return std::isfinite(v) && v > 0; }
bool finite_nonnegative(double v) { return std::isfinite(v) && v >= 0; }

class DseSweep final : public Workload {
 public:
  explicit DseSweep(const Env& env, SetupTimes* times) {
    (void)load_common_inputs(env, times);
    table6_ = load_table6(env.root + "/results/table6_vgg16_dse.csv");
    std::mt19937 rng(util::derive_stream_seed(env.seed, 3));

    // Table VI / Fig. 9b configuration: 45 nm CMOS, 8-bit outputs.
    arch::AcceleratorConfig cnn;
    cnn.cmos_node_nm = 45;
    cnn.output_bits = 8;
    arch::AcceleratorConfig cnn_cycle = cnn;
    cnn_cycle.cycle_enabled = true;

    const nn::Network& vgg = networks_.emplace_back(nn::make_vgg16());
    const nn::Network& caffenet = networks_.emplace_back(nn::make_caffenet());
    const nn::Network& large = networks_.emplace_back(nn::make_large_bank_layer());

    const auto slice = [](dse::DesignSpace space, int node) {
      space.interconnect_nodes = {node};
      return space;
    };
    for (int node : dse::DesignSpace::paper_cnn().interconnect_nodes) {
      const auto space = slice(dse::DesignSpace::paper_cnn(), node);
      add_explore("vgg16-cycle-" + std::to_string(node) + "nm", vgg,
                  cnn_cycle, space, 0.50);
      add_explore("vgg16-" + std::to_string(node) + "nm", vgg, cnn, space,
                  0.50)
          .table6 = true;
      add_explore("caffenet-" + std::to_string(node) + "nm", caffenet, cnn,
                  space, 0.50);
    }
    // Table IV: the 2048x1024 bank over the large-bank space.
    arch::AcceleratorConfig bank;
    bank.cmos_node_nm = 45;
    for (int node : dse::DesignSpace::paper_default().interconnect_nodes)
      add_explore("large-bank-" + std::to_string(node) + "nm", large, bank,
                  slice(dse::DesignSpace::paper_default(), node), 0.25);
    // Seed-generated networks, each over one seed-chosen node.
    const auto nodes = dse::DesignSpace::paper_default().interconnect_nodes;
    for (int k = 0; k < kRandomNetworks; ++k) {
      nn::GeneratorOptions gen;
      gen.seed = rng();
      gen.min_layers = 4;
      gen.max_layers = 4;
      gen.min_width = 16;
      gen.max_width = 1024;
      const nn::Network& net = networks_.emplace_back(nn::random_network(gen));
      const int node = nodes[std::uniform_int_distribution<std::size_t>(
          0, nodes.size() - 1)(rng)];
      add_explore(net.name + "-" + std::to_string(node) + "nm", net, cnn,
                  slice(dse::DesignSpace::paper_default(), node), 0.50);
    }
    // The VGG-16 case study: both pass-level timing engines on one report.
    cycle_config_ = cnn_cycle;
    report_ = arch::simulate_accelerator(vgg, cycle_config_);
    for (const auto& [kind, label] :
         {std::pair{Kind::kTrace, "vgg16-simulate-trace"},
          std::pair{Kind::kCycles, "vgg16-simulate-cycles"}}) {
      Call c;
      c.kind = kind;
      c.label = label;
      calls_.push_back(std::move(c));
    }

    // Warm-up: the cheapest call, a large-bank slice.
    for (std::size_t i = 0; i < calls_.size(); ++i)
      if (calls_[i].network == &large) {
        (void)run(i, nullptr);
        break;
      }
  }

  [[nodiscard]] std::size_t calls() const override { return calls_.size(); }
  [[nodiscard]] std::string label(std::size_t i) const override {
    return calls_[i].label;
  }

  CallResult run(std::size_t i, Probe* probe) override {
    const Call& call = calls_[i];
    CallResult res;
    res.ops = call.kind == Kind::kExplore ? call.points : 1;
    try {
      switch (call.kind) {
        case Kind::kExplore:
          run_explore(call, res, probe);
          break;
        case Kind::kTrace:
          run_trace(call, res, probe);
          break;
        case Kind::kCycles:
          run_cycles(call, res, probe);
          break;
      }
    } catch (const std::exception& e) {
      res.fail(res.ops, call.label + ": threw: " + e.what());
    }
    return res;
  }

  [[nodiscard]] std::vector<std::string> expected_spans() const override {
    return {"arch.cycle_sim"};
  }

 private:
  enum class Kind { kExplore, kTrace, kCycles };
  struct Call {
    Kind kind = Kind::kExplore;
    std::string label;
    const nn::Network* network = nullptr;
    arch::AcceleratorConfig base;
    dse::DesignSpace space;
    double max_error = 0.25;
    long points = 0;
    bool table6 = false;  // reproduces results/table6_vgg16_dse.csv
  };

  Call& add_explore(std::string label, const nn::Network& network,
                    const arch::AcceleratorConfig& base,
                    const dse::DesignSpace& space, double max_error) {
    Call c;
    c.label = std::move(label);
    c.network = &network;
    c.base = base;
    c.space = space;
    c.max_error = max_error;
    c.points = static_cast<long>(space.enumerate().size());
    return calls_.emplace_back(std::move(c));
  }

  // The cycle engine refuses a crossbar image larger than the filter
  // scratchpad with MN-CYC-003: with the engine on, the 1024x1024 points
  // of the paper spaces fail this way by design.
  static bool expected_failure(const Call& call,
                               const dse::EvaluatedDesign& d) {
    return call.base.cycle_enabled &&
           d.failure.find("[MN-CYC-003]") != std::string::npos &&
           d.failure.find("filter scratchpad") != std::string::npos;
  }

  void run_explore(const Call& call, CallResult& res, Probe* probe) const {
    const auto result = timed(&res.seconds, [&] {
      return dse::explore(*call.network, call.base, call.space,
                          call.max_error);
    });
    if (static_cast<long>(result.designs.size()) != call.points) {
      res.fail(res.ops, call.label + ": design count differs");
      return;
    }
    res.outputs.key(static_cast<double>(result.feasible_count));
    res.outputs.key(static_cast<double>(result.failed_count));
    for (const auto& d : result.designs) {
      const auto& m = d.metrics;
      for (double v : {m.area, m.energy_per_sample, m.latency,
                       m.sample_latency, m.power, m.max_error_rate,
                       m.avg_error_rate, m.stall_fraction, m.backing_traffic})
        res.outputs.add(v);
      res.outputs.add(static_cast<long>(d.feasible));
      res.outputs.add(static_cast<long>(d.evaluated));
      const std::string where = call.label + " " + point_key(d.point);
      if (!d.evaluated) {
        if (expected_failure(call, d))
          ++res.expected_failures;
        else
          res.fail(1, where + ": failed: " + d.failure);
        continue;
      }
      if (!finite_positive(m.area) || !finite_positive(m.energy_per_sample) ||
          !finite_positive(m.latency) || !finite_positive(m.sample_latency) ||
          !finite_positive(m.power) || !finite_nonnegative(m.max_error_rate) ||
          !finite_nonnegative(m.avg_error_rate) ||
          !finite_nonnegative(m.backing_traffic) ||
          !(m.stall_fraction >= 0 && m.stall_fraction <= 1)) {
        res.fail(1, where + ": metric out of range");
        continue;
      }
      if (call.table6 && !matches_table6(d)) {
        res.fail(1, where + ": differs from results/table6_vgg16_dse.csv");
      }
    }
    if (!result.designs.empty())
      res.outputs.key(result.designs.front().metrics.area);
    if (probe) attribute(call, result, res.seconds, *probe);
  }

  bool matches_table6(const dse::EvaluatedDesign& d) const {
    using namespace mnsim::units;
    const auto it = table6_.find(point_key(d.point));
    if (it == table6_.end()) return false;
    const auto& m = d.metrics;
    const std::vector<std::string> printed = {
        csv_cell(d.point.crossbar_size), csv_cell(d.point.parallelism),
        csv_cell(d.point.interconnect_node), csv_cell(d.feasible ? 1.0 : 0.0),
        csv_cell(m.area / mm2), csv_cell(m.energy_per_sample / mJ),
        csv_cell(m.latency / us), csv_cell(m.power),
        csv_cell(m.max_error_rate)};
    return printed == it->second;
  }

  // Times the public functions explore() drives, point by point: the
  // whole evaluate_design kernel, and inside it the system pre-flight,
  // the accelerator simulation and (engine on) the cycle simulation.
  static void attribute(const Call& call, const dse::ExplorationResult& result,
                        double explore_seconds, Probe& probe) {
    probe.add_time("dse.explore_ms", explore_seconds);
    dse::Constraints constraints;
    constraints.max_error = call.max_error;
    double evaluate_seconds = 0.0;
    for (const auto& d : result.designs) {
      arch::AcceleratorConfig cfg = call.base;
      cfg.crossbar_size = d.point.crossbar_size;
      cfg.parallelism = d.point.parallelism;
      cfg.interconnect_node_nm = d.point.interconnect_node;
      try {
        (void)timed(&evaluate_seconds, [&] {
          return dse::evaluate_design(*call.network, call.base, d.point,
                                      constraints);
        });
      } catch (const std::exception&) {
        // The failure explore() recorded for this point; already checked.
      }
      (void)probe.time("check.system_ms", [&] {
        return check::check_system(*call.network, cfg);
      });
      const auto report = probe.time("arch.simulate_accelerator_ms", [&] {
        return arch::simulate_accelerator(*call.network, cfg);
      });
      if (cfg.cycle_enabled) {
        try {
          (void)probe.time("arch.cycle_sim_ms", [&] {
            return arch::simulate_cycles(report, cfg);
          });
        } catch (const std::exception&) {
        }
      }
    }
    probe.add_time("dse.driver_ms", explore_seconds - evaluate_seconds);
  }

  void run_trace(const Call& call, CallResult& res, Probe* probe) const {
    const auto tr =
        timed(&res.seconds, [&] { return arch::simulate_trace(report_); });
    if (probe) probe->add_time("arch.trace_sim_ms", res.seconds);
    res.outputs.key(tr.makespan);
    res.outputs.key(tr.serial_makespan);
    res.outputs.add(tr.total_passes);
    for (double b : tr.bank_busy) res.outputs.add(b);
    bool ok = finite_positive(tr.makespan) &&
              tr.serial_makespan >= tr.makespan && tr.total_passes > 0;
    for (double u : tr.bank_utilization) ok = ok && u >= 0 && u <= 1 + 1e-9;
    if (!ok) res.fail(1, call.label + ": trace statistics out of range");
  }

  void run_cycles(const Call& call, CallResult& res, Probe* probe) const {
    const auto cy = timed(&res.seconds, [&] {
      return arch::simulate_cycles(report_, cycle_config_);
    });
    if (probe) probe->add_time("arch.cycle_sim_ms", res.seconds);
    res.outputs.key(static_cast<double>(cy.makespan_cycles));
    res.outputs.key(static_cast<double>(cy.total_stall_cycles));
    res.outputs.add(cy.total_tiles);
    res.outputs.add(cy.backing_traffic_bytes);
    res.outputs.add(cy.stall_fraction);
    // Every non-compute cycle of a bank's active window is exactly one
    // stall: span == busy + stalls.
    bool ok = cy.makespan_cycles > 0 && cy.total_tiles > 0;
    for (const auto& b : cy.banks) {
      res.outputs.add(b.busy_cycles);
      res.outputs.add(b.stall_cycles());
      if (b.tiles > 0 && b.span_cycles() != b.busy_cycles + b.stall_cycles())
        ok = false;
    }
    if (!ok) res.fail(1, call.label + ": cycle accounting broken");
  }

  std::deque<nn::Network> networks_;
  std::vector<Call> calls_;
  arch::AcceleratorConfig cycle_config_;
  arch::AcceleratorReport report_;
  Table6 table6_;
};

}  // namespace

std::unique_ptr<Workload> make_dse_sweep(const Env& env, SetupTimes* times) {
  return std::make_unique<DseSweep>(env, times);
}

}  // namespace perfbench
