// Circuit-level crossbar workloads.
//
// xbar_cold: every call is one cold spice::solve_crossbar — netlist
// build, preflight, pattern build and Schur factorisation each time.
// xbar_sweep: value-only re-solves of one topology per call, through
// the variation Monte-Carlo, the shared-matrix batch solver and a warm
// CrossbarSolveCache.
#include <algorithm>
#include <cmath>
#include <exception>

#include "accuracy/variation.hpp"
#include "accuracy/voltage_error.hpp"
#include "check/netlist_check.hpp"
#include "common.hpp"
#include "tech/interconnect.hpp"
#include "util/parallel.hpp"

namespace perfbench {

using namespace mnsim;

namespace {

// Crossbar sizes of Fig. 5 (worst case) and Table III (seeded states).
const std::vector<int> kFig5Sizes = {8, 16, 32, 48, 64, 96, 128};
const std::vector<int> kTable3Sizes = {16, 32, 64, 128, 256};

std::string node_label(const char* kind, int size, int node) {
  return std::string(kind) + "-" + std::to_string(size) + "x" +
         std::to_string(size) + "-" + std::to_string(node) + "nm";
}

accuracy::CrossbarErrorInputs error_inputs(const spice::CrossbarSpec& spec) {
  accuracy::CrossbarErrorInputs in;
  in.rows = spec.rows;
  in.cols = spec.cols;
  in.device = spec.device;
  in.segment_resistance = units::Ohms{spec.segment_resistance};
  in.sense_resistance = units::Ohms{spec.sense_resistance};
  return in;
}

// Signed worst-case relative error of the far column, circuit level.
double circuit_error(const spice::CrossbarSpec& spec,
                     const std::vector<double>& column_outputs) {
  const double ideal = spice::ideal_column_outputs(spec).back();
  return (ideal - column_outputs.back()) / ideal;
}

// The same error predicted by the behaviour-level model: the signed
// interconnect (Eq. 11) and nonlinearity terms of the worst case.
double model_error(const spice::CrossbarSpec& spec) {
  const auto est = accuracy::estimate_voltage_error(error_inputs(spec));
  return est.interconnect_term + est.nonlinear_term;
}

void record_solution(const spice::CrossbarSolution& sol, Outputs& out) {
  for (double v : sol.column_output_voltage) out.add(v);
  out.add(static_cast<long>(sol.dc.newton_iterations));
  out.key(sol.column_output_voltage.back());
  out.key(sol.total_power);
}

// --- xbar_cold --------------------------------------------------------

class XbarCold final : public Workload {
 public:
  explicit XbarCold(const Env& env, SetupTimes* times) {
    (void)load_common_inputs(env, times);
    for (int node : kInterconnectNodes)
      for (int size : kFig5Sizes)
        calls_.push_back({node_label("worst", size, node),
                          worst_case_spec(size, node), true});
    std::mt19937 rng(util::derive_stream_seed(env.seed, 1));
    const int node = kInterconnectNodes[std::uniform_int_distribution<
        std::size_t>(0, kInterconnectNodes.size() - 1)(rng)];
    for (int size : kTable3Sizes) {
      auto spec = worst_case_spec(size, node);
      randomize(spec, rng);
      calls_.push_back({node_label("random", size, node), std::move(spec),
                        false});
    }

    const auto smallest = std::min_element(
        calls_.begin(), calls_.end(), [](const Call& a, const Call& b) {
          return a.spec.rows < b.spec.rows;
        });
    (void)run(static_cast<std::size_t>(smallest - calls_.begin()), nullptr);
  }

  [[nodiscard]] std::size_t calls() const override { return calls_.size(); }
  [[nodiscard]] std::string label(std::size_t i) const override {
    return calls_[i].label;
  }

  CallResult run(std::size_t i, Probe* probe) override {
    const Call& call = calls_[i];
    CallResult res;
    res.ops = 1;
    try {
      const auto sol = timed(&res.seconds,
                             [&] { return spice::solve_crossbar(call.spec); });
      record_solution(sol, res.outputs);
      const std::string why =
          check_crossbar(call.spec, sol.column_output_voltage,
                         sol.total_power, sol.dc.converged);
      if (!why.empty()) res.fail(1, call.label + ": " + why);
      if (probe) attribute(call, res.seconds, *probe);
    } catch (const std::exception& e) {
      res.fail(1, call.label + ": threw: " + e.what());
    }
    return res;
  }

  [[nodiscard]] std::vector<std::string> expected_spans() const override {
    return {"spice.assemble", "spice.preflight", "spice.solve_dc",
            "numeric.schur", "numeric.schur_build"};
  }

  void derived_metrics(const Probe& probe,
                       std::map<std::string, double>& metrics) const override {
    const auto& t = probe.timers();
    const auto total = [&](const char* name) {
      const auto it = t.find(name);
      return it == t.end() ? 0.0 : it->second.seconds;
    };
    // solve_dc with the preflight off runs Netlist::validate() (the
    // invariant pass), which the preflighted cold call does not: take it
    // out so the parts add up to what the cold call executes.
    const double whole = total("spice.solve_crossbar_ms");
    if (whole > 0)
      metrics["obs.cold_solve_coverage_pct"] =
          100.0 *
          (total("spice.build_netlist_ms") + total("check.netlist_ms") +
           total("spice.solve_dc_ms") - total("check.invariants_ms") +
           total("spice.source_power_ms")) /
          whole;
  }

 private:
  struct Call {
    std::string label;
    spice::CrossbarSpec spec;
    bool worst_case = false;
  };

  // Re-runs the solve through the public functions solve_crossbar is
  // made of, timing each: build, structural check, DC solve with the
  // preflight off, and the source power; plus the invariant pass the
  // preflight-off solve adds.
  static void attribute(const Call& call, double main_seconds, Probe& probe) {
    probe.add_time("spice.solve_crossbar_ms", main_seconds);
    std::vector<spice::NodeId> columns;
    const spice::Netlist nl = probe.time("spice.build_netlist_ms", [&] {
      return spice::build_crossbar_netlist(call.spec, &columns);
    });
    (void)probe.time("check.netlist_ms",
                     [&] { return check::check_netlist(nl); });
    spice::DcOptions options;
    options.preflight = false;
    const spice::DcResult dc = probe.time(
        "spice.solve_dc_ms", [&] { return spice::solve_dc(nl, options); });
    (void)probe.time("spice.source_power_ms",
                     [&] { return spice::total_source_power(nl, dc); });
    (void)probe.time("check.invariants_ms",
                     [&] { return check::check_netlist_invariants(nl); });
    if (call.worst_case) {
      // The closed form takes microseconds: time a batch of calls.
      constexpr int kRepeats = 64;
      const auto in = error_inputs(call.spec);
      double seconds = 0.0;
      double sink = 0.0;
      timed(&seconds, [&] {
        for (int k = 0; k < kRepeats; ++k)
          sink += accuracy::estimate_voltage_error(in).worst;
      });
      if (std::isfinite(sink))
        probe.add_time("accuracy.eq11_us", seconds, kRepeats);
    }
  }

  std::vector<Call> calls_;
};

// --- xbar_sweep -------------------------------------------------------

class XbarSweep final : public Workload {
 public:
  explicit XbarSweep(const Env& env, SetupTimes* times) {
    (void)load_common_inputs(env, times);
    std::mt19937 rng(util::derive_stream_seed(env.seed, 2));
    const auto pick_node = [&] {
      return kInterconnectNodes[std::uniform_int_distribution<std::size_t>(
          0, kInterconnectNodes.size() - 1)(rng)];
    };

    // Eq. 16 variation Monte-Carlo, worst-case cells, 10 % variation.
    for (const auto& [size, trials] : {std::pair{32, 16}, std::pair{48, 8}}) {
      Call c;
      c.kind = Kind::kVariationMc;
      const int node = pick_node();
      c.label = node_label("variation", size, node);
      c.spec = worst_case_spec(size, node);
      c.mc_inputs = error_inputs(c.spec);
      c.mc_inputs.device.sigma = 0.1;
      c.mc_options.trials = trials;
      c.mc_options.seed = rng();
      c.mc_options.threads = 1;
      calls_.push_back(std::move(c));
    }

    // Shared-matrix batches: linear cells, seeded input vectors.
    for (int b = 0; b < 2; ++b) {
      Call c;
      c.kind = Kind::kBatch;
      const int node = pick_node();
      c.label = node_label("batch", 64, node);
      c.spec = worst_case_spec(64, node);
      randomize(c.spec, rng);
      c.spec.linear_memristors = true;
      c.entries.resize(8);
      for (auto& e : c.entries) e.input_voltages = random_inputs(c.spec, rng);
      calls_.push_back(std::move(c));
    }

    // Warm re-solves of one 128x128 topology through one cache.
    const int warm_node = pick_node();
    for (int w = 0; w < 6; ++w) {
      Call c;
      c.kind = Kind::kWarm;
      c.label = node_label("warm", 128, warm_node) + "-" + std::to_string(w);
      c.spec = worst_case_spec(128, warm_node);
      randomize(c.spec, rng);
      calls_.push_back(std::move(c));
    }

    // Warm-up: prime the cache on the topology (lazy set-up).
    (void)spice::solve_crossbar(worst_case_spec(128, warm_node), {}, &cache_);
  }

  [[nodiscard]] std::size_t calls() const override { return calls_.size(); }
  [[nodiscard]] std::string label(std::size_t i) const override {
    return calls_[i].label;
  }

  CallResult run(std::size_t i, Probe* probe) override {
    const Call& call = calls_[i];
    CallResult res;
    switch (call.kind) {
      case Kind::kVariationMc:
        res.ops = call.mc_options.trials;
        break;
      case Kind::kBatch:
        res.ops = static_cast<long>(call.entries.size());
        break;
      case Kind::kWarm:
        res.ops = 1;
        break;
    }
    try {
      switch (call.kind) {
        case Kind::kVariationMc:
          run_variation(call, res, probe);
          break;
        case Kind::kBatch:
          run_batch(call, res, probe);
          break;
        case Kind::kWarm:
          run_warm(call, res, probe);
          break;
      }
    } catch (const std::exception& e) {
      res.fail(res.ops, call.label + ": threw: " + e.what());
    }
    return res;
  }

  [[nodiscard]] std::vector<std::string> expected_spans() const override {
    return {"spice.assemble", "spice.preflight", "spice.solve_dc",
            "numeric.schur", "numeric.schur_build", "numeric.batch"};
  }

  void derived_metrics(const Probe& probe,
                       std::map<std::string, double>& metrics) const override {
    const long entries = probe.counter("batch.entries");
    if (entries > 0)
      metrics["numeric.factor_reuse_ratio"] =
          static_cast<double>(probe.counter("batch.factor_reuses")) /
          static_cast<double>(entries);
  }

 private:
  enum class Kind { kVariationMc, kBatch, kWarm };
  struct Call {
    Kind kind = Kind::kWarm;
    std::string label;
    spice::CrossbarSpec spec;  // batch base / warm programming
    accuracy::CrossbarErrorInputs mc_inputs;
    accuracy::VariationMcOptions mc_options;
    std::vector<spice::CrossbarBatchEntry> entries;
  };

  static void run_variation(const Call& call, CallResult& res, Probe* probe) {
    const auto mc = timed(&res.seconds, [&] {
      return accuracy::variation_monte_carlo(call.mc_inputs, call.mc_options);
    });
    if (probe) probe->add_time("accuracy.variation_mc_ms", res.seconds);
    for (double s : mc.samples) res.outputs.add(s);
    res.outputs.key(mc.mean_error);
    res.outputs.key(mc.max_error);
    res.outputs.add(mc.closed_form_bound);
    if (mc.seed != call.mc_options.seed)
      res.fail(res.ops, call.label + ": seed not echoed");
    if (mc.samples.size() != static_cast<std::size_t>(call.mc_options.trials))
      res.fail(res.ops, call.label + ": trial count differs");
    for (double s : mc.samples)
      if (!std::isfinite(s) || s < 0 || s > mc.max_error) {
        res.fail(1, call.label + ": trial error out of range");
      }
    if (!(mc.mean_error <= mc.max_error) ||
        !std::isfinite(mc.closed_form_bound) || !(mc.closed_form_bound > 0))
      res.fail(res.ops, call.label + ": summary statistics inconsistent");
  }

  static void run_batch(const Call& call, CallResult& res, Probe* probe) {
    const auto sols = timed(&res.seconds, [&] {
      return spice::solve_crossbar_batch(call.spec, call.entries);
    });
    if (probe) {
      probe->add_time("spice.solve_batch_ms", res.seconds);
      probe->count("batch.entries", static_cast<long>(sols.size()));
      for (const auto& s : sols)
        probe->count("batch.factor_reuses", s.diagnostics.factor_reuses);
    }
    if (sols.size() != call.entries.size()) {
      res.fail(res.ops, call.label + ": result count differs");
      return;
    }
    spice::CrossbarSpec entry_spec = call.spec;
    for (std::size_t k = 0; k < sols.size(); ++k) {
      for (double v : sols[k].column_output_voltage) res.outputs.add(v);
      res.outputs.add(sols[k].total_power);
      entry_spec.input_voltages = call.entries[k].input_voltages;
      const std::string why =
          check_crossbar(entry_spec, sols[k].column_output_voltage,
                         sols[k].total_power, sols[k].converged);
      if (!why.empty())
        res.fail(1, call.label + " entry " + std::to_string(k) + ": " + why);
    }
    res.outputs.key(sols.front().column_output_voltage.back());
    res.outputs.key(sols.back().total_power);
  }

  void run_warm(const Call& call, CallResult& res, Probe* probe) {
    const auto sol = timed(&res.seconds, [&] {
      return spice::solve_crossbar(call.spec, {}, &cache_);
    });
    record_solution(sol, res.outputs);
    const std::string why = check_crossbar(
        call.spec, sol.column_output_voltage, sol.total_power,
        sol.dc.converged);
    if (!why.empty()) res.fail(1, call.label + ": " + why);
    if (probe) {
      // The cache's netlist now carries this call's programming: time
      // the DC solve on the primed MnaCache and the invariant pass that
      // Netlist::validate() wraps.
      spice::DcOptions options;
      options.preflight = false;
      (void)probe->time("spice.solve_dc_ms", [&] {
        return spice::solve_dc(cache_.netlist, options, &cache_.mna);
      });
      (void)probe->time("check.invariants_ms", [&] {
        return check::check_netlist_invariants(cache_.netlist);
      });
    }
  }

  std::vector<Call> calls_;
  spice::CrossbarSolveCache cache_;
};

}  // namespace

std::unique_ptr<Workload> make_xbar_cold(const Env& env, SetupTimes* times) {
  return std::make_unique<XbarCold>(env, times);
}

std::unique_ptr<Workload> make_xbar_sweep(const Env& env, SetupTimes* times) {
  return std::make_unique<XbarSweep>(env, times);
}

double eq11_rmse() {
  double ss = 0.0;
  int n = 0;
  for (int node : kInterconnectNodes)
    for (int size : kFig5Sizes) {
      const auto spec = worst_case_spec(size, node);
      const auto sol = spice::solve_crossbar(spec);
      const double d =
          model_error(spec) - circuit_error(spec, sol.column_output_voltage);
      ss += d * d;
      ++n;
    }
  return std::sqrt(ss / n);
}

}  // namespace perfbench
