// mnsim_cli — the standalone simulator front end.
//
// Usage:
//   mnsim_cli <network.ini> [config.ini] [--dse [error%]] [--pipeline]
//             [--cycle] [--dump-netlist <path>] [--nvsim <path>]
//   mnsim_cli check [--json <path>] [--werror] <file>...
//   mnsim_cli sweep [<network.ini>] [config.ini] [--shard i/N]
//             [--checkpoint <path>] [--resume] [--deadline <ms>]
//             [--retries <n>] [--error <pct>] [--json <path>]
//   mnsim_cli sweep --merge --checkpoint <path>... [<network.ini>]
//             [config.ini] [--error <pct>] [--json <path>]
//
//   network.ini   network description (see nn/parser.hpp for the dialect)
//   config.ini    accelerator configuration (paper Table-I keys)
//   --dse         additionally run the design-space exploration (optional
//                 error constraint in percent, default 25) before the
//                 single-design simulation
//   --pipeline    additionally print the inter-layer pipeline analysis
//   --cycle       additionally run the cycle-level dataflow engine
//                 against the [cycle] scratchpad/bandwidth model and
//                 print the stall decomposition (docs/PERFORMANCE.md);
//                 [cycle] Enabled in the config does the same
//   --floorplan   additionally print the physical floorplan estimate
//   --validate-mc additionally run the functional Monte-Carlo validation
//                 of the simulated design's accuracy envelope
//   --json <path> write the machine-readable report
//   --trace[=<path>]  enable tracing and write the Chrome/Perfetto
//                 timeline (default path from [trace] Output, else
//                 trace.json; see docs/OBSERVABILITY.md)
//   --profile     enable tracing and print the flat per-phase profile
//   --dump-netlist <path>  export a SPICE deck of the first bank's
//                 worst-case crossbar
//   --nvsim <path>  export the per-module performance models in
//                 NVSim-exchange format
//   --check-only  run the pre-flight analyzer on the inputs and exit
//
// The `sweep` subcommand runs the crash-safe sharded design-space sweep
// (docs/ROBUSTNESS.md): --checkpoint journals every completed point
// (fsync'd), --resume replays a journal after a crash, --shard i/N
// evaluates one stride partition of the space, --deadline bounds each
// point's wall clock, and --merge combines shard journals into the
// full-space result. Exit status: 0 clean, 1 diagnosed errors, 2 usage.
//
// The `check` subcommand runs the semantic pre-flight analyzer
// (docs/DIAGNOSTICS.md) over any mix of accelerator configurations,
// network descriptions and SPICE decks (auto-detected), printing
// GCC-style diagnostics; --json additionally writes the machine-readable
// findings. Exit status: 0 clean, 1 diagnosed errors, 2 usage errors.
//
// With no arguments, simulates a built-in demo MLP under the defaults.
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "arch/floorplan.hpp"
#include "arch/pipeline.hpp"
#include "check/check.hpp"
#include "circuit/neuron.hpp"
#include "dse/report.hpp"
#include "dse/shard.hpp"
#include "nn/functional_sim.hpp"
#include "nn/parser.hpp"
#include "nn/topologies.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/json_report.hpp"
#include "sim/mnsim.hpp"
#include "sim/nvsim_io.hpp"
#include "spice/crossbar_netlist.hpp"
#include "spice/export.hpp"
#include "tech/interconnect.hpp"
#include "util/atomic_file.hpp"
#include "util/table.hpp"
#include "util/units.hpp"

using namespace mnsim;
using namespace mnsim::units;

namespace {

// The optima table needs one feasible design per objective; without any
// the sweep still reports (and writes its --json) after one line.
void print_optima(const dse::ExplorationResult& result, double constraint) {
  if (result.feasible_count > 0)
    std::fputs(dse::format_optima_table(result, "Optimal designs").c_str(),
               stdout);
  else
    std::printf("no feasible design under error <= %g%%\n",
                100 * constraint);
}

// Returns false when the exploration surfaced error diagnostics (e.g.
// MN-DSE-006, every point failed) so main can exit nonzero.
bool run_dse(const nn::Network& net, const arch::AcceleratorConfig& base,
             double constraint) {
  const auto space = dse::DesignSpace::paper_default();
  std::printf("exploring %zu designs, error <= %.1f%%...\n",
              space.enumerate().size(), 100 * constraint);
  const auto result = dse::explore(net, base, space, constraint);
  std::printf("%ld feasible\n", result.feasible_count);
  print_optima(result, constraint);
  bool ok = true;
  for (const auto& d : result.diagnostics) {
    std::fputs((d.render() + "\n").c_str(), stderr);
    if (d.severity == check::Severity::kError) ok = false;
  }
  return ok;
}

// Functional Monte-Carlo validation of the simulated design: feed each
// bank's average analog error into the network-level reference simulator
// and report the quantized accuracy it predicts. Small counts on purpose
// — this is a spot check, not the full Table-2 sweep.
void run_validate_mc(const nn::Network& net,
                     const arch::AcceleratorConfig& cfg,
                     const arch::AcceleratorReport& report) {
  nn::MonteCarloConfig mc;
  mc.samples = 20;
  mc.weight_draws = 5;
  mc.signal_bits = cfg.output_bits;
  mc.threads = cfg.parallel_threads;
  std::vector<double> eps;
  eps.reserve(report.banks.size());
  for (const auto& bank : report.banks) eps.push_back(bank.epsilon_average);
  const auto mc_result = nn::run_monte_carlo_network(net, eps, mc);
  std::printf(
      "functional MC validation: relative accuracy %.4f "
      "(avg error rate %.4g, max %.4g; %d draws x %d samples, "
      "%d thread%s)\n",
      mc_result.relative_accuracy, mc_result.avg_error_rate,
      mc_result.max_error_rate, mc.weight_draws, mc.samples,
      mc_result.threads, mc_result.threads == 1 ? "" : "s");
}

void dump_netlist(const nn::Network& net,
                  const arch::AcceleratorConfig& cfg,
                  const std::string& path) {
  const auto device = cfg.device();
  const int size = cfg.crossbar_size;
  auto spec = spice::CrossbarSpec::uniform(
      size, size, device,
      tech::interconnect_tech(cfg.interconnect_node_nm)
          .segment_resistance.value(),
      cfg.sense_resistance, device.r_min.value());
  auto nl = spice::build_crossbar_netlist(spec, nullptr);
  try {
    util::atomic_write_file(
        path, spice::export_spice(nl, net.name + " worst-case crossbar"));
    std::printf("wrote SPICE deck to %s\n", path.c_str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "cannot write %s: %s\n", path.c_str(), e.what());
  }
}

void dump_nvsim(const arch::AcceleratorConfig& cfg,
                const std::string& path) {
  const auto cmos = cfg.cmos();
  std::vector<sim::NvsimModule> modules;
  circuit::NeuronModel sigmoid{circuit::NeuronKind::kSigmoid,
                               cfg.output_bits, cmos};
  circuit::NeuronModel relu{circuit::NeuronKind::kRelu, cfg.output_bits,
                            cmos};
  circuit::NeuronModel ifn{circuit::NeuronKind::kIntegrateFire,
                           cfg.output_bits, cmos};
  modules.push_back({"Sigmoid", sigmoid.ppa()});
  modules.push_back({"ReLU", relu.ppa()});
  modules.push_back({"IntegrateFire", ifn.ppa()});
  try {
    sim::save_nvsim_modules(path, modules);
    std::printf("wrote NVSim module models to %s\n", path.c_str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "cannot write %s: %s\n", path.c_str(), e.what());
  }
}

// `mnsim_cli sweep ...` — crash-safe sharded design-space sweep over the
// paper's default space (docs/ROBUSTNESS.md). Exit 0 clean, 1 diagnosed
// errors (including MN-DSE-006 all-points-failed), 2 usage.
int run_sweep_cmd(int argc, char** argv) {
  bool merge = false;
  bool resume_flag = false;
  bool have_shard = false, have_deadline = false, have_retries = false;
  dse::ShardSpec shard;
  double constraint = 0.25;
  // --deadline and --retries override [sweep] Point_Deadline_Ms and
  // Max_Attempts, so they parse through those keys' entries of the key
  // table: the flag and the config key share one type and range.
  arch::AcceleratorConfig flags;
  std::vector<std::string> checkpoints;
  std::string json_path;
  std::vector<std::string> input_files;
  const auto usage = [] {
    std::fprintf(stderr,
                 "usage: mnsim_cli sweep [<network.ini>] [config.ini] "
                 "[--shard i/N] [--checkpoint <path>] [--resume] "
                 "[--deadline <ms>] [--retries <n>] [--error <pct>] "
                 "[--json <path>]\n"
                 "       mnsim_cli sweep --merge --checkpoint <path>... "
                 "[<network.ini>] [config.ini] [--error <pct>] "
                 "[--json <path>]\n");
    return 2;
  };
  const auto bad_value = [&usage](const std::string& flag,
                                  const std::string& why) {
    std::fprintf(stderr, "mnsim_cli sweep: %s: %s\n", flag.c_str(),
                 why.c_str());
    return usage();
  };
  // True when all of `text` is one int.
  const auto whole_int = [](const std::string& text, int& out) {
    const char* const end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, out);
    return ec == std::errc() && ptr == end;
  };
  // Reads `value` into `flags` through the config key `name`; returns
  // the key's MN-CFG-003 message for a bad value, else "".
  const auto read_key = [&flags](const std::string& name,
                                 const char* value) -> std::string {
    util::Config config;
    config.set(name, value);
    try {
      for (const auto& key : arch::config_keys())
        if (key.name == name) key.read(key, config, flags);
    } catch (const util::ConfigError& e) {
      return e.what();
    }
    return "";
  };
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--merge") {
      merge = true;
    } else if (arg == "--resume") {
      resume_flag = true;
    } else if (arg == "--shard" && i + 1 < argc) {
      const std::string spec = argv[++i];
      const std::size_t slash = spec.find('/');
      if (slash == std::string::npos ||
          !whole_int(spec.substr(0, slash), shard.index) ||
          !whole_int(spec.substr(slash + 1), shard.count))
        return bad_value(arg, "'" + spec + "' is not i/N");
      have_shard = true;
    } else if (arg == "--checkpoint" && i + 1 < argc) {
      checkpoints.emplace_back(argv[++i]);
    } else if (arg == "--deadline" && i + 1 < argc) {
      const std::string why = read_key("sweep.Point_Deadline_Ms", argv[++i]);
      if (!why.empty()) return bad_value(arg, why);
      have_deadline = true;
    } else if (arg == "--retries" && i + 1 < argc) {
      const std::string why = read_key("sweep.Max_Attempts", argv[++i]);
      if (!why.empty()) return bad_value(arg, why);
      have_retries = true;
    } else if (arg == "--error" && i + 1 < argc) {
      const char* text = argv[++i];
      char* end = nullptr;
      const double pct = std::strtod(text, &end);
      if (end == text || *end != '\0')
        return bad_value(arg, std::string("'") + text + "' is not a number");
      constraint = pct / 100.0;
    } else if (arg == "--json" && i + 1 < argc) {
      json_path = argv[++i];
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "mnsim_cli sweep: unknown option %s\n",
                   arg.c_str());
      return usage();
    } else if (input_files.size() < 2) {
      input_files.push_back(arg);
    } else {
      std::fprintf(stderr, "unexpected argument: %s\n", arg.c_str());
      return usage();
    }
  }
  if (merge && checkpoints.empty()) return usage();
  if (!merge && checkpoints.size() > 1) return usage();

  try {
    nn::Network net;
    arch::AcceleratorConfig cfg;
    if (input_files.empty()) {
      std::printf("no network file given; using the built-in demo MLP\n");
      net = nn::make_mlp({128, 128, 128});
      net.name = "demo-mlp";
    } else {
      net = nn::parse_network_file(input_files[0]);
    }
    if (input_files.size() >= 2) cfg = sim::load_config(input_files[1]);

    const auto space = dse::DesignSpace::paper_default();
    dse::SweepOptions options = dse::SweepOptions::from_config(cfg);
    options.constraints.max_error = constraint;
    if (have_shard) options.shard = shard;
    if (!merge && !checkpoints.empty()) options.checkpoint_path = checkpoints[0];
    if (resume_flag) options.resume = true;
    if (have_deadline) options.point_deadline_ms = flags.sweep_deadline_ms;
    if (have_retries) options.max_attempts = flags.sweep_max_attempts;

    std::printf("%s %zu designs (shard %d/%d), error <= %.1f%%...\n",
                merge ? "merging" : "sweeping",
                space.enumerate().size(), options.shard.index,
                options.shard.count, 100 * constraint);
    const dse::SweepResult sweep =
        merge ? dse::merge_checkpoints(checkpoints, net, cfg, space,
                                       options.constraints)
              : dse::run_sweep(net, cfg, space, options);

    std::printf(
        "%zu point%s: %ld feasible, %ld resumed, %ld evaluated, "
        "%ld quarantined (%ld check, %ld numeric, %ld timeout), "
        "%ld retr%s\n",
        sweep.records.size(), sweep.records.size() == 1 ? "" : "s",
        sweep.result.feasible_count, sweep.resumed_count,
        sweep.evaluated_count, sweep.result.failed_count, sweep.failed_check,
        sweep.failed_numeric, sweep.failed_timeout, sweep.retried_count,
        sweep.retried_count == 1 ? "y" : "ies");
    print_optima(sweep.result, constraint);
    for (const auto& d : sweep.result.diagnostics)
      std::fputs((d.render() + "\n").c_str(), stderr);
    if (!json_path.empty()) {
      util::atomic_write_file(json_path, dse::sweep_report_json(sweep, net));
      std::printf("wrote sweep report to %s\n", json_path.c_str());
    }
    return sweep.ok() ? 0 : 1;
  } catch (const check::CheckError& e) {
    std::fputs(e.diagnostics().render_text().c_str(), stderr);
    return 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "mnsim_cli sweep: %s\n", e.what());
    return 1;
  }
}

// `mnsim_cli check [--json <path>] [--werror] <file>...` — analyze
// inputs without simulating. Exit 0 clean, 1 errors, 2 usage.
int run_check(int argc, char** argv) {
  check::CheckOptions options;
  std::string json_path;
  std::vector<std::string> files;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json" && i + 1 < argc) {
      json_path = argv[++i];
    } else if (arg == "--werror") {
      options.warnings_as_errors = true;
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "mnsim_cli check: unknown option %s\n",
                   arg.c_str());
      return 2;
    } else {
      files.push_back(arg);
    }
  }
  if (files.empty()) {
    std::fprintf(stderr,
                 "usage: mnsim_cli check [--json <path>] [--werror] "
                 "<file>...\n");
    return 2;
  }

  check::DiagnosticList all;
  for (const auto& file : files)
    all.merge(check::check_file(file, options));

  if (!all.empty()) std::fputs(all.render_text().c_str(), stdout);
  if (!json_path.empty()) {
    try {
      util::atomic_write_file(json_path, all.render_json());
    } catch (const std::exception& e) {
      std::fprintf(stderr, "cannot write %s: %s\n", json_path.c_str(),
                   e.what());
      return 2;
    }
  }
  if (all.empty())
    std::printf("%zu file%s checked, no problems found.\n", files.size(),
                files.size() == 1 ? "" : "s");
  return all.has_errors() ? 1 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1 && std::strcmp(argv[1], "check") == 0)
    return run_check(argc, argv);
  if (argc > 1 && std::strcmp(argv[1], "sweep") == 0)
    return run_sweep_cmd(argc, argv);
  try {
    nn::Network net;
    arch::AcceleratorConfig cfg;
    bool want_dse = false;
    bool want_cycle = false;
    bool want_pipeline = false;
    bool want_floorplan = false;
    bool want_validate_mc = false;
    bool want_trace = false;
    bool want_profile = false;
    bool check_only = false;
    double constraint = 0.25;
    std::string trace_path;
    std::string netlist_path;
    std::string nvsim_path;
    std::string json_path;
    std::vector<std::string> input_files;
    int positional = 0;

    // --check-only must be known before the positional files are parsed:
    // in that mode a malformed input is the analyzer's job to report
    // (with a coded diagnostic), not an exception's.
    for (int i = 1; i < argc; ++i)
      if (std::strcmp(argv[i], "--check-only") == 0) check_only = true;

    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg == "--dse") {
        want_dse = true;
        if (i + 1 < argc && std::atof(argv[i + 1]) > 0)
          constraint = std::atof(argv[++i]) / 100.0;
      } else if (arg == "--pipeline") {
        want_pipeline = true;
      } else if (arg == "--cycle") {
        want_cycle = true;
      } else if (arg == "--floorplan") {
        want_floorplan = true;
      } else if (arg == "--validate-mc") {
        want_validate_mc = true;
      } else if (arg == "--trace") {
        want_trace = true;
      } else if (arg.rfind("--trace=", 0) == 0) {
        want_trace = true;
        trace_path = arg.substr(std::string("--trace=").size());
      } else if (arg == "--profile") {
        want_profile = true;
      } else if (arg == "--check-only") {
        check_only = true;
      } else if (arg == "--json" && i + 1 < argc) {
        json_path = argv[++i];
      } else if (arg == "--dump-netlist" && i + 1 < argc) {
        netlist_path = argv[++i];
      } else if (arg == "--nvsim" && i + 1 < argc) {
        nvsim_path = argv[++i];
      } else if (positional == 0) {
        input_files.push_back(arg);
        if (!check_only) net = nn::parse_network_file(arg);
        ++positional;
      } else if (positional == 1) {
        input_files.push_back(arg);
        if (!check_only) cfg = sim::load_config(arg);
        ++positional;
      } else {
        std::fprintf(stderr, "unexpected argument: %s\n", arg.c_str());
        return 2;
      }
    }
    if (positional == 0) {
      std::printf("no network file given; using the built-in demo MLP\n");
      net = nn::make_mlp({128, 128, 128});
      net.name = "demo-mlp";
    }

    if (check_only) {
      // Analyze the inputs (per-file passes plus the cross-file system
      // pass) and stop before simulating anything. Parsing happens here,
      // after the per-file analyzers have had their say, so a malformed
      // input surfaces as coded diagnostics rather than an exception.
      check::DiagnosticList all;
      for (const auto& file : input_files)
        all.merge(check::check_file(file));
      if (!all.has_errors()) {
        if (input_files.size() >= 1) net = nn::parse_network_file(input_files[0]);
        if (input_files.size() >= 2) cfg = sim::load_config(input_files[1]);
        all.merge(check::check_system(net, cfg));
      }
      if (!all.empty()) std::fputs(all.render_text().c_str(), stdout);
      if (all.empty()) std::printf("pre-flight clean.\n");
      return all.has_errors() ? 1 : 0;
    }

    // Observability: the CLI flags and the [trace] config section both
    // arm the tracer; --trace without a path falls back to the config's
    // Output, then to trace.json. Tracing only observes, so enabling it
    // cannot change any simulated number.
    const bool tracing = want_trace || want_profile || cfg.trace_enabled;
    if (tracing) {
      obs::Tracer::instance().enable();
      obs::set_thread_name("main");
    }
    obs::Registry::global().set_enabled(cfg.trace_metrics);
    if (trace_path.empty()) trace_path = cfg.trace_output;
    if (trace_path.empty() && (want_trace || cfg.trace_enabled))
      trace_path = "trace.json";

    // --cycle arms the engine exactly like [cycle] Enabled; DSE points
    // then pick up the stall/traffic metrics too.
    if (want_cycle) cfg.cycle_enabled = true;

    int exit_code = 0;
    if (want_dse && !run_dse(net, cfg, constraint)) exit_code = 1;

    const auto report = sim::simulate(net, cfg);
    std::fputs(sim::format_report(net, report).c_str(), stdout);

    std::optional<arch::CycleSimResult> cycles;
    if (cfg.cycle_enabled) {
      cycles = arch::simulate_cycles(report, cfg);
      std::fputs(sim::format_cycle_report(*cycles).c_str(), stdout);
    }

    if (want_validate_mc) run_validate_mc(net, cfg, report);

    if (want_pipeline) {
      const auto pipe = arch::analyze_pipeline(report);
      util::Table t("Pipeline analysis");
      t.set_header({"Metric", "Value"});
      t.add_row({"Cycle time (us)", util::Table::num(pipe.cycle_time / us, 4)});
      t.add_row({"Fill latency (us)",
                 util::Table::num(pipe.fill_latency / us, 4)});
      t.add_row({"Sample interval (us)",
                 util::Table::num(pipe.sample_interval / us, 4)});
      t.add_row({"Throughput (samples/s)",
                 util::Table::sig(pipe.throughput, 5)});
      t.add_row({"Bottleneck bank", std::to_string(pipe.bottleneck_bank)});
      t.print();
    }
    if (want_floorplan) {
      const auto plan = arch::estimate_floorplan(report);
      util::Table t("Floorplan estimate (fill coefficient 1.5)");
      t.set_header({"Metric", "Value"});
      t.add_row({"Bounding box (mm x mm)",
                 util::Table::num(plan.width / mm, 3) + " x " +
                     util::Table::num(plan.height / mm, 3)});
      t.add_row({"Bounding area (mm^2)", util::Table::num(plan.area / mm2, 3)});
      t.add_row({"Utilization", util::Table::num(plan.utilization, 3)});
      t.add_row({"Aspect ratio", util::Table::num(plan.aspect_ratio(), 3)});
      t.add_row({"Inter-bank wire (mm)",
                 util::Table::num(plan.interbank_wire_length / mm, 3)});
      t.print();
    }
    if (!json_path.empty()) {
      try {
        util::atomic_write_file(
            json_path,
            sim::report_to_json(net, report,
                                cycles ? &*cycles : nullptr));
        std::printf("wrote JSON report to %s\n", json_path.c_str());
      } catch (const std::exception& e) {
        std::fprintf(stderr, "cannot write %s: %s\n", json_path.c_str(),
                     e.what());
        exit_code = 1;
      }
    }
    if (!netlist_path.empty()) dump_netlist(net, cfg, netlist_path);
    if (!nvsim_path.empty()) dump_nvsim(cfg, nvsim_path);

    if (tracing) {
      if (!trace_path.empty()) {
        if (obs::Tracer::instance().write_chrome_trace(trace_path))
          std::printf("wrote Chrome trace (%zu events) to %s\n",
                      obs::Tracer::instance().event_count(),
                      trace_path.c_str());
        else
          std::fprintf(stderr, "cannot write %s\n", trace_path.c_str());
      }
      if (want_profile)
        std::fputs(obs::Tracer::instance().text_profile().c_str(), stdout);
    }
    return exit_code;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "mnsim_cli: %s\n", e.what());
    return 1;
  }
}
