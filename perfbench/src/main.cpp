// perfbench: the repository benchmark (see perfbench/README.md).
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--root <checkout>] [--git <describe>] [--reference-dir <dir>]
//             [--record-reference]
//   perfbench --self-test
//
// Untraced runs (--trace 0) print the end-to-end metrics; traced runs
// print the per-layer ones. Human-readable lines and a full result record
// (with the run manifest) come first; the last line of standard output is
// {"correct", "attempted", "failed", "metrics"}.
#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "harness.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "stats.hpp"

#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif
#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_CXX_FLAGS
#define PERFBENCH_CXX_FLAGS ""
#endif

namespace perfbench {
namespace {

constexpr std::uint32_t kReferenceSeed = 1;
constexpr std::size_t kMinSetups = 5;  // set-up samples per run, at least
constexpr std::size_t kMinRounds = 5;  // rounds behind a best time, at least

// --- options ------------------------------------------------------------

struct Options {
  std::string workload;
  std::uint32_t seed = kReferenceSeed;
  double seconds = 10.0;
  bool trace = false;
  std::string root = ".";
  std::string git = "unknown";
  std::string reference_dir;  // default: <root>/perfbench/reference
  bool record_reference = false;
  bool self_test = false;
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <xbar_cold|"
               "xbar_sweep|dse_sweep|func_mc> --seed <n> --seconds <s> "
               "--trace <0|1> [--root <dir>] [--git <describe>] "
               "[--reference-dir <dir>] [--record-reference]\n"
               "       perfbench --self-test\n",
               why.c_str());
  std::exit(2);
}

Options parse_options(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage("missing value for " + arg);
      return argv[++i];
    };
    try {
      if (arg == "--workload") o.workload = value();
      else if (arg == "--seed") o.seed = static_cast<std::uint32_t>(std::stoul(value()));
      else if (arg == "--seconds") o.seconds = std::stod(value());
      else if (arg == "--trace") o.trace = std::stoi(value()) != 0;
      else if (arg == "--root") o.root = value();
      else if (arg == "--git") o.git = value();
      else if (arg == "--reference-dir") o.reference_dir = value();
      else if (arg == "--record-reference") o.record_reference = true;
      else if (arg == "--self-test") o.self_test = true;
      else usage("unknown argument " + arg);
    } catch (const std::logic_error&) {
      usage("bad value for " + arg);
    }
  }
  if (o.reference_dir.empty()) o.reference_dir = o.root + "/perfbench/reference";
  if (!o.self_test && o.workload.empty()) usage("--workload is required");
  if (!(o.seconds > 0)) usage("--seconds must be positive");
  return o;
}

using Factory = std::unique_ptr<Workload> (*)(const Env&, SetupTimes*);

Factory factory(const std::string& name) {
  if (name == "xbar_cold") return make_xbar_cold;
  if (name == "xbar_sweep") return make_xbar_sweep;
  if (name == "dse_sweep") return make_dse_sweep;
  if (name == "func_mc") return make_func_mc;
  usage("unknown workload " + name);
}

// --- JSON ---------------------------------------------------------------

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

// --- run manifest -------------------------------------------------------

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        auto model = line.substr(colon + 1);
        model.erase(0, model.find_first_not_of(' '));
        return model;
      }
    }
  return "unknown";
}

bool release_build() { return std::string(PERFBENCH_BUILD_TYPE) == "Release"; }

std::string manifest_json(const Options& o, std::size_t rotated_cpus) {
  std::ostringstream os;
  os << "{\"workload\": " << json_string(o.workload)
     << ", \"seed\": " << o.seed << ", \"seconds\": " << json_number(o.seconds)
     << ", \"trace\": " << (o.trace ? 1 : 0) << ", \"threads\": 1"
     << ", \"nproc\": " << std::thread::hardware_concurrency()
     << ", \"rotated_cpus\": " << rotated_cpus
     << ", \"cpu\": " << json_string(cpu_model())
     << ", \"compiler\": " << json_string(PERFBENCH_COMPILER)
     << ", \"build_type\": " << json_string(PERFBENCH_BUILD_TYPE)
     << ", \"flags\": " << json_string(PERFBENCH_CXX_FLAGS)
     << ", \"git\": " << json_string(o.git)
     << ", \"baseline_ok\": " << (release_build() ? "true" : "false") << "}";
  return os.str();
}

// The high-water mark of this program's own address space (VmHWM).
// getrusage's ru_maxrss survives execve, so under a launcher it can report
// the launcher's peak instead; it is only the fallback.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("VmHWM:", 0) == 0)
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

// --- reference outputs --------------------------------------------------

// One line per call of the first round on the reference seed:
// <index> <label> <digest> <key value>... (keys as exact hex floats).
std::string reference_line(std::size_t index, const std::string& label,
                           const Outputs& out) {
  std::string line = std::to_string(index) + " " + label + " ";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, out.digest());
  line += buf;
  for (double k : out.keys()) {
    std::snprintf(buf, sizeof buf, " %a", k);
    line += buf;
  }
  return line;
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

// True when `line` (from the reference file) records exactly `out`.
bool matches_reference(const std::string& line, std::size_t index,
                       const std::string& label, const Outputs& out) {
  std::istringstream in(line);
  std::size_t ref_index = 0;
  std::string ref_label, ref_digest;
  if (!(in >> ref_index >> ref_label >> ref_digest)) return false;
  char digest[20];
  std::snprintf(digest, sizeof digest, "%016" PRIx64, out.digest());
  if (ref_index != index || ref_label != label || ref_digest != digest)
    return false;
  std::vector<double> keys;
  std::string token;
  while (in >> token) keys.push_back(std::strtod(token.c_str(), nullptr));
  if (keys.size() != out.keys().size()) return false;
  for (std::size_t k = 0; k < keys.size(); ++k)
    if (!same_bits(keys[k], out.keys()[k])) return false;
  return true;
}

// --- CPU rotation -------------------------------------------------------

// Moves the (single-threaded) process to the next CPU it may use before
// every round, so each call's best time (best_of in stats.hpp) is taken
// over all of them: a CPU whose host core is shared with a busy neighbour
// cannot hold back a whole run. Does nothing if pinning is refused.
class CpuRotation {
 public:
  CpuRotation() {
    cpu_set_t allowed;
    CPU_ZERO(&allowed);
    if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) return;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu)
      if (CPU_ISSET(cpu, &allowed)) cpus_.push_back(cpu);
  }

  void next() {
    if (cpus_.size() < 2) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[next_++ % cpus_.size()], &one);
    if (sched_setaffinity(0, sizeof one, &one) != 0) cpus_.clear();
  }

  [[nodiscard]] std::size_t cpus() const { return cpus_.size(); }

 private:
  std::vector<int> cpus_;
  std::size_t next_ = 0;
};

// --- the closed loop ----------------------------------------------------

struct PhaseResult {
  long rounds = 0;
  long ops = 0;
  long failed = 0;
  std::vector<std::vector<double>> round_call_ms;  // latency of each call
  std::vector<double> round_seconds;  // summed call time of each round
  long round0_expected_failures = 0;
  std::map<std::string, long> round0_counters;  // obs::Registry deltas

  // Every round does the same work, so throughput is one round's ops
  // over its best time: the sum of each call's fastest repetition.
  [[nodiscard]] double ops_per_s() const {
    if (rounds == 0) return 0.0;
    double best_ms = 0.0;
    for (double ms : best_of(round_call_ms)) best_ms += ms;
    return static_cast<double>(ops / rounds) / (best_ms / 1e3);
  }

  [[nodiscard]] Percentile call_ms(double q) const {
    return best_percentile(round_call_ms, q);
  }
};

std::map<std::string, long> counter_delta(
    const std::map<std::string, long>& before,
    const std::map<std::string, long>& after) {
  std::map<std::string, long> delta = after;
  for (const auto& [name, value] : before) delta[name] -= value;
  return delta;
}

class Runner {
 public:
  Runner(Workload& workload, const Options& options)
      : w_(workload), o_(options), digests_(workload.calls()),
        reference_bad_(workload.calls(), false) {}

  // Replays whole rounds until `seconds` of wall time have passed,
  // calling `between_rounds` after each. The first round ever run fixes
  // every call's outputs; later rounds (and the traced phase) must
  // reproduce them bit for bit.
  PhaseResult run_phase(double seconds, Probe* probe,
                        const std::function<void()>& between_rounds) {
    PhaseResult phase;
    const auto& registry = mnsim::obs::Registry::global();
    const double start = now_seconds();
    do {
      cpus_.next();
      const bool first_round = phase.rounds == 0;
      std::map<std::string, long> counters_before;
      if (first_round) counters_before = registry.counters();
      double round_seconds = 0.0;
      std::vector<double> call_ms;
      for (std::size_t i = 0; i < w_.calls(); ++i) {
        CallResult res = w_.run(i, probe);
        if (!have_first_round_) {
          first_round_check(i, res);
        } else if (res.outputs.digest() != digests_[i]) {
          res.fail(res.ops, w_.label(i) + (probe ? ": traced outputs differ from untraced"
                                                 : ": outputs differ from the first round"));
        }
        if (reference_bad_[i])
          res.fail(res.ops, w_.label(i) + ": differs from the recorded reference");
        if (!res.error.empty()) note_error(res.error);
        phase.ops += res.ops;
        phase.failed += res.failed;
        round_seconds += res.seconds;
        call_ms.push_back(res.seconds * 1e3);
        if (first_round) phase.round0_expected_failures += res.expected_failures;
      }
      phase.round_seconds.push_back(round_seconds);
      phase.round_call_ms.push_back(std::move(call_ms));
      if (first_round)
        phase.round0_counters = counter_delta(counters_before, registry.counters());
      if (!have_first_round_) finish_first_round();
      ++phase.rounds;
      between_rounds();
    } while (now_seconds() - start < seconds);
    return phase;
  }

  [[nodiscard]] std::size_t cpus() const { return cpus_.cpus(); }
  [[nodiscard]] const std::vector<std::string>& errors() const { return errors_; }
  [[nodiscard]] bool structural_error() const { return structural_error_; }
  void error(const std::string& why) {
    note_error(why);
    structural_error_ = true;
  }

 private:
  void first_round_check(std::size_t i, const CallResult& res) {
    digests_[i] = res.outputs.digest();
    first_outputs_.push_back(res.outputs);
    if (o_.seed != kReferenceSeed || o_.record_reference) return;
    if (!reference_loaded_) load_reference();
    if (i >= reference_lines_.size() ||
        !matches_reference(reference_lines_[i], i, w_.label(i), res.outputs))
      reference_bad_[i] = true;
  }

  void load_reference() {
    reference_loaded_ = true;
    const std::string path = reference_path();
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line))
      if (!line.empty() && line[0] != '#') reference_lines_.push_back(line);
    if (reference_lines_.size() != w_.calls())
      error("reference file " + path + " is missing or has " +
            std::to_string(reference_lines_.size()) + " calls, expected " +
            std::to_string(w_.calls()));
  }

  void finish_first_round() {
    have_first_round_ = true;
    if (!o_.record_reference) return;
    const std::string path = reference_path();
    std::error_code ec;
    std::filesystem::create_directories(o_.reference_dir, ec);
    std::ofstream out(path);
    out << "# perfbench reference outputs: workload " << o_.workload << ", seed "
        << o_.seed << "\n# <call> <label> <output digest> <key values>\n";
    for (std::size_t i = 0; i < w_.calls(); ++i)
      out << reference_line(i, w_.label(i), first_outputs_[i]) << "\n";
    if (!out) error("cannot write " + path);
    std::fprintf(stderr, "perfbench: recorded %s\n", path.c_str());
  }

  [[nodiscard]] std::string reference_path() const {
    return o_.reference_dir + "/" + o_.workload + ".ref";
  }

  void note_error(const std::string& why) {
    if (errors_.size() < 20) errors_.push_back(why);
  }

  Workload& w_;
  const Options& o_;
  CpuRotation cpus_;
  std::vector<std::uint64_t> digests_;
  std::vector<Outputs> first_outputs_;
  std::vector<bool> reference_bad_;
  std::vector<std::string> reference_lines_;
  bool reference_loaded_ = false;
  bool have_first_round_ = false;
  std::vector<std::string> errors_;
  bool structural_error_ = false;
};

// --- per-layer metrics --------------------------------------------------

enum class Source {
  kProbe,     // benchmark-timed public calls: mean per call
  kSpanSelf,  // in-program obs::Tracer span: mean self time per call
  kCounter,   // obs::Registry counter over one untraced round
  kDerived,   // computed from the above
};

struct LayerMetric {
  const char* name;
  const char* unit;
  Source source;
  const char* from = nullptr;  // span or counter name
};

// The catalogue BENCHMARK.json's per_layer list mirrors, in order.
const std::vector<LayerMetric>& layer_metrics() {
  static const std::vector<LayerMetric> metrics = {
      {"sim.load_config_ms", "ms", Source::kProbe},
      {"nn.parse_network_ms", "ms", Source::kProbe},
      {"check.netlist_ms", "ms", Source::kProbe},
      {"check.invariants_ms", "ms", Source::kProbe},
      {"check.system_ms", "ms", Source::kProbe},
      {"spice.build_netlist_ms", "ms", Source::kProbe},
      {"spice.solve_dc_ms", "ms", Source::kProbe},
      {"spice.source_power_ms", "ms", Source::kProbe},
      {"spice.solve_batch_ms", "ms", Source::kProbe},
      {"spice.assemble_ms", "ms", Source::kSpanSelf, "spice.assemble"},
      {"spice.preflight_ms", "ms", Source::kSpanSelf, "spice.preflight"},
      {"spice.solve_dc_self_ms", "ms", Source::kSpanSelf, "spice.solve_dc"},
      {"spice.solves", "count", Source::kCounter, "spice.solves"},
      {"spice.newton_iterations", "count", Source::kCounter, "spice.newton_iterations"},
      {"spice.cache_hits", "count", Source::kCounter, "spice.cache_hits"},
      {"spice.warm_starts", "count", Source::kCounter, "spice.warm_starts"},
      {"spice.nonconverged_solves", "count", Source::kCounter, "spice.nonconverged_solves"},
      {"spice.cache_hit_ratio", "ratio", Source::kDerived},
      {"numeric.schur_ms", "ms", Source::kSpanSelf, "numeric.schur"},
      {"numeric.schur_build_ms", "ms", Source::kSpanSelf, "numeric.schur_build"},
      {"numeric.batch_ms", "ms", Source::kSpanSelf, "numeric.batch"},
      {"numeric.schur_solves", "count", Source::kCounter, "spice.schur_solves"},
      {"numeric.schur_rejects", "count", Source::kCounter, "spice.schur_rejects"},
      {"numeric.factor_reuses", "count", Source::kCounter, "spice.factor_reuses"},
      {"numeric.cg_iterations", "count", Source::kCounter, "spice.cg_iterations"},
      {"numeric.cg_retries", "count", Source::kCounter, "spice.cg_retries"},
      {"numeric.lu_fallbacks", "count", Source::kCounter, "spice.lu_fallbacks"},
      {"numeric.schur_accept_ratio", "ratio", Source::kDerived},
      {"numeric.factor_reuse_ratio", "ratio", Source::kDerived},
      {"accuracy.variation_mc_ms", "ms", Source::kProbe},
      {"accuracy.eq11_us", "us", Source::kProbe},
      {"arch.simulate_accelerator_ms", "ms", Source::kProbe},
      {"arch.cycle_sim_ms", "ms", Source::kProbe},
      {"arch.trace_sim_ms", "ms", Source::kProbe},
      {"arch.banks", "count", Source::kCounter, "arch.banks"},
      {"arch.cycle_tiles", "count", Source::kCounter, "cycle.tiles"},
      {"arch.cycle_stall_cycles", "count", Source::kCounter, "cycle.stall_cycles"},
      {"dse.explore_ms", "ms", Source::kProbe},
      {"dse.driver_ms", "ms", Source::kProbe},
      {"dse.design_points", "count", Source::kCounter, "dse.design_points"},
      {"dse.failed_points", "count", Source::kCounter, "dse.failed_points"},
      {"dse.expected_failures", "count", Source::kDerived},
      {"dse.feasible_ratio", "ratio", Source::kDerived},
      {"nn.mc_network_ms", "ms", Source::kProbe},
      {"nn.mc_mlp_ms", "ms", Source::kProbe},
      {"nn.mc_faulted_ms", "ms", Source::kProbe},
      {"nn.mc_draw_ms", "ms", Source::kSpanSelf, "nn.mc_draw"},
      {"nn.macs_per_s", "1/s", Source::kDerived},
      {"fault.faults_injected", "count", Source::kCounter, "fault.faults_injected"},
      {"obs.trace_overhead_pct", "%", Source::kDerived},
      {"obs.cold_solve_coverage_pct", "%", Source::kDerived},
  };
  return metrics;
}

double ratio(long num, long den) {
  return den > 0 ? static_cast<double>(num) / static_cast<double>(den) : 0.0;
}

std::map<std::string, double> per_layer_metrics(
    const Workload& w, const Probe& probe, const PhaseResult& untraced,
    const PhaseResult& traced,
    const std::vector<mnsim::obs::PhaseStats>& spans) {
  std::map<std::string, double> out;
  const auto counter = [&](const std::string& name) -> long {
    const auto it = untraced.round0_counters.find(name);
    return it == untraced.round0_counters.end() ? 0 : it->second;
  };
  for (const auto& m : layer_metrics()) {
    double v = 0.0;
    const std::string unit = m.unit;
    const double scale = unit == "us" ? 1e6 : 1e3;
    if (m.source == Source::kProbe) {
      const auto it = probe.timers().find(m.name);
      if (it != probe.timers().end() && it->second.calls > 0)
        v = scale * it->second.seconds / static_cast<double>(it->second.calls);
    } else if (m.source == Source::kSpanSelf) {
      for (const auto& s : spans)
        if (s.name == m.from && s.calls > 0)
          v = 1e-9 * scale * static_cast<double>(s.self_ns) /
              static_cast<double>(s.calls);
    } else if (m.source == Source::kCounter) {
      v = static_cast<double>(counter(m.from));
    }
    out[m.name] = v;
  }
  // Cache hits are counted per assembly (one per Newton iteration).
  out["spice.cache_hit_ratio"] =
      ratio(counter("spice.cache_hits"), counter("spice.newton_iterations"));
  out["numeric.schur_accept_ratio"] =
      ratio(counter("spice.schur_solves"),
            counter("spice.schur_solves") + counter("spice.schur_rejects"));
  out["dse.expected_failures"] =
      static_cast<double>(untraced.round0_expected_failures);
  out["dse.feasible_ratio"] =
      ratio(counter("dse.feasible_points"), counter("dse.design_points"));
  if (untraced.ops_per_s() > 0)
    out["obs.trace_overhead_pct"] =
        100.0 * (untraced.ops_per_s() - traced.ops_per_s()) /
        untraced.ops_per_s();
  w.derived_metrics(probe, out);
  return out;
}

// --- self-test of the statistics helper and the digest -----------------

int self_test() {
  int failures = 0;
  const auto expect = [&](bool ok, const char* what) {
    if (!ok) {
      std::fprintf(stderr, "self-test failed: %s\n", what);
      ++failures;
    }
  };
  const auto near = [](double a, double b) { return std::fabs(a - b) < 1e-12; };
  expect(near(median({3, 1, 2}), 2.0), "median of odd count");
  expect(near(median({4, 1, 3, 2}), 2.5), "median of even count");
  const auto q = quartiles({1, 2, 3, 4, 5});
  expect(near(q.q1, 2) && near(q.q2, 3) && near(q.q3, 4), "quartiles");
  std::vector<double> hundred;
  for (int i = 1; i <= 100; ++i) hundred.push_back(i);
  const auto p90 = best_percentile({hundred, hundred, hundred}, 0.9);
  expect(near(p90.value, 90.1) && p90.samples == 300 && p90.rounds == 3,
         "p90 with sample count");
  const auto slow = best_percentile({{1, 20}, {10, 2}, {10, 20}}, 0.5);
  expect(near(slow.value, 1.5), "each call's fastest round counts");
  Outputs a, b;
  a.add(1.0);
  b.add(1.0 + 1e-16 * 2);
  expect(a.digest() != b.digest(), "digest sees the last bit");
  expect(json_number(0.1) == "0.10000000000000001", "numbers keep all digits");
  if (failures == 0) std::printf("perfbench self-test ok\n");
  return failures == 0 ? 0 : 1;
}

// --- run ----------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

int run(const Options& o) {
  const Factory make = factory(o.workload);
  Env env;
  env.seed = o.seed;
  env.root = o.root;

  // Set-up time is a metric of its own. Besides the set-up that builds
  // the measured workload, a fresh throw-away set-up is timed after every
  // round of the untraced phase (and topped up to kMinSetups samples), so
  // the reported median spans the whole run.
  std::vector<double> setup_s;
  Probe probe;
  const auto set_up = [&] {
    SetupTimes times;
    double seconds = 0.0;
    auto w = timed(&seconds, [&] { return make(env, &times); });
    setup_s.push_back(seconds);
    probe.add_time("sim.load_config_ms", times.load_config_s);
    probe.add_time("nn.parse_network_ms", times.parse_network_s);
    return w;
  };
  const auto sample_set_up = [&] { (void)set_up(); };
  const std::unique_ptr<Workload> workload = set_up();

  Runner runner(*workload, o);
  std::vector<Metric> metrics;
  PhaseResult measured;
  if (!o.trace) {
    measured = runner.run_phase(o.seconds, nullptr, sample_set_up);
    while (setup_s.size() < kMinSetups) sample_set_up();
    const auto p50 = measured.call_ms(0.5);
    const auto p90 = measured.call_ms(0.9);
    metrics = {{"setup_s", median(setup_s), "s"},
               {"ops_per_s", measured.ops_per_s(), "1/s"},
               {"call_ms_p50", p50.value, "ms"},
               {"call_ms_p90", p90.value, "ms"},
               {"peak_rss_mb", peak_rss_mb(), "MB"},
               {"eq11_rmse", eq11_rmse(), "ratio"}};
    const auto rq = quartiles(measured.round_seconds);
    std::printf("%s: %zu calls in %ld rounds of %ld ops; round seconds "
                "q1/median/q3 = %.4f/%.4f/%.4f; %zu set-ups\n",
                o.workload.c_str(), p50.samples, measured.rounds,
                measured.ops / measured.rounds, rq.q1, rq.q2, rq.q3,
                setup_s.size());
    std::printf("call_ms_p50 = %.4f ms, call_ms_p90 = %.4f ms (over %zu calls, "
                "each the best of %zu rounds; n=%zu)\n",
                p50.value, p90.value, workload->calls(), p90.rounds,
                p90.samples);
    if (p90.rounds < kMinRounds)
      std::printf("warning: fewer than %zu rounds; raise --seconds\n",
                  kMinRounds);
  } else {
    // Untraced then traced halves: the traced half must reproduce the
    // untraced outputs, and their ratio is the tracing overhead.
    const PhaseResult untraced =
        runner.run_phase(o.seconds / 2, nullptr, sample_set_up);
    auto& tracer = mnsim::obs::Tracer::instance();
    tracer.reset();
    tracer.enable();
    const PhaseResult traced = runner.run_phase(o.seconds / 2, &probe, [] {});
    tracer.disable();
    const auto spans = tracer.phase_stats();

    // Span-drift guard: a rename inside the library must fail the run,
    // not silently zero a per-layer metric.
    for (const auto& name : workload->expected_spans()) {
      bool seen = false;
      for (const auto& s : spans) seen = seen || (s.name == name && s.calls > 0);
      if (!seen)
        runner.error("span-drift guard: in-program span '" + name +
                     "' was not recorded");
    }
    const auto layer = per_layer_metrics(*workload, probe, untraced, traced, spans);
    for (const auto& m : layer_metrics())
      metrics.push_back({m.name, layer.at(m.name), m.unit});
    measured = untraced;
    measured.ops += traced.ops;
    measured.failed += traced.failed;
    std::printf("%s traced: %ld untraced + %ld traced rounds\n",
                o.workload.c_str(), untraced.rounds, traced.rounds);
    std::fputs(tracer.text_profile().c_str(), stdout);
  }

  const double fail_frac =
      measured.ops > 0 ? static_cast<double>(measured.failed) / measured.ops : 1.0;
  std::printf("fail_frac = %.6g (%ld of %ld ops)\n", fail_frac, measured.failed,
              measured.ops);
  for (const auto& e : runner.errors()) std::printf("error: %s\n", e.c_str());
  if (!release_build())
    std::printf("warning: %s build; numbers are not a baseline\n",
                PERFBENCH_BUILD_TYPE);
  for (const auto& m : metrics)
    std::printf("%-32s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());

  const bool correct = measured.failed == 0 && measured.ops > 0 &&
                       !runner.structural_error() && release_build();
  std::ostringstream metrics_json;
  metrics_json << "{";
  for (std::size_t i = 0; i < metrics.size(); ++i)
    metrics_json << (i ? ", " : "") << json_string(metrics[i].name)
                 << ": {\"value\": " << json_number(metrics[i].value)
                 << ", \"unit\": " << json_string(metrics[i].unit) << "}";
  metrics_json << "}";
  const std::string verdict =
      std::string("\"correct\": ") + (correct ? "true" : "false") +
      ", \"attempted\": " + std::to_string(measured.ops) +
      ", \"failed\": " + std::to_string(measured.failed);
  std::printf("{\"record\": {\"manifest\": %s, \"fail_frac\": %s, %s, "
              "\"metrics\": %s}}\n",
              manifest_json(o, runner.cpus()).c_str(),
              json_number(fail_frac).c_str(),
              verdict.c_str(), metrics_json.str().c_str());
  std::printf("{%s, \"metrics\": %s}\n", verdict.c_str(),
              metrics_json.str().c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  // glibc adapts its mmap threshold to the history of frees, which makes
  // peak RSS depend on how many rounds a run happened to fit. Pin it at
  // the ceiling the adaptation converges to, so every run allocates the
  // same way from the start.
  mallopt(M_MMAP_THRESHOLD, 32 * 1024 * 1024);
  mallopt(M_TRIM_THRESHOLD, 64 * 1024 * 1024);
  const perfbench::Options options = perfbench::parse_options(argc, argv);
  if (options.self_test) return perfbench::self_test();
  try {
    return perfbench::run(options);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
