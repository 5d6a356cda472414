#include "sim/json_report.hpp"

#include <cctype>
#include <sstream>
#include <stdexcept>

#include "obs/metrics.hpp"
#include "util/json.hpp"

namespace mnsim::sim {

using util::json::number;
using util::json::quote;

std::string report_to_json(const nn::Network& network,
                           const arch::AcceleratorReport& report) {
  return report_to_json(network, report, nullptr);
}

std::string report_to_json(const nn::Network& network,
                           const arch::AcceleratorReport& report,
                           const arch::CycleSimResult* cycles) {
  std::ostringstream os;
  os << "{\n";
  os << "  \"network\": {\"name\": " << quote(network.name)
     << ", \"depth\": " << network.depth()
     << ", \"weights\": " << network.total_weights() << "},\n";
  os << "  \"totals\": {"
     << "\"area\": " << number(report.area)
     << ", \"power\": " << number(report.power)
     << ", \"leakage_power\": " << number(report.leakage_power)
     << ", \"energy_per_sample\": " << number(report.energy_per_sample)
     << ", \"sample_latency\": " << number(report.sample_latency)
     << ", \"pipeline_cycle\": " << number(report.pipeline_cycle)
     << ", \"max_error_rate\": " << number(report.max_error_rate)
     << ", \"avg_error_rate\": " << number(report.avg_error_rate)
     << ", \"relative_accuracy\": " << number(report.relative_accuracy)
     << ", \"total_units\": " << report.total_units
     << ", \"total_crossbars\": " << report.total_crossbars << "},\n";

  // Robustness blocks: what the solver actually did and which fault
  // model (with its exact seed) produced this report. Booleans are
  // emitted as 0/1 so parse_json_numbers round-trips every field.
  const auto& d = report.solver;
  os << "  \"solver_diagnostics\": {"
     << "\"newton_iterations\": " << d.newton_iterations
     << ", \"newton_residual\": " << number(d.newton_residual)
     << ", \"cg_iterations\": " << d.cg_iterations
     << ", \"cg_retries\": " << d.cg_retries
     << ", \"lu_fallbacks\": " << d.lu_fallbacks
     << ", \"damped_steps\": " << d.damped_steps
     << ", \"linear_residual\": " << number(d.linear_residual)
     << ", \"faults_injected\": " << d.faults_injected
     << ", \"cache_hits\": " << d.cache_hits
     << ", \"warm_starts\": " << d.warm_starts
     << ", \"schur_solves\": " << d.schur_solves
     << ", \"schur_iterations\": " << d.schur_iterations
     << ", \"schur_rejects\": " << d.schur_rejects
     << ", \"factor_reuses\": " << d.factor_reuses
     << ", \"condition_estimate\": " << number(d.condition_estimate)
     << ", \"threads\": " << d.threads
     << ", \"degraded\": " << (d.degraded() ? 1 : 0) << "},\n";
  const auto& f = report.fault_config;
  os << "  \"fault_model\": {"
     << "\"enabled\": " << (f.enabled() ? 1 : 0)
     << ", \"seed\": " << f.seed
     << ", \"stuck_at_zero_rate\": " << number(f.stuck_at_zero_rate)
     << ", \"stuck_at_one_rate\": " << number(f.stuck_at_one_rate)
     << ", \"broken_wordline_rate\": " << number(f.broken_wordline_rate)
     << ", \"broken_bitline_rate\": " << number(f.broken_bitline_rate)
     << ", \"retention_time\": " << number(f.retention_time)
     << ", \"circuit_check\": " << (f.circuit_check ? 1 : 0) << "},\n";

  // Pre-flight analyzer findings that rode along with the run (errors
  // would have thrown before a report existed). Same record layout as
  // `mnsim check --json`.
  os << "  \"diagnostics\": [";
  for (std::size_t i = 0; i < report.diagnostics.size(); ++i) {
    os << (i == 0 ? "\n    " : ",\n    ")
       << util::json::diagnostic(report.diagnostics[i]);
  }
  os << (report.diagnostics.empty() ? "" : "\n  ") << "],\n";

  auto item = [&](const char* name, const arch::BreakdownItem& it,
                  bool last = false) {
    os << "    " << quote(name) << ": {\"area\": " << number(it.area)
       << ", \"energy\": " << number(it.energy) << "}" << (last ? "\n" : ",\n");
  };
  os << "  \"breakdown\": {\n";
  item("crossbars", report.breakdown.crossbars);
  item("input_dacs", report.breakdown.input_dacs);
  item("read_circuits", report.breakdown.read_circuits);
  item("decoders", report.breakdown.decoders);
  item("digital", report.breakdown.digital);
  item("adder_trees", report.breakdown.adder_trees);
  item("neurons", report.breakdown.neurons);
  item("pooling", report.breakdown.pooling);
  item("buffers", report.breakdown.buffers);
  item("interfaces", report.breakdown.interfaces, true);
  os << "  },\n";

  os << "  \"banks\": [\n";
  for (std::size_t b = 0; b < report.banks.size(); ++b) {
    const auto& bank = report.banks[b];
    os << "    {\"units\": " << bank.mapping.unit_count
       << ", \"area\": " << number(bank.area)
       << ", \"energy_per_sample\": " << number(bank.energy_per_sample)
       << ", \"pass_latency\": " << number(bank.pass_latency)
       << ", \"iterations\": " << bank.iterations
       << ", \"epsilon_worst\": " << number(bank.epsilon_worst)
       << ", \"epsilon_average\": " << number(bank.epsilon_average) << "}"
       << (b + 1 < report.banks.size() ? "," : "") << "\n";
  }
  os << "  ]";

  // Cycle-level memory-hierarchy results ([cycle] Enabled). Enums are
  // emitted as their config spellings; booleans as 0/1 so
  // parse_json_numbers round-trips the numeric fields.
  if (cycles != nullptr) {
    const auto& c = *cycles;
    os << ",\n  \"cycle\": {\n"
       << "    \"dataflow\": " << quote(arch::dataflow_name(c.dataflow))
       << ", \"fill_policy\": " << quote(arch::fill_policy_name(c.fill_policy))
       << ", \"clock_hz\": " << number(c.clock_hz)
       << ", \"makespan_cycles\": " << c.makespan_cycles
       << ", \"makespan_seconds\": " << number(c.makespan_seconds)
       << ", \"total_tiles\": " << c.total_tiles
       << ", \"total_busy_cycles\": " << c.total_busy_cycles
       << ", \"total_stall_cycles\": " << c.total_stall_cycles
       << ", \"backing_traffic_bytes\": " << number(c.backing_traffic_bytes)
       << ", \"weight_image_bytes\": " << number(c.weight_image_bytes)
       << ", \"pe_scheduled_fraction\": " << number(c.pe_scheduled_fraction)
       << ", \"pe_active_fraction\": " << number(c.pe_active_fraction)
       << ", \"stall_fraction\": " << number(c.stall_fraction) << ",\n"
       << "    \"banks\": [\n";
    for (std::size_t b = 0; b < c.banks.size(); ++b) {
      const auto& bank = c.banks[b];
      os << "      {\"tiles\": " << bank.tiles
         << ", \"compute_cycles_per_tile\": " << bank.compute_cycles_per_tile
         << ", \"busy_cycles\": " << bank.busy_cycles
         << ", \"dependency_stall_cycles\": " << bank.dependency_stall_cycles
         << ", \"fill_stall_cycles\": " << bank.fill_stall_cycles
         << ", \"drain_stall_cycles\": " << bank.drain_stall_cycles
         << ", \"idle_cycles\": " << bank.idle_cycles
         << ", \"utilization\": " << number(bank.utilization)
         << ", \"ifmap_bytes\": " << number(bank.ifmap_bytes)
         << ", \"ofmap_bytes\": " << number(bank.ofmap_bytes)
         << ", \"filter_bytes\": " << number(bank.filter_bytes)
         << ", \"bus_busy_cycles\": " << bank.bus_busy_cycles
         << ", \"resident_ifmap\": " << (bank.resident_ifmap ? 1 : 0)
         << ", \"resident_ofmap\": " << (bank.resident_ofmap ? 1 : 0) << "}"
         << (b + 1 < c.banks.size() ? "," : "") << "\n";
    }
    os << "    ]\n  }";
  }

  // Process-wide observability counters ([trace] Metrics; the registry
  // aggregates across every solve of the run, a superset of the
  // per-report solver_diagnostics block above).
  const obs::Registry& reg = obs::Registry::global();
  if (reg.enabled() && !reg.empty())
    os << ",\n  \"metrics\": " << reg.to_json();
  os << "\n}\n";
  return os.str();
}

namespace {

class JsonScanner {
 public:
  explicit JsonScanner(const std::string& text) : text_(text) {}

  void parse(std::map<std::string, double>& out) {
    skip_ws();
    value("", out);
    skip_ws();
    if (pos_ != text_.size())
      throw std::runtime_error("json: trailing characters");
  }

 private:
  void value(const std::string& path, std::map<std::string, double>& out) {
    skip_ws();
    if (pos_ >= text_.size()) throw std::runtime_error("json: truncated");
    const char c = text_[pos_];
    if (c == '{') {
      object(path, out);
    } else if (c == '[') {
      array(path, out);
    } else if (c == '"') {
      (void)string();
    } else if (c == 't' || c == 'f' || c == 'n') {
      literal();
    } else {
      out[path] = number();
    }
  }

  void object(const std::string& path, std::map<std::string, double>& out) {
    expect('{');
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return;
    }
    while (true) {
      skip_ws();
      const std::string key = string();
      skip_ws();
      expect(':');
      value(path.empty() ? key : path + "." + key, out);
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return;
    }
  }

  void array(const std::string& path, std::map<std::string, double>& out) {
    expect('[');
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return;
    }
    int index = 0;
    while (true) {
      value(path + "." + std::to_string(index++), out);
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return;
    }
  }

  std::string string() {
    expect('"');
    std::string s;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      if (text_[pos_] == '\\' && pos_ + 1 < text_.size()) ++pos_;
      // RFC 8259: control characters appear in strings only escaped.
      if (static_cast<unsigned char>(text_[pos_]) < 0x20)
        throw std::runtime_error("json: raw control character in string");
      s += text_[pos_++];
    }
    expect('"');
    return s;
  }

  double number() {
    const char* begin = text_.c_str() + pos_;
    char* end = nullptr;
    const double v = std::strtod(begin, &end);
    if (end == begin) throw std::runtime_error("json: expected number");
    pos_ += static_cast<std::size_t>(end - begin);
    return v;
  }

  void literal() {
    for (const char* word : {"true", "false", "null"}) {
      const std::size_t len = std::string(word).size();
      if (text_.compare(pos_, len, word) == 0) {
        pos_ += len;
        return;
      }
    }
    throw std::runtime_error("json: bad literal");
  }

  char peek() const {
    if (pos_ >= text_.size()) throw std::runtime_error("json: truncated");
    return text_[pos_];
  }
  void expect(char c) {
    if (pos_ >= text_.size() || text_[pos_] != c)
      throw std::runtime_error(std::string("json: expected '") + c + "'");
    ++pos_;
  }
  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_])))
      ++pos_;
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

}  // namespace

std::map<std::string, double> parse_json_numbers(const std::string& json) {
  std::map<std::string, double> out;
  JsonScanner scanner(json);
  scanner.parse(out);
  return out;
}

}  // namespace mnsim::sim
