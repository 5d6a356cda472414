#include "dse/checkpoint.hpp"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "check/diagnostic.hpp"
#include "util/json.hpp"

namespace mnsim::dse {

// %.17g keeps the resume/merge bit-identity contract.
using util::json::number;

namespace {

// Failure messages travel in a space-separated record: escape '%', '-'
// as a first character, whitespace and non-printables as %XX; an empty
// message becomes "-".
std::string encode_field(const std::string& s) {
  if (s.empty()) return "-";
  std::string out;
  out.reserve(s.size());
  for (std::size_t i = 0; i < s.size(); ++i) {
    const unsigned char c = static_cast<unsigned char>(s[i]);
    if (c == '%' || c <= 0x20 || c >= 0x7f || (i == 0 && c == '-')) {
      char buf[4];
      std::snprintf(buf, sizeof(buf), "%%%02X", c);
      out += buf;
    } else {
      out += static_cast<char>(c);
    }
  }
  return out;
}

std::string decode_field(const std::string& s) {
  if (s == "-") return "";
  std::string out;
  out.reserve(s.size());
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (s[i] == '%' && i + 2 < s.size()) {
      const std::string hex = s.substr(i + 1, 2);
      char* end = nullptr;
      const long v = std::strtol(hex.c_str(), &end, 16);
      if (end && *end == '\0') {
        out += static_cast<char>(v);
        i += 2;
        continue;
      }
    }
    out += s[i];
  }
  return out;
}

std::string with_checksum(const std::string& payload) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), " C%08x", fnv1a32(payload));
  return payload + buf + "\n";
}

// Splits "payload C<8hex>" and verifies; false on any mismatch.
bool strip_checksum(const std::string& line, std::string& payload) {
  if (line.size() < 11) return false;  // payload is never empty
  const std::size_t mark = line.size() - 10;  // " C" + 8 hex digits
  if (line[mark] != ' ' || line[mark + 1] != 'C') return false;
  payload = line.substr(0, mark);
  char* end = nullptr;
  const unsigned long crc = std::strtoul(line.c_str() + mark + 2, &end, 16);
  if (end != line.c_str() + line.size()) return false;
  return static_cast<std::uint32_t>(crc) == fnv1a32(payload);
}

std::vector<std::string> split_fields(const std::string& payload) {
  std::vector<std::string> fields;
  std::istringstream in(payload);
  std::string f;
  while (in >> f) fields.push_back(f);
  return fields;
}

[[noreturn]] void reject(const std::string& code, const std::string& message,
                         const std::string& path, int line,
                         const std::string& hint) {
  check::DiagnosticList diags;
  auto& d = diags.emit(code, check::Severity::kError, message);
  d.file = path;
  d.line = line;
  d.hint = hint;
  throw check::CheckError(std::move(diags));
}

bool parse_u64(const std::string& s, std::uint64_t& out) {
  if (s.empty()) return false;
  char* end = nullptr;
  out = std::strtoull(s.c_str(), &end, 10);
  return end == s.c_str() + s.size();
}

bool parse_int(const std::string& s, int& out) {
  if (s.empty()) return false;
  char* end = nullptr;
  const long v = std::strtol(s.c_str(), &end, 10);
  if (end != s.c_str() + s.size()) return false;
  out = static_cast<int>(v);
  return true;
}

bool parse_double(const std::string& s, double& out) {
  if (s.empty()) return false;
  char* end = nullptr;
  out = std::strtod(s.c_str(), &end);
  return end == s.c_str() + s.size();
}

bool parse_category(const std::string& s, FailureCategory& out) {
  for (FailureCategory c :
       {FailureCategory::kNone, FailureCategory::kCheck,
        FailureCategory::kNumeric, FailureCategory::kTimeout}) {
    if (s == failure_category_name(c)) {
      out = c;
      return true;
    }
  }
  return false;
}

// Header payload: "mnsim-checkpoint v<V> fingerprint=<16hex>
// shard=<i>/<N> points=<total>".
bool parse_header_payload(const std::string& payload,
                          CheckpointHeader& header) {
  const std::vector<std::string> f = split_fields(payload);
  if (f.size() != 5 || f[0] != "mnsim-checkpoint") return false;
  if (f[1].size() < 2 || f[1][0] != 'v' ||
      !parse_int(f[1].substr(1), header.version))
    return false;
  if (f[2].rfind("fingerprint=", 0) != 0) return false;
  {
    const std::string hex = f[2].substr(12);
    if (hex.size() != 16) return false;
    char* end = nullptr;
    header.fingerprint = std::strtoull(hex.c_str(), &end, 16);
    if (end != hex.c_str() + hex.size()) return false;
  }
  if (f[3].rfind("shard=", 0) != 0) return false;
  {
    const std::string spec = f[3].substr(6);
    const std::size_t slash = spec.find('/');
    if (slash == std::string::npos) return false;
    if (!parse_int(spec.substr(0, slash), header.shard_index) ||
        !parse_int(spec.substr(slash + 1), header.shard_count))
      return false;
  }
  if (f[4].rfind("points=", 0) != 0) return false;
  return parse_u64(f[4].substr(7), header.total_points);
}

// Record payload layout after the "P" tag; see encode_checkpoint_record.
bool parse_record_payload(const std::string& payload,
                          CheckpointRecord& record) {
  const std::vector<std::string> f = split_fields(payload);
  // 21 fields since the cycle-level metrics (stall_fraction,
  // backing_traffic) joined the record; 19-field journals written before
  // that are still read, with the two metrics defaulting to 0.
  if ((f.size() != 19 && f.size() != 21) || f[0] != "P") return false;
  int evaluated = 0;
  int feasible = 0;
  auto& d = record.design;
  bool ok =
      parse_u64(f[1], record.index) &&
      parse_int(f[2], d.point.crossbar_size) &&
      parse_int(f[3], d.point.parallelism) &&
      parse_int(f[4], d.point.interconnect_node) &&
      parse_int(f[5], evaluated) && parse_int(f[6], feasible) &&
      parse_category(f[7], record.category) &&
      parse_int(f[8], record.attempts) && parse_double(f[9], d.metrics.area) &&
      parse_double(f[10], d.metrics.energy_per_sample) &&
      parse_double(f[11], d.metrics.latency) &&
      parse_double(f[12], d.metrics.sample_latency) &&
      parse_double(f[13], d.metrics.power) &&
      parse_double(f[14], d.metrics.max_error_rate) &&
      parse_double(f[15], d.metrics.avg_error_rate) &&
      parse_int(f[16], d.metrics.solver_fallbacks) &&
      parse_int(f[17], d.metrics.faults_injected);
  if (f.size() == 21)
    ok = ok && parse_double(f[18], d.metrics.stall_fraction) &&
         parse_double(f[19], d.metrics.backing_traffic);
  if (!ok) return false;
  d.evaluated = evaluated != 0;
  d.feasible = feasible != 0;
  d.failure = decode_field(f.back());
  return true;
}

}  // namespace

const char* failure_category_name(FailureCategory category) {
  switch (category) {
    case FailureCategory::kNone:
      return "none";
    case FailureCategory::kCheck:
      return "check";
    case FailureCategory::kNumeric:
      return "numeric";
    case FailureCategory::kTimeout:
      return "timeout";
  }
  throw std::logic_error("failure_category_name: unreachable");
}

std::uint64_t fnv1a64(const std::string& text) {
  std::uint64_t h = 14695981039346656037ull;
  for (char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

std::uint32_t fnv1a32(const std::string& text) {
  std::uint32_t h = 2166136261u;
  for (char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= 16777619u;
  }
  return h;
}

std::uint64_t sweep_fingerprint(const nn::Network& network,
                                const arch::AcceleratorConfig& base,
                                const DesignSpace& space,
                                const Constraints& constraints) {
  // Canonical order-sensitive text over every input that determines the
  // evaluated numbers. Execution policy (threads, checkpoints,
  // deadlines, tracing) is deliberately absent: a resumed sweep may run
  // under different parallelism and still merge bit-identically.
  std::ostringstream os;
  os << "net " << network.name << ' ' << static_cast<int>(network.type)
     << ' ' << network.input_bits << ' ' << network.weight_bits << '\n';
  for (const auto& layer : network.layers)
    os << "layer " << static_cast<int>(layer.kind) << ' '
       << layer.in_features << ' ' << layer.out_features << ' '
       << (layer.has_bias ? 1 : 0) << ' ' << layer.in_channels << ' '
       << layer.out_channels << ' ' << layer.kernel << ' ' << layer.in_width
       << ' ' << layer.in_height << ' ' << layer.stride << ' '
       << layer.padding << ' ' << layer.pool_size << '\n';
  os << "cfg " << base.interface_in << ' ' << base.interface_out << ' '
     << number(base.bus_clock) << ' ' << base.pooling_size << ' '
     << (base.pipelined ? 1 : 0) << ' ' << base.weight_polarity << ' '
     << (base.signed_two_crossbars ? 1 : 0) << ' ' << base.cmos_node_nm
     << ' ' << static_cast<int>(base.cell_type) << ' '
     << base.memristor_model << ' ' << number(base.resistance_min) << ' '
     << number(base.resistance_max) << ' ' << number(base.sense_resistance) << ' '
     << number(base.device_sigma) << ' ' << static_cast<int>(base.adc_kind)
     << ' ' << number(base.adc_clock) << ' ' << base.output_bits << '\n';
  os << "fault " << number(base.fault.stuck_at_zero_rate) << ' '
     << number(base.fault.stuck_at_one_rate) << ' '
     << number(base.fault.broken_wordline_rate) << ' '
     << number(base.fault.broken_bitline_rate) << ' '
     << number(base.fault.retention_time) << ' ' << base.fault.seed << ' '
     << (base.fault.circuit_check ? 1 : 0) << ' '
     << base.fault.circuit_check_size << '\n';
  os << "solver " << number(base.solver_cg_tolerance) << ' '
     << base.solver_cg_max_iterations << ' '
     << (base.solver_allow_fallback ? 1 : 0) << '\n';
  // The Schur rung moves circuit-check numbers at the bit level, and the
  // [check] keys decide a point's pass/fail. Their line appears only off
  // the defaults, so journals written under the defaults keep their
  // fingerprints.
  const auto judged = [](const arch::AcceleratorConfig& c) {
    return "judged " + std::to_string(c.solver_structured) + ' ' +
           std::to_string(c.check_preflight) + ' ' +
           std::to_string(c.check_warnings_as_errors) + ' ' +
           number(c.check_wire_drop_warning) + '\n';
  };
  if (judged(base) != judged({})) os << judged(base);
  // The cycle line only appears when the engine is armed: legacy journals
  // written before the [cycle] section keep their fingerprints.
  if (base.cycle_enabled)
    os << "cycle " << static_cast<int>(base.cycle_dataflow) << ' '
       << static_cast<int>(base.cycle_fill_policy) << ' '
       << number(base.cycle_ifmap_kb) << ' ' << number(base.cycle_filter_kb) << ' '
       << number(base.cycle_ofmap_kb) << ' ' << number(base.cycle_bandwidth_gbps)
       << ' ' << number(base.cycle_clock_ghz) << '\n';
  auto ints = [&os](const char* tag, const std::vector<int>& v) {
    os << tag;
    for (int x : v) os << ' ' << x;
    os << '\n';
  };
  ints("space.size", space.crossbar_sizes);
  ints("space.par", space.parallelism_degrees);
  ints("space.node", space.interconnect_nodes);
  os << "constraints " << number(constraints.max_error) << ' '
     << number(constraints.max_area) << ' ' << number(constraints.max_power)
     << ' ' << number(constraints.max_latency) << '\n';
  return fnv1a64(os.str());
}

std::string encode_checkpoint_header(const CheckpointHeader& header) {
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "mnsim-checkpoint v%d fingerprint=%016llx shard=%d/%d "
                "points=%llu",
                header.version,
                static_cast<unsigned long long>(header.fingerprint),
                header.shard_index, header.shard_count,
                static_cast<unsigned long long>(header.total_points));
  return with_checksum(buf);
}

std::string encode_checkpoint_record(const CheckpointRecord& record) {
  const auto& d = record.design;
  std::ostringstream os;
  os << "P " << record.index << ' ' << d.point.crossbar_size << ' '
     << d.point.parallelism << ' ' << d.point.interconnect_node << ' '
     << (d.evaluated ? 1 : 0) << ' ' << (d.feasible ? 1 : 0) << ' '
     << failure_category_name(record.category) << ' ' << record.attempts
     << ' ' << number(d.metrics.area) << ' ' << number(d.metrics.energy_per_sample)
     << ' ' << number(d.metrics.latency) << ' ' << number(d.metrics.sample_latency)
     << ' ' << number(d.metrics.power) << ' ' << number(d.metrics.max_error_rate)
     << ' ' << number(d.metrics.avg_error_rate) << ' '
     << d.metrics.solver_fallbacks << ' ' << d.metrics.faults_injected << ' '
     << number(d.metrics.stall_fraction) << ' '
     << number(d.metrics.backing_traffic) << ' ' << encode_field(d.failure);
  return with_checksum(os.str());
}

CheckpointFile parse_checkpoint(const std::string& text,
                                const std::string& path) {
  CheckpointFile out;
  if (text.empty())
    reject("MN-DSE-001", "checkpoint is empty", path, 0,
           "delete the file (or drop --resume) to start the shard over");

  // Slice into lines, remembering whether the final one was terminated —
  // an unterminated tail is the canonical crash artifact.
  std::vector<std::string> lines;
  std::size_t start = 0;
  while (start < text.size()) {
    const std::size_t nl = text.find('\n', start);
    if (nl == std::string::npos) {
      lines.push_back(text.substr(start));
      break;
    }
    lines.push_back(text.substr(start, nl - start));
    start = nl + 1;
  }
  const bool terminated = !text.empty() && text.back() == '\n';

  std::string payload;
  const bool header_line_complete = lines.size() > 1 || terminated;
  if (!header_line_complete || !strip_checksum(lines[0], payload) ||
      !parse_header_payload(payload, out.header))
    reject("MN-DSE-001",
           "not an mnsim checkpoint (malformed or unchecksummed header)",
           path, 1, "checkpoints start with a 'mnsim-checkpoint v1' line");
  if (out.header.version != 1)
    reject("MN-DSE-001",
           "unsupported checkpoint version v" +
               std::to_string(out.header.version),
           path, 1, "this build reads checkpoint format v1");
  out.good_bytes = lines[0].size() + 1;

  for (std::size_t i = 1; i < lines.size(); ++i) {
    const bool last = i + 1 == lines.size();
    const bool torn_candidate = last;  // later records prove earlier fsyncs
    CheckpointRecord record;
    std::string record_payload;
    const bool ok = strip_checksum(lines[i], record_payload) &&
                    parse_record_payload(record_payload, record) &&
                    (!last || terminated);
    if (!ok) {
      if (torn_candidate) {
        // Crash artifact: drop the tail; the point is re-evaluated.
        out.torn_tail = true;
        return out;
      }
      reject("MN-DSE-003",
             "corrupt checkpoint record (checksum or field mismatch)", path,
             static_cast<int>(i + 1),
             "a non-trailing record can only corrupt outside a crash; "
             "restart the shard without --resume");
    }
    out.records.push_back(std::move(record));
    out.good_bytes += lines[i].size() + 1;
  }
  return out;
}

CheckpointFile read_checkpoint(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  if (!f)
    reject("MN-DSE-001", "cannot open checkpoint", path, 0,
           "check the --checkpoint path (resume needs the journal the "
           "crashed run was writing)");
  std::ostringstream os;
  os << f.rdbuf();
  return parse_checkpoint(os.str(), path);
}

}  // namespace mnsim::dse
