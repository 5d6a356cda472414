#include "check/check.hpp"

#include <fstream>
#include <sstream>

#include "check/config_check.hpp"
#include "check/netlist_check.hpp"
#include "check/network_check.hpp"
#include "spice/import.hpp"

namespace mnsim::check {

namespace {

void check_deck_text(const std::string& path, const std::string& text,
                     DiagnosticList& out) {
  spice::Netlist netlist;
  try {
    netlist = spice::import_spice(text);
  } catch (const ParseError& e) {
    Diagnostic d = e.diagnostic();
    if (d.file.empty()) d.file = path;
    out.add(std::move(d));
    return;
  } catch (const std::exception& e) {
    out.emit("MN-SPI-008", Severity::kError, e.what()).file = path;
    return;
  }
  DiagnosticList structural = check_netlist(netlist);
  structural.set_file(path);
  out.merge(std::move(structural));
}

}  // namespace

InputKind detect_input_kind(const std::string& path, const std::string& text) {
  if (path.ends_with(".sp") || path.ends_with(".cir") ||
      path.ends_with(".spice")) {
    return InputKind::kSpiceDeck;
  }
  if (text.find("[network]") != std::string::npos ||
      text.find("[layer") != std::string::npos) {
    return InputKind::kNetwork;
  }
  return InputKind::kAcceleratorConfig;
}

DiagnosticList check_file(const std::string& path,
                          const CheckOptions& options) {
  DiagnosticList out;
  std::ifstream f(path);
  if (!f) {
    out.emit("MN-CHK-001", Severity::kError, "cannot open input file").file =
        path;
    return out;
  }
  std::ostringstream os;
  os << f.rdbuf();
  const std::string text = os.str();

  InputKind kind = options.kind;
  if (kind == InputKind::kAutoDetect) kind = detect_input_kind(path, text);

  if (kind == InputKind::kSpiceDeck) {
    check_deck_text(path, text, out);
  } else {
    util::Config cfg;
    try {
      cfg = util::Config::parse(text);
      cfg.set_source(path);
    } catch (const std::exception& e) {
      out.emit("MN-CFG-003", Severity::kError, e.what()).file = path;
      if (options.warnings_as_errors) out.promote_warnings();
      return out;
    }
    // Both passes stamp the file from cfg's source.
    out.merge(kind == InputKind::kNetwork ? check_network_description(cfg)
                                          : check_accelerator_config(cfg));
  }
  if (options.warnings_as_errors) out.promote_warnings();
  return out;
}

DiagnosticList check_system(const nn::Network& network,
                            const arch::AcceleratorConfig& cfg) {
  DiagnosticList out;
  out.merge(check_network(network));
  // Mapping feasibility only makes sense over a structurally sound
  // network; a broken shape chain would cascade into mapper noise.
  if (!out.has_errors()) out.merge(check_mapping(network, cfg));
  out.merge(check_config_consistency(cfg));
  return out;
}

}  // namespace mnsim::check
