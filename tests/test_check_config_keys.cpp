// The accelerator key table (arch::config_keys()) is the one spelling of
// every configuration key. These tests hold its three consumers to it:
// AcceleratorConfig::from_config / sim::load_config and `mnsim check`
// must agree on every ranged key, integer values must be range-checked
// before they are narrowed, and docs/CONFIGURATION.md must document
// each key once with the struct's own default. The same page documents
// the network-description key table (nn::network_keys()), held to it by
// NetworkDocMatchesTable.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <gtest/gtest.h>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "arch/params.hpp"
#include "check/config_check.hpp"
#include "nn/parser.hpp"
#include "sim/mnsim.hpp"
#include "util/config.hpp"

namespace mnsim::check {
namespace {

using arch::AcceleratorConfig;
using arch::ConfigKey;

// INI text setting one section-qualified key.
std::string ini(const std::string& key, const std::string& value) {
  const auto dot = key.find('.');
  if (dot == std::string::npos) return key + " = " + value + "\n";
  return "[" + key.substr(0, dot) + "]\n" + key.substr(dot + 1) + " = " +
         value + "\n";
}

util::Config parsed(const std::string& text) {
  util::Config cfg = util::Config::parse(text);
  cfg.set_source("test.ini");
  return cfg;
}

// What from_config makes of `text`: the config, or the error message.
struct Loaded {
  std::optional<AcceleratorConfig> config;
  std::string error;
};

Loaded from_text(const std::string& text) {
  try {
    return {AcceleratorConfig::from_config(util::Config::parse(text)), {}};
  } catch (const std::exception& e) {
    return {std::nullopt, e.what()};
  }
}

Loaded from_file(const std::string& text) {
  const std::string path = "config_keys_tmp.ini";
  {
    std::ofstream f(path);
    f << text;
  }
  Loaded out;
  try {
    out.config = sim::load_config(path);
  } catch (const std::exception& e) {
    out.error = e.what();
  }
  std::remove(path.c_str());
  return out;
}

// The MN-CFG-003 diagnostic `mnsim check` reports at `key`, if any.
const Diagnostic* value_diagnostic(const DiagnosticList& diags,
                                   const std::string& key) {
  for (const auto& d : diags)
    if (d.code == "MN-CFG-003" && d.location == key) return &d;
  return nullptr;
}

// A value that fails to load must fail `mnsim check` at its key, with the
// message from_config throws.
void expect_rejected_alike(const std::string& key, const std::string& value) {
  SCOPED_TRACE(key + " = " + value);
  const std::string text = ini(key, value);
  const Loaded loaded = from_text(text);
  ASSERT_FALSE(loaded.config.has_value()) << "from_config accepted it";
  EXPECT_THROW((void)AcceleratorConfig::from_config(util::Config::parse(text)),
               util::ConfigError);
  const DiagnosticList diags = check_accelerator_config(parsed(text));
  const Diagnostic* d = value_diagnostic(diags, key);
  ASSERT_NE(d, nullptr) << diags.render_text();
  EXPECT_EQ(d->message, loaded.error);
  EXPECT_EQ(d->line, key.find('.') == std::string::npos ? 1 : 2);
}

std::string exact(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

// Integers wider than their field used to wrap silently on load.
TEST(ConfigKeys, IntegersAreRangeCheckedBeforeNarrowing) {
  expect_rejected_alike("Output_Bits", "4294967304");
  expect_rejected_alike("fault.Seed", "-1");
  expect_rejected_alike("fault.Seed", "4294967296");
  EXPECT_EQ(from_text(ini("fault.Seed", "4294967295")).config->fault.seed,
            4294967295u);
}

TEST(ConfigKeys, RangedKeysAgreeAcrossLoadAndCheck) {
  std::size_t ranged = 0;
  for (const ConfigKey& key : arch::config_keys()) {
    if (!key.range) continue;
    ++ranged;
    const auto [min, max] = *key.range;
    // One unit and one ulp past each bound: the ulp probes are fractional
    // for integer keys, which must fail alike too.
    const double inf = std::numeric_limits<double>::infinity();
    const std::vector<std::string> outside = {
        exact(min - 1), exact(max + 1), exact(std::nextafter(min, -inf)),
        exact(std::nextafter(max, inf))};
    const std::vector<std::string> inside = {exact(min), exact(max)};
    for (const auto& value : outside) expect_rejected_alike(key.name, value);
    for (const auto& value : inside) {
      SCOPED_TRACE(key.name + " = " + value);
      const std::string text = ini(key.name, value);
      const Loaded parsed_text = from_text(text);
      const Loaded loaded_file = from_file(text);
      EXPECT_EQ(parsed_text.config, loaded_file.config);
      EXPECT_EQ(parsed_text.error, loaded_file.error);
      EXPECT_EQ(parsed_text.error.find("supported range"), std::string::npos);
      EXPECT_EQ(value_diagnostic(check_accelerator_config(parsed(text)),
                                 key.name),
                nullptr);
    }
  }
  EXPECT_GE(ranged, 29u);
}

// ---- docs drift -------------------------------------------------------------

std::vector<std::string> cells_of(const std::string& row) {
  std::vector<std::string> cells;
  std::size_t start = 1;
  for (std::size_t bar; (bar = row.find('|', start)) != std::string::npos;
       start = bar + 1)
    cells.push_back(util::trim(row.substr(start, bar - start)));
  return cells;
}

// "## `[fault]` section" -> "fault"; the Table I heading -> "" (bare
// keys); any other heading -> nullopt (its tables document no keys).
std::optional<std::string> section_of(const std::string& heading) {
  const auto open = heading.find("`[");
  const auto close = heading.find("]` section");
  if (open != std::string::npos && close != std::string::npos)
    return heading.substr(open + 2, close - open - 2);
  if (heading.rfind("## Accelerator configuration", 0) == 0)
    return std::string();
  return std::nullopt;
}

// Section-qualified key -> the Default cell of every CONFIGURATION.md
// row naming it.
std::map<std::string, std::vector<std::string>> documented_defaults() {
  std::ifstream doc(MNSIM_CONFIGURATION_MD);
  EXPECT_TRUE(doc.good()) << MNSIM_CONFIGURATION_MD;
  std::map<std::string, std::vector<std::string>> rows;
  std::optional<std::string> section;
  std::ptrdiff_t default_column = -1;
  bool fenced = false;
  for (std::string line; std::getline(doc, line);) {
    if (line.rfind("```", 0) == 0) fenced = !fenced;
    if (fenced) continue;
    if (line.rfind("## ", 0) == 0) section = section_of(line);
    if (line.empty() || line[0] != '|' || !section) {
      default_column = -1;
      continue;
    }
    const auto cells = cells_of(line);
    if (cells.at(0) == "Key") {
      const auto it = std::find(cells.begin(), cells.end(), "Default");
      default_column = it == cells.end() ? -1 : it - cells.begin();
      continue;
    }
    if (default_column < 0 || cells.at(0).rfind("---", 0) == 0) continue;
    const std::string bare = cells[0].substr(1, cells[0].size() - 2);
    rows[section->empty() ? bare : *section + "." + bare].push_back(
        cells.at(static_cast<std::size_t>(default_column)));
  }
  return rows;
}

TEST(ConfigKeys, ConfigurationDocMatchesTable) {
  const auto rows = documented_defaults();
  for (const ConfigKey& key : arch::config_keys()) {
    SCOPED_TRACE(key.name);
    const auto it = rows.find(key.name);
    const std::size_t documented = it == rows.end() ? 0 : it->second.size();
    if (documented != 1) {
      ADD_FAILURE() << documented << " CONFIGURATION.md rows, want 1";
      continue;
    }
    std::string value = it->second.front();
    if (value == "*(empty)*")
      value.clear();
    else if (value.size() >= 2 && value.front() == '`' && value.back() == '`')
      value = value.substr(1, value.size() - 2);
    util::Config cfg;
    cfg.set(key.name, value);
    AcceleratorConfig read;
    try {
      key.read(key, cfg, read);
    } catch (const util::ConfigError& e) {
      ADD_FAILURE() << "documented default '" << value << "': " << e.what();
      continue;
    }
    EXPECT_TRUE(read == AcceleratorConfig{})
        << "documented default '" << value << "' is not the struct default";
  }
  for (const auto& [name, defaults] : rows) {
    bool known = false;
    for (const ConfigKey& key : arch::config_keys()) known |= key.name == name;
    EXPECT_TRUE(known) << "CONFIGURATION.md documents unknown key " << name;
  }
}

// ---- network-description docs drift ----------------------------------------

std::string kinds_of(unsigned scope) {
  if (scope & nn::NetworkKey::kNetwork) return "network";
  std::string out;
  for (const auto& [bit, name] :
       {std::pair{nn::NetworkKey::kFc, "fc"}, {nn::NetworkKey::kConv, "conv"},
        {nn::NetworkKey::kPool, "pool"}})
    if (scope & bit) out += (out.empty() ? "" : ", ") + std::string(name);
  return out;
}

// (key, kinds) -> the cells of every row of the "## Network description"
// key table.
std::map<std::pair<std::string, std::string>,
         std::vector<std::vector<std::string>>>
documented_network_rows() {
  std::ifstream doc(MNSIM_CONFIGURATION_MD);
  EXPECT_TRUE(doc.good()) << MNSIM_CONFIGURATION_MD;
  std::map<std::pair<std::string, std::string>,
           std::vector<std::vector<std::string>>>
      rows;
  bool in_section = false;
  bool fenced = false;
  bool in_table = false;
  for (std::string line; std::getline(doc, line);) {
    if (line.rfind("```", 0) == 0) fenced = !fenced;
    if (fenced) continue;
    if (line.rfind("## ", 0) == 0)
      in_section = line.rfind("## Network description", 0) == 0;
    if (!in_section || line.empty() || line[0] != '|') {
      in_table = false;
      continue;
    }
    const auto cells = cells_of(line);
    if (cells.at(0) == "Key") {
      in_table = cells.size() == 5 && cells[1] == "Kinds";
      continue;
    }
    if (!in_table || cells.at(0).rfind("---", 0) == 0) continue;
    rows[{cells[0].substr(1, cells[0].size() - 2), cells.at(1)}].push_back(
        cells);
  }
  return rows;
}

// The smallest network text holding `key` (when `value` is set) in a
// section the key belongs to.
std::string network_text(const nn::NetworkKey& key,
                         const std::optional<std::string>& value) {
  const std::string line = value ? key.name + " = " + *value + "\n" : "";
  const std::string conv =
      "kind = conv\nin_channels = 1\nout_channels = 1\nkernel = 1\n"
      "in_width = 4\nin_height = 4\n";
  if (key.scope & nn::NetworkKey::kNetwork)
    return "[network]\n" + line + "[layer1]\nkind = fc\nin = 4\nout = 4\n";
  if (key.scope & nn::NetworkKey::kFc)
    return "[layer1]\nkind = fc\nin = 4\nout = 4\n" + line;
  if (key.scope & nn::NetworkKey::kConv) return "[layer1]\n" + conv + line;
  return "[layer1]\n" + conv + "[layer2]\nkind = pool\nwindow = 2\n" + line;
}

TEST(ConfigKeys, NetworkDocMatchesTable) {
  const auto rows = documented_network_rows();
  for (const auto& key : nn::network_keys()) {
    SCOPED_TRACE(key.name + " (" + kinds_of(key.scope) + ")");
    const auto it = rows.find({key.name, kinds_of(key.scope)});
    if (it == rows.end() || it->second.size() != 1) {
      ADD_FAILURE() << "want one CONFIGURATION.md row";
      continue;
    }
    const auto& cells = it->second.front();
    EXPECT_EQ(cells.at(3), key.range ? "`[" + std::to_string(key.range->min) +
                                           ", " +
                                           std::to_string(key.range->max) +
                                           "]`"
                                     : std::string("—"));
    std::string value = cells.at(4);
    if (key.required) {
      EXPECT_EQ(value, "*(required)*");
      continue;
    }
    if (value == "*(section name)*") {
      // network_text puts a pool-only key in [layer2], others in [layer1].
      value = key.scope == nn::NetworkKey::kPool ? "layer2" : "layer1";
    } else {
      ASSERT_GE(value.size(), 2u);
      value = value.substr(1, value.size() - 2);
    }
    // The documented default, written out, loads as the key left out.
    try {
      EXPECT_TRUE(
          nn::parse_network(util::Config::parse(network_text(key, value))) ==
          nn::parse_network(util::Config::parse(network_text(key, {}))))
          << "documented default '" << value << "' is not the default";
    } catch (const std::exception& e) {
      ADD_FAILURE() << "documented default '" << value << "': " << e.what();
    }
  }
  for (const auto& [row, cells] : rows) {
    bool known = false;
    for (const auto& key : nn::network_keys())
      known |= key.name == row.first && kinds_of(key.scope) == row.second;
    EXPECT_TRUE(known) << "CONFIGURATION.md documents unknown key "
                       << row.first << " (" << row.second << ")";
  }
}

}  // namespace
}  // namespace mnsim::check
