// Golden tests for the configuration analyzer: one test per MN-CFG
// diagnostic code, the did-you-mean registry, the unread-key (silent
// typo) pass, and the load_config diagnostics bridge.
#include "check/config_check.hpp"

#include <cstdio>
#include <fstream>
#include <gtest/gtest.h>

#include "sim/mnsim.hpp"
#include "util/config.hpp"
#include "check_testing.hpp"

namespace mnsim::check {
namespace {

util::Config parsed(const std::string& text) {
  util::Config cfg = util::Config::parse(text);
  cfg.set_source("test.ini");
  return cfg;
}

// MN-CFG-001: unknown key in a known section, with a did-you-mean hint.
TEST(ConfigCheck, MisspelledKeyIsDiagnosed) {
  const DiagnosticList diags =
      check_accelerator_config(parsed("Crossbar_Sise = 128\n"));
  ASSERT_TRUE(has_code(diags, "MN-CFG-001"));
  const auto& d = diags.begin()[0];
  EXPECT_EQ(d.severity, Severity::kError);
  EXPECT_EQ(d.line, 1);
  EXPECT_NE(d.hint.find("Crossbar_Size"), std::string::npos);
}

// MN-CFG-002: an unknown section warns once, without per-key noise.
TEST(ConfigCheck, UnknownSectionWarnsOnce) {
  const DiagnosticList diags = check_accelerator_config(
      parsed("[exotic]\nAlpha = 1\nBeta = 2\n"));
  EXPECT_TRUE(has_code(diags, "MN-CFG-002"));
  EXPECT_FALSE(has_code(diags, "MN-CFG-001"));
  std::size_t section_reports = 0;
  for (const auto& d : diags)
    if (d.code == "MN-CFG-002") ++section_reports;
  EXPECT_EQ(section_reports, 1u);
}

// MN-CFG-003: structurally invalid values.
TEST(ConfigCheck, BadValuesAreDiagnosed) {
  EXPECT_TRUE(has_code(
      check_accelerator_config(parsed("Crossbar_Size = 100\n")), "MN-CFG-003"));
  EXPECT_TRUE(has_code(
      check_accelerator_config(parsed("Cell_Type = 2T2R\n")), "MN-CFG-003"));
  EXPECT_TRUE(has_code(
      check_accelerator_config(parsed("Memristor_Model = FLASH\n")),
      "MN-CFG-003"));
  EXPECT_TRUE(has_code(
      check_accelerator_config(parsed("Output_Bits = 99\n")), "MN-CFG-003"));
}

// MN-CFG-004: inter-key consistency over a built configuration.
TEST(ConfigCheck, ConsistencyCrossChecks) {
  arch::AcceleratorConfig cfg;
  cfg.fault.circuit_check = true;
  cfg.fault.circuit_check_size = 2 * cfg.crossbar_size;
  cfg.parallelism = 2 * cfg.crossbar_size;
  cfg.output_bits = 4;  // below the 7-bit RRAM cell
  const DiagnosticList diags = check_config_consistency(cfg);
  EXPECT_TRUE(has_code(diags, "MN-CFG-004"));
  EXPECT_TRUE(diags.has_errors());  // the sub-array overflow is an error
  std::size_t hits = 0;
  for (const auto& d : diags)
    if (d.code == "MN-CFG-004") ++hits;
  EXPECT_EQ(hits, 3u);
}

TEST(ConfigCheck, DefaultConfigurationIsConsistent) {
  EXPECT_TRUE(check_config_consistency(arch::AcceleratorConfig{}).empty());
}

// MN-CFG-005: unit plausibility through the Quantity layer.
TEST(ConfigCheck, ImplausibleUnitsWarn) {
  const DiagnosticList range = check_accelerator_config(
      parsed("Resistance_Range = 0.05, 0.5\n"));
  EXPECT_TRUE(has_code(range, "MN-CFG-005"));

  arch::AcceleratorConfig cfg;
  cfg.sense_resistance = cfg.resistance_min;  // load swamps the cell
  EXPECT_TRUE(has_code(check_config_consistency(cfg), "MN-CFG-005"));
}

// MN-CFG-006: parsed-but-never-read keys (the silent-typo class).
TEST(ConfigCheck, UnreadKeysAreDiagnosed) {
  util::Config cfg = parsed("Theads = 8\nCrossbar_Size = 128\n");
  (void)cfg.get_int("Crossbar_Size");
  DiagnosticList diags;
  check_unread_keys(cfg, diags);
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags.begin()[0].code, "MN-CFG-006");
  EXPECT_NE(diags.begin()[0].message.find("Theads"), std::string::npos);
  EXPECT_EQ(diags.begin()[0].severity, Severity::kWarning);
}

TEST(ConfigCheck, LoadConfigReportsUnreadKeys) {
  const std::string path = "check_tmp_unread.ini";
  {
    std::ofstream f(path);
    f << "Crossbar_Size = 64\nTheads = 8\n";
  }
  DiagnosticList diags;
  const arch::AcceleratorConfig cfg = sim::load_config(path, &diags);
  EXPECT_EQ(cfg.crossbar_size, 64);
  EXPECT_TRUE(has_code(diags, "MN-CFG-006"));
  std::remove(path.c_str());
}

TEST(ConfigCheck, ConfigTracksConsumption) {
  util::Config cfg = parsed("A = 1\nB = 2\n");
  EXPECT_EQ(cfg.unread_keys(), (std::vector<std::string>{"A", "B"}));
  (void)cfg.get_int("A");
  const auto unread = cfg.unread_keys();
  ASSERT_EQ(unread.size(), 1u);
  EXPECT_EQ(unread[0], "B");
  EXPECT_EQ(cfg.line_of("B"), 2);
}

TEST(ConfigCheck, NearestKeySuggestsPlausibleTyposOnly) {
  const std::vector<std::string> known = {"Threads", "Crossbar_Size"};
  EXPECT_EQ(nearest_key("Theads", known), "Threads");
  EXPECT_EQ(nearest_key("threads", known), "Threads");
  EXPECT_EQ(nearest_key("Bandwidth", known), "");
}

// The network-description dialect shares MN-CFG-001/002.
TEST(ConfigCheck, NetworkDescriptionRegistry) {
  const DiagnosticList typo = check_network_description(
      parsed("[network]\nname = x\n[layer1]\nkind = fc\nim = 4\nout = 2\n"));
  ASSERT_TRUE(has_code(typo, "MN-CFG-001"));
  bool hinted = false;
  for (const auto& d : typo)
    if (d.code == "MN-CFG-001" &&
        d.hint.find("'in'") != std::string::npos)
      hinted = true;
  EXPECT_TRUE(hinted);

  const DiagnosticList stray = check_network_description(
      parsed("name = x\n[network]\ntype = ann\n"));
  EXPECT_TRUE(has_code(stray, "MN-CFG-002"));
}

// The [trace] section (docs/OBSERVABILITY.md) is part of the key
// registry: valid keys are clean, typos get did-you-mean hints, and
// values are type-checked.
TEST(ConfigCheck, TraceSectionIsRegistered) {
  const DiagnosticList clean = check_accelerator_config(parsed(
      "[trace]\nEnabled = true\nOutput = trace.json\nMetrics = false\n"));
  EXPECT_TRUE(clean.empty()) << clean.render_text();

  const DiagnosticList typo =
      check_accelerator_config(parsed("[trace]\nEnbaled = true\n"));
  ASSERT_TRUE(has_code(typo, "MN-CFG-001"));
  EXPECT_FALSE(has_code(typo, "MN-CFG-002"));  // the section itself is known
  bool hinted = false;
  for (const auto& d : typo)
    if (d.hint.find("Enabled") != std::string::npos) hinted = true;
  EXPECT_TRUE(hinted);

  EXPECT_TRUE(has_code(
      check_accelerator_config(parsed("[trace]\nEnabled = maybe\n")), "MN-CFG-003"));
}

TEST(ConfigCheck, TraceKeysAreConsumedByParamsLoader) {
  // from_config must read every [trace] key so MN-CFG-006 (unread-key
  // pass) stays quiet on a fully-traced configuration.
  util::Config cfg = parsed(
      "[trace]\nEnabled = true\nOutput = trace.json\nMetrics = true\n");
  const arch::AcceleratorConfig built = arch::AcceleratorConfig::from_config(cfg);
  EXPECT_TRUE(built.trace_enabled);
  EXPECT_EQ(built.trace_output, "trace.json");
  EXPECT_TRUE(built.trace_metrics);
  EXPECT_TRUE(cfg.unread_keys().empty());
}

TEST(ConfigCheck, ReferenceStyleConfigIsClean) {
  const DiagnosticList diags = check_accelerator_config(parsed(
      "Crossbar_Size = 128\nCMOS_Tech = 90\nMemristor_Model = RRAM\n"
      "Resistance_Range = 500, 500e3\n"));
  EXPECT_TRUE(diags.empty()) << diags.render_text();
}

}  // namespace
}  // namespace mnsim::check
