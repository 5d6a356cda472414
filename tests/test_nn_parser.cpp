#include "nn/parser.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "check/check.hpp"
#include "nn/topologies.hpp"

namespace mnsim::nn {
namespace {

const char* kCnnText = R"(
[network]
name = tiny-cnn
type = CNN
input_bits = 8
weight_bits = 4

[layer1]
kind = conv
in_channels = 3
out_channels = 16
kernel = 3
in_width = 32
in_height = 32
padding = 1

[layer2]
kind = pool
window = 2

[layer3]
kind = fc
in = 4096
out = 10
)";

TEST(Parser, ParsesCnnDescription) {
  auto net = parse_network(util::Config::parse(kCnnText));
  EXPECT_EQ(net.name, "tiny-cnn");
  EXPECT_EQ(net.type, NetworkType::kCnn);
  EXPECT_EQ(net.layers.size(), 3u);
  EXPECT_EQ(net.depth(), 2);
  EXPECT_EQ(net.layers[0].kind, LayerKind::kConvolution);
  EXPECT_EQ(net.layers[0].out_width(), 32);
  EXPECT_EQ(net.layers[1].kind, LayerKind::kPooling);
  EXPECT_EQ(net.layers[2].in_features, 4096);
  EXPECT_EQ(net.weight_bits, 4);
}

TEST(Parser, DefaultsApplied) {
  auto net = parse_network(util::Config::parse(
      "[layer1]\nkind = fc\nin = 8\nout = 4\n"));
  EXPECT_EQ(net.name, "network");
  EXPECT_EQ(net.type, NetworkType::kAnn);
  EXPECT_EQ(net.input_bits, 8);
  EXPECT_TRUE(net.layers[0].has_bias);
}

TEST(Parser, StrideAndNoBias) {
  auto net = parse_network(util::Config::parse(
      "[layer1]\nkind = conv\nin_channels = 3\nout_channels = 96\n"
      "kernel = 11\nin_width = 227\nin_height = 227\nstride = 4\n"
      "[layer2]\nkind = fc\nin = 10\nout = 10\nbias = false\n"));
  EXPECT_EQ(net.layers[0].stride, 4);
  EXPECT_EQ(net.layers[0].out_width(), 55);
  EXPECT_FALSE(net.layers[1].has_bias);
}

TEST(Parser, GapsInLayerNumberingThrow) {
  EXPECT_THROW(parse_network(util::Config::parse(
                   "[layer1]\nkind = fc\nin = 4\nout = 4\n"
                   "[layer3]\nkind = fc\nin = 4\nout = 4\n")),
               util::ConfigError);
}

TEST(Parser, UnknownKindAndTypeThrow) {
  EXPECT_THROW(parse_network(util::Config::parse(
                   "[layer1]\nkind = lstm\n")),
               util::ConfigError);
  EXPECT_THROW(parse_network(util::Config::parse(
                   "[network]\ntype = GAN\n[layer1]\nkind = fc\nin = 4\n"
                   "out = 4\n")),
               util::ConfigError);
}

TEST(Parser, MissingRequiredFieldThrows) {
  EXPECT_THROW(
      parse_network(util::Config::parse("[layer1]\nkind = fc\nin = 4\n")),
      util::ConfigError);
}

TEST(Parser, EmptyNetworkThrows) {
  EXPECT_THROW(parse_network(util::Config::parse("")),
               std::invalid_argument);
}

TEST(Parser, RoundTripPreservesStructure) {
  auto original = make_vgg16();
  const std::string text = write_network(original);
  auto parsed = parse_network(util::Config::parse(text));
  ASSERT_EQ(parsed.layers.size(), original.layers.size());
  EXPECT_EQ(parsed.name, original.name);
  EXPECT_EQ(parsed.type, original.type);
  EXPECT_EQ(parsed.depth(), original.depth());
  EXPECT_EQ(parsed.total_weights(), original.total_weights());
  for (std::size_t i = 0; i < parsed.layers.size(); ++i) {
    EXPECT_EQ(parsed.layers[i].kind, original.layers[i].kind) << i;
    EXPECT_EQ(parsed.layers[i].matrix_rows(),
              original.layers[i].matrix_rows())
        << i;
  }
}

TEST(Parser, RoundTripMlp) {
  auto original = make_autoencoder_64_16_64();
  auto parsed = parse_network(util::Config::parse(write_network(original)));
  EXPECT_EQ(parsed.input_size(), 64);
  EXPECT_EQ(parsed.output_size(), 64);
}


// ---- the key table: loader and check agree ----------------------------------

// What the loader makes of `text`: the network, or the error.
struct Loaded {
  bool ok = false;
  bool config_error = false;  // util::ConfigError (else invalid_argument)
  std::string error;
  Network network;
};

Loaded load(const std::string& text) {
  Loaded out;
  try {
    out.network = parse_network(util::Config::parse(text));
    out.ok = true;
  } catch (const util::ConfigError& e) {
    out.config_error = true;
    out.error = e.what();
  } catch (const std::invalid_argument& e) {
    out.error = e.what();
  }
  return out;
}

// `mnsim check` on `text`, written to a file as the CLI reads it.
check::DiagnosticList check_text(const std::string& text) {
  const std::string path = "nn_parser_tmp.ini";
  {
    std::ofstream f(path);
    f << text;
  }
  check::CheckOptions options;
  options.kind = check::InputKind::kNetwork;
  auto diags = check::check_file(path, options);
  std::remove(path.c_str());
  return diags;
}

// The error check reports at `line` with `message`, if any.
const check::Diagnostic* error_at(const check::DiagnosticList& diags,
                                  int line, const std::string& message) {
  for (const auto& d : diags)
    if (d.severity == check::Severity::kError && d.line == line &&
        d.message == message)
      return &d;
  return nullptr;
}

// Refused alike: the loader throws ConfigError, and the check reports
// the same message at the same line with `code`.
void expect_refused_alike(const std::string& text, int line,
                          const std::string& code) {
  SCOPED_TRACE(text);
  const Loaded loaded = load(text);
  ASSERT_FALSE(loaded.ok) << "the loader accepted it";
  ASSERT_TRUE(loaded.config_error) << loaded.error;
  const auto diags = check_text(text);
  const check::Diagnostic* d = error_at(diags, line, loaded.error);
  ASSERT_NE(d, nullptr) << loaded.error << "\n" << diags.render_text();
  EXPECT_EQ(d->code, code);
}

// Values that wrapped into valid-looking ones when narrowed to int.
TEST(ParserKeys, WrappedValuesAreRefused) {
  expect_refused_alike(
      "[layer1]\nkind = fc\nin = 4294967304\nout = 4\n", 3, "MN-CFG-003");
  expect_refused_alike(
      "[layer1]\nkind = conv\nin_channels = 1\nout_channels = 1\n"
      "kernel = 1\nin_width = 4294967328\nin_height = 32\n",
      6, "MN-CFG-003");
  expect_refused_alike(
      "[layer1]\nkind = fc\nin = 4\nout = 4\n[layer2]\nkind = pool\n"
      "window = 4294967298\n",
      7, "MN-CFG-003");
  expect_refused_alike(
      "[network]\ninput_bits = 4294967304\n[layer1]\nkind = fc\nin = 4\n"
      "out = 4\n",
      2, "MN-CFG-003");
}

TEST(ParserKeys, UnknownLayerKeyIsRefused) {
  const std::string text =
      "[layer1]\nkind = conv\nin_channels = 1\nout_channels = 1\n"
      "kernel = 3\nin_width = 8\nin_height = 8\npaddng = 1\n";
  expect_refused_alike(text, 8, "MN-CFG-001");
  EXPECT_NE(load(text).error.find("'paddng'"), std::string::npos);
  // A key of another layer kind does not belong either.
  expect_refused_alike("[layer1]\nkind = fc\nin = 4\nout = 4\nwindow = 2\n",
                       5, "MN-CFG-001");
}

// Text of the smallest valid network holding `key` = `value`; `line`
// receives the line of that key.
std::string minimal_text(const NetworkKey& key, const std::string& value,
                         int* line) {
  std::vector<std::pair<std::string, std::string>> lines;
  const auto section = [&](unsigned scope) {
    if (scope & NetworkKey::kConv)
      return std::vector<std::pair<std::string, std::string>>{
          {"kind", "conv"},       {"in_channels", "1"}, {"out_channels", "1"},
          {"kernel", "1"},        {"in_width", "65536"},
          {"in_height", "65536"}};
    if (scope & NetworkKey::kPool)
      return std::vector<std::pair<std::string, std::string>>{
          {"kind", "pool"}, {"window", "2"}};
    return std::vector<std::pair<std::string, std::string>>{
        {"kind", "fc"}, {"in", "4"}, {"out", "4"}};
  };
  std::string text;
  int at = 0;
  const auto emit = [&](const std::string& header,
                        std::vector<std::pair<std::string, std::string>> keys,
                        bool holds_key) {
    text += header + "\n";
    ++at;
    if (holds_key) {
      bool replaced = false;
      for (auto& [k, v] : keys)
        if (k == key.name) v = value, replaced = true;
      if (!replaced) keys.emplace_back(key.name, value);
    }
    for (const auto& [k, v] : keys) {
      text += k + " = " + v + "\n";
      if (holds_key && k == key.name) *line = at + 1;
      ++at;
    }
  };
  if (key.scope & NetworkKey::kNetwork) {
    emit("[network]", {}, true);
    emit("[layer1]", section(NetworkKey::kFc), false);
  } else if (key.scope & NetworkKey::kPool) {
    emit("[layer1]", section(NetworkKey::kConv), false);
    emit("[layer2]", section(NetworkKey::kPool), true);
  } else {
    emit("[layer1]", section(key.scope), true);
  }
  return text;
}

std::string exact(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

TEST(ParserKeys, RangedKeysAgreeAcrossLoadAndCheck) {
  std::size_t ranged = 0;
  for (const NetworkKey& key : network_keys()) {
    if (!key.range) continue;
    ++ranged;
    const auto [min, max] = *key.range;
    const double inf = std::numeric_limits<double>::infinity();
    for (const std::string& value :
         {std::to_string(min - 1), std::to_string(max + 1),
          exact(std::nextafter(static_cast<double>(min), -inf)),
          exact(std::nextafter(static_cast<double>(max), inf))}) {
      int line = 0;
      const std::string text = minimal_text(key, value, &line);
      expect_refused_alike(text, line, "MN-CFG-003");
    }
    for (const long value : {min, max}) {
      SCOPED_TRACE(key.name + " = " + std::to_string(value));
      int line = 0;
      const std::string text = minimal_text(key, std::to_string(value), &line);
      const Loaded loaded = load(text);
      EXPECT_TRUE(loaded.ok) << loaded.error;
      EXPECT_FALSE(check_text(text).has_errors())
          << check_text(text).render_text();
    }
  }
  EXPECT_GE(ranged, 12u);
}

// ---- seeded mutation test ---------------------------------------------------
//
// Every table key of a description is set to hostile values (huge,
// negative, 2^32 + k, fractional, non-numeric, empty) and every key
// name is misspelt. Each mutant loads with exactly the written value, or
// both the loader and `mnsim check` refuse it with an MN code at the
// mutated key: the same message at its line for a bad value or key, an
// MN-NN error at its layer for a network validate() refuses.

struct Line {
  std::string key;  // empty: a section header or other non-key line
  std::string text;
};

std::vector<Line> lines_of(const std::string& text) {
  std::vector<Line> out;
  std::istringstream in(text);
  for (std::string raw; std::getline(in, raw);) {
    const auto eq = raw.find('=');
    const std::string head = util::trim(raw.substr(0, eq));
    if (eq == std::string::npos || head.empty() || head[0] == '#' ||
        head[0] == ';')
      out.push_back({"", raw});
    else
      out.push_back({head, raw});
  }
  return out;
}

std::string section_of(const std::vector<Line>& lines, std::size_t at) {
  for (std::size_t i = at + 1; i-- > 0;) {
    const std::string t = util::trim(lines[i].text);
    if (lines[i].key.empty() && !t.empty() && t.front() == '[')
      return t.substr(1, t.size() - 2);
  }
  return {};
}

const NetworkKey* row_for(const std::string& section, const std::string& key,
                          const std::string& kind) {
  const unsigned scope =
      section == "network" ? NetworkKey::kNetwork
      : kind == "fc"       ? NetworkKey::kFc
      : kind == "conv"     ? NetworkKey::kConv
      : kind == "pool"     ? NetworkKey::kPool
                           : NetworkKey::kLayer;
  for (const auto& row : network_keys())
    if ((row.scope & scope) != 0 && row.name == key) return &row;
  return nullptr;
}

// The loaded value as the row spells it, against the written one read
// independently of the table's readers.
bool loads_as_written(const NetworkKey& row, const std::string& section,
                      const Network& net, const std::string& written) {
  const Layer* layer = nullptr;
  if (section != "network") {
    const std::size_t index = std::stoul(section.substr(5)) - 1;
    if (index >= net.layers.size()) return false;
    layer = &net.layers[index];
  }
  const std::string loaded = row.write(net, layer ? *layer : Layer{});
  const std::string value = util::trim(written);
  if (row.range) {
    char* end = nullptr;
    const double v = std::strtod(value.c_str(), &end);
    return end != value.c_str() && *end == '\0' &&
           v == static_cast<double>(std::stol(loaded));
  }
  std::string lower = value;
  for (auto& c : lower) c = static_cast<char>(std::tolower(c));
  if (row.name == "bias")
    return loaded == (lower == "true" || lower == "1" || lower == "yes" ||
                              lower == "on"
                          ? "true"
                          : "false");
  if (row.name == "type") {
    std::string upper = value;
    for (auto& c : upper) c = static_cast<char>(std::toupper(c));
    return loaded == upper;
  }
  return loaded == value;
}

std::string render(const std::vector<Line>& lines) {
  std::string text;
  for (const auto& l : lines) text += l.text + "\n";
  return text;
}

struct MutationStats {
  std::size_t loaded = 0;
  std::size_t refused = 0;
};

void check_mutant(const std::vector<Line>& lines, std::size_t at,
                  MutationStats& stats) {
  const std::string text = render(lines);
  SCOPED_TRACE(lines[at].text);
  const int line = static_cast<int>(at) + 1;
  const std::string section = section_of(lines, at);
  const Loaded loaded = load(text);
  const auto diags = check_text(text);
  if (loaded.ok) {
    ++stats.loaded;
    std::string kind;
    for (std::size_t i = 0; i < lines.size(); ++i)
      if (lines[i].key == "kind" && section_of(lines, i) == section)
        kind = util::trim(lines[i].text.substr(lines[i].text.find('=') + 1));
    const NetworkKey* row = row_for(section, lines[at].key, kind);
    ASSERT_NE(row, nullptr) << "the loader accepted an unknown key";
    const std::string written =
        lines[at].text.substr(lines[at].text.find('=') + 1);
    EXPECT_TRUE(loads_as_written(*row, section, loaded.network, written));
    for (const auto& d : diags)
      EXPECT_NE(d.code.rfind("MN-CFG-00", 0), 0u) << d.render();
    return;
  }
  ++stats.refused;
  if (loaded.config_error) {
    // The check reports what the loader threw, and an MN-CFG error at the
    // mutated line (the same one, unless the mutation broke another key:
    // a changed `kind` disowns the old kind's keys).
    bool same = false;
    bool at_line = false;
    for (const auto& d : diags) {
      if (d.severity != check::Severity::kError) continue;
      same |= d.message == loaded.error;
      at_line |= d.line == line && d.code.rfind("MN-CFG-00", 0) == 0;
    }
    EXPECT_TRUE(same && at_line)
        << loaded.error << "\n" << diags.render_text();
    return;
  }
  // validate() refused the network: the check reports the same MN-NN
  // code, at the mutated layer (or for the whole network).
  const auto open = loaded.error.rfind("[MN-NN-");
  ASSERT_NE(open, std::string::npos) << loaded.error;
  const std::string code =
      loaded.error.substr(open + 1, loaded.error.find(']', open) - open - 1);
  bool found = false;
  for (const auto& d : diags)
    found |= d.severity == check::Severity::kError && d.code == code &&
             (d.location.empty() || d.location == "[" + section + "]");
  EXPECT_TRUE(found) << loaded.error << "\n" << diags.render_text();
}

void mutate_every_key(const std::string& base, std::uint32_t seed,
                      MutationStats& stats) {
  std::mt19937 rng(seed);
  std::vector<std::string> values = {
      "0", "1", "-1", "2", "16", "17", "65536", "65537", "16777216",
      "16777217", "2147483647", "2147483648", "4294967296", "4294967304",
      "-4294967295", "9223372036854775807", "99999999999999999999", "1e300",
      "-1e300", "1e3", "2.5", "0.5", "-0", "0x10", "nan", "inf", "abc", "",
      "true", "no", "ANN", "cnn", "fc", "conv", "pool", "x y"};
  for (int i = 0; i < 8; ++i) {
    values.push_back(std::to_string(
        (1L << 32) + std::uniform_int_distribution<long>(0, 64)(rng)));
    values.push_back(std::to_string(
        std::uniform_int_distribution<long>(-(1L << 40), 1L << 40)(rng)));
  }
  const std::vector<Line> lines = lines_of(base);
  for (std::size_t at = 0; at < lines.size(); ++at) {
    if (lines[at].key.empty()) continue;
    const std::string& key = lines[at].key;
    for (const auto& value : values) {
      auto mutant = lines;
      mutant[at].text = key + " = " + value;
      check_mutant(mutant, at, stats);
    }
    // Typos: a dropped, a doubled and a swapped letter.
    for (const std::string& typo :
         {key.substr(1), key + key.back(),
          key.size() > 2 ? key.substr(0, key.size() - 2) + key.back() +
                               key[key.size() - 2]
                         : key + "x"}) {
      if (typo == key) continue;
      auto mutant = lines;
      mutant[at].key = typo;
      mutant[at].text = typo + " = " + lines[at].text.substr(
                                           lines[at].text.find('=') + 2);
      check_mutant(mutant, at, stats);
    }
  }
}

// Every applicable table key a section leaves at its default is spelled
// out, so the mutations reach optional keys too.
std::string with_every_key(const std::string& text) {
  const Network net = parse_network(util::Config::parse(text));
  return write_network(net);
}

TEST(ParserMutation, EveryKeyOfLenetLoadsExactlyOrIsRefusedAlike) {
  std::ifstream f(MNSIM_LENET_INI);
  ASSERT_TRUE(f.good());
  std::stringstream lenet;
  lenet << f.rdbuf();
  MutationStats stats;
  mutate_every_key(lenet.str(), 1, stats);
  mutate_every_key(with_every_key(lenet.str()), 2, stats);
  EXPECT_GT(stats.loaded, 100u);
  EXPECT_GT(stats.refused, 1000u);
}

TEST(ParserMutation, EveryKeyOfConvPoolFcLoadsExactlyOrIsRefusedAlike) {
  MutationStats stats;
  mutate_every_key(kCnnText, 3, stats);
  mutate_every_key(with_every_key(kCnnText), 4, stats);
  EXPECT_GT(stats.loaded, 50u);
  EXPECT_GT(stats.refused, 500u);
}

// write_network spells every table key of every section it writes, and
// nothing else; parsing it back gives the same network.
TEST(ParserKeys, WriteNetworkRoundTripsEveryTableKey) {
  Network net;
  net.name = "all-keys";
  net.type = NetworkType::kSnn;
  net.input_bits = 6;
  net.weight_bits = 3;
  Layer conv = Layer::convolution("c1", 3, 8, 3, 16, 12, 1);
  conv.stride = 2;
  net.layers = {conv, Layer::pooling("p1", 2),
                Layer::fully_connected("f1", 8 * 4 * 3, 5, false)};
  const std::string text = write_network(net);
  const util::Config cfg = util::Config::parse(text);
  std::size_t expected = 0;
  for (const auto& key : network_keys()) {
    if (key.scope & NetworkKey::kNetwork) {
      EXPECT_TRUE(cfg.has("network." + key.name)) << key.name;
      ++expected;
    }
    for (std::size_t i = 0; i < net.layers.size(); ++i) {
      const unsigned scope = i == 0 ? NetworkKey::kConv
                             : i == 1 ? NetworkKey::kPool
                                      : NetworkKey::kFc;
      if ((key.scope & scope) == 0) continue;
      EXPECT_TRUE(cfg.has("layer" + std::to_string(i + 1) + "." + key.name))
          << key.name;
      ++expected;
    }
  }
  EXPECT_EQ(cfg.entries().size(), expected);
  EXPECT_EQ(parse_network(cfg), net);
}

TEST(ParserKeys, ValidateMessagesCarryTheirCode) {
  try {
    (void)Layer::fully_connected("x", 0, 5);
    ADD_FAILURE() << "no throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("[MN-NN-002]"), std::string::npos)
        << e.what();
  }
  // The rules hold programmatic layers to the table's ranges too.
  EXPECT_THROW((void)Layer::convolution("c", 1, 1, 3, 8, 8, -1),
               std::invalid_argument);
  Network net;
  net.layers = {Layer::fully_connected("a", 4, 4)};
  net.input_bits = 17;
  try {
    net.validate();
    ADD_FAILURE() << "no throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("[MN-NN-002]"), std::string::npos)
        << e.what();
  }
}

}  // namespace
}  // namespace mnsim::nn
