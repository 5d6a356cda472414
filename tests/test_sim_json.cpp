#include "sim/json_report.hpp"

#include <gtest/gtest.h>

#include <cstdlib>

#include "nn/topologies.hpp"
#include "util/json.hpp"

namespace mnsim::sim {
namespace {

arch::AcceleratorReport make_report(nn::Network& net) {
  net = nn::make_autoencoder_64_16_64();
  arch::AcceleratorConfig cfg;
  cfg.cmos_node_nm = 45;
  return arch::simulate_accelerator(net, cfg);
}

TEST(JsonReport, RoundTripsTotals) {
  nn::Network net;
  auto rep = make_report(net);
  const std::string json = report_to_json(net, rep);
  const auto values = parse_json_numbers(json);

  EXPECT_DOUBLE_EQ(values.at("totals.area"), rep.area);
  EXPECT_DOUBLE_EQ(values.at("totals.energy_per_sample"),
                   rep.energy_per_sample);
  EXPECT_DOUBLE_EQ(values.at("totals.max_error_rate"), rep.max_error_rate);
  EXPECT_DOUBLE_EQ(values.at("network.depth"), 2.0);
  EXPECT_DOUBLE_EQ(values.at("banks.0.iterations"), 1.0);
  EXPECT_DOUBLE_EQ(values.at("banks.1.epsilon_worst"),
                   rep.banks[1].epsilon_worst);
  EXPECT_DOUBLE_EQ(values.at("breakdown.read_circuits.area"),
                   rep.breakdown.read_circuits.area);
}

TEST(JsonReport, BankCountMatches) {
  nn::Network net;
  auto rep = make_report(net);
  const auto values = parse_json_numbers(report_to_json(net, rep));
  int banks = 0;
  while (values.count("banks." + std::to_string(banks) + ".area")) ++banks;
  EXPECT_EQ(banks, 2);
}

// JSON forbids a raw control character in a string: a tab in the
// network name must come out as \t.
TEST(JsonReport, ControlCharactersInNamesAreEscaped) {
  nn::Network net;
  auto rep = make_report(net);
  net.name = "auto\tencoder";
  const std::string json = report_to_json(net, rep);
  EXPECT_NE(json.find(R"("name": "auto\tencoder")"), std::string::npos);
  EXPECT_NO_THROW((void)parse_json_numbers(json));
}

TEST(JsonWriter, QuoteEscapesEveryControlByte) {
  using util::json::quote;
  EXPECT_EQ(quote("a\"b\\c"), R"("a\"b\\c")");
  EXPECT_EQ(quote("\n\t"), R"("\n\t")");
  EXPECT_EQ(quote(std::string("\0\x01\r\x1b\x1f", 5)),
            R"("\u0000\u0001\u000d\u001b\u001f")");
  // DEL and UTF-8 bytes pass through unchanged.
  EXPECT_EQ(quote("\x7f\xc2\xb5"), "\"\x7f\xc2\xb5\"");
  for (int c = 0; c < 0x20; ++c) {
    const std::string q = quote(std::string(1, static_cast<char>(c)));
    EXPECT_NO_THROW((void)parse_json_numbers("{" + q + ": 1}")) << c;
  }
}

TEST(JsonWriter, NumberRoundTrips) {
  for (const double v : {0.0, -0.0, 0.1, 1.0 / 3.0, 6.02214076e23,
                         4.9406564584124654e-324}) {
    EXPECT_EQ(std::strtod(util::json::number(v).c_str(), nullptr), v);
  }
  EXPECT_EQ(util::json::number(0.1), "0.10000000000000001");
}

TEST(JsonParser, HandlesNestedStructures) {
  const auto v = parse_json_numbers(
      R"({"a": 1, "b": {"c": 2.5, "d": [3, {"e": -4e-3}]},
          "s": "text", "t": true, "n": null, "empty": {}, "arr": []})");
  EXPECT_DOUBLE_EQ(v.at("a"), 1.0);
  EXPECT_DOUBLE_EQ(v.at("b.c"), 2.5);
  EXPECT_DOUBLE_EQ(v.at("b.d.0"), 3.0);
  EXPECT_DOUBLE_EQ(v.at("b.d.1.e"), -4e-3);
  EXPECT_EQ(v.count("s"), 0u);  // strings skipped
  EXPECT_EQ(v.count("t"), 0u);  // booleans skipped
}

TEST(JsonParser, EscapedStringsSkipped) {
  const auto v = parse_json_numbers(R"({"k": "quote \" inside", "x": 7})");
  EXPECT_DOUBLE_EQ(v.at("x"), 7.0);
}

TEST(JsonParser, MalformedInputThrows) {
  EXPECT_THROW(parse_json_numbers("{"), std::runtime_error);
  EXPECT_THROW(parse_json_numbers(R"({"a" 1})"), std::runtime_error);
  EXPECT_THROW(parse_json_numbers(R"({"a": bogus})"), std::runtime_error);
  EXPECT_THROW(parse_json_numbers(R"({"a": 1} extra)"), std::runtime_error);
}

// RFC 8259: a control character inside a string must be escaped, so
// every test that round-trips a document through the parser also checks
// that it is valid JSON.
TEST(JsonParser, RawControlCharacterThrows) {
  EXPECT_THROW(parse_json_numbers("{\"k\": \"a\tb\", \"x\": 7}"),
               std::runtime_error);
  EXPECT_THROW(parse_json_numbers("{\"a\x01\": 7}"), std::runtime_error);
  const auto v = parse_json_numbers(R"({"k": "a\u0009b", "x": 7})");
  EXPECT_DOUBLE_EQ(v.at("x"), 7.0);
}

}  // namespace
}  // namespace mnsim::sim
