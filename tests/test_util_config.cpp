#include "util/config.hpp"

#include <gtest/gtest.h>

#include <limits>

namespace mnsim::util {
namespace {

TEST(Config, ParsesKeyValuePairs) {
  auto cfg = Config::parse("a = 1\nb = hello\n");
  EXPECT_EQ(cfg.get_int("a"), 1);
  EXPECT_EQ(cfg.get_string("b"), "hello");
}

TEST(Config, SectionsPrefixKeys) {
  auto cfg = Config::parse("[bank]\nCrossbar_Size = 128\n[unit]\nx = 2\n");
  EXPECT_EQ(cfg.get_int("bank.Crossbar_Size"), 128);
  EXPECT_EQ(cfg.get_int("unit.x"), 2);
  EXPECT_FALSE(cfg.has("Crossbar_Size"));
}

TEST(Config, CommentsAndBlankLinesIgnored) {
  auto cfg = Config::parse("# comment\n\na = 3 ; trailing\n; full line\n");
  EXPECT_EQ(cfg.get_int("a"), 3);
  EXPECT_EQ(cfg.entries().size(), 1u);
}

TEST(Config, LaterDuplicateWins) {
  auto cfg = Config::parse("a = 1\na = 2\n");
  EXPECT_EQ(cfg.get_int("a"), 2);
}

TEST(Config, ListsParseWithAndWithoutBrackets) {
  auto cfg = Config::parse("x = [128, 128]\ny = 1, 2.5, 3\n");
  EXPECT_EQ(cfg.get_int_list("x"), (std::vector<long>{128, 128}));
  auto y = cfg.get_list("y");
  ASSERT_EQ(y.size(), 3u);
  EXPECT_DOUBLE_EQ(y[1], 2.5);
}

TEST(Config, ScientificNotationValues) {
  auto cfg = Config::parse("r = 5e2\nrange = [500, 500e3]\n");
  EXPECT_DOUBLE_EQ(cfg.get_double("r"), 500.0);
  EXPECT_DOUBLE_EQ(cfg.get_list("range")[1], 500e3);
}

TEST(Config, BooleansAcceptCommonSpellings) {
  auto cfg = Config::parse("a=true\nb=0\nc=YES\nd=off\n");
  EXPECT_TRUE(cfg.get_bool("a"));
  EXPECT_FALSE(cfg.get_bool("b"));
  EXPECT_TRUE(cfg.get_bool("c"));
  EXPECT_FALSE(cfg.get_bool("d"));
}

TEST(Config, MissingKeyThrows) {
  Config cfg;
  EXPECT_THROW((void)cfg.get_string("nope"), ConfigError);
  EXPECT_THROW((void)cfg.get_double("nope"), ConfigError);
}

// A number no long holds is refused before the (undefined) cast.
TEST(Config, IntegersOutsideLongThrow) {
  auto cfg = Config::parse(
      "a = 1e30\nb = -1e30\nc = nan\nd = inf\ne = 9223372036854775808\n"
      "f = -9223372036854775808\n");
  for (const char* key : {"a", "b", "c", "d", "e"})
    EXPECT_THROW((void)cfg.get_int(key), ConfigError) << key;
  EXPECT_EQ(cfg.get_int("f"), std::numeric_limits<long>::min());
}

TEST(Config, TypeErrorsThrow) {
  auto cfg = Config::parse("a = xyz\nb = 1.5\nc = maybe\n");
  EXPECT_THROW((void)cfg.get_double("a"), ConfigError);
  EXPECT_THROW((void)cfg.get_int("b"), ConfigError);
  EXPECT_THROW((void)cfg.get_bool("c"), ConfigError);
}

TEST(Config, MalformedLineThrows) {
  EXPECT_THROW(Config::parse("just a line without equals\n"), ConfigError);
  EXPECT_THROW(Config::parse("= value\n"), ConfigError);
}

TEST(Config, LoadMissingFileThrows) {
  EXPECT_THROW(Config::load("/nonexistent/path/cfg.ini"), ConfigError);
}

TEST(Config, ListErrorsThrow) {
  auto cfg = Config::parse("a = [1, two, 3]\nb = [1.5, 2]\n");
  EXPECT_THROW((void)cfg.get_list("a"), ConfigError);
  EXPECT_THROW((void)cfg.get_int_list("b"), ConfigError);  // 1.5 not integral
  Config empty;
  EXPECT_THROW((void)empty.get_list("missing"), ConfigError);
}

TEST(Config, NonIntegralDoubleThrowsOnGetInt) {
  auto cfg = Config::parse("x = 2.5\n");
  EXPECT_THROW((void)cfg.get_int("x"), ConfigError);
  EXPECT_DOUBLE_EQ(cfg.get_double("x"), 2.5);
}

TEST(Trim, StripsWhitespace) {
  EXPECT_EQ(trim("  a b  "), "a b");
  EXPECT_EQ(trim("\t\n"), "");
  EXPECT_EQ(trim(""), "");
}

}  // namespace
}  // namespace mnsim::util
