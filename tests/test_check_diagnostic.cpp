// Diagnostic record / list mechanics: rendering (GCC-style text, JSON),
// severity accounting, promotion, file stamping, and the exception
// carriers (CheckError, ParseError). Golden coverage for MN-CHK-001.
#include "check/check.hpp"

#include <gtest/gtest.h>

#include "check/diagnostic.hpp"
#include "check_testing.hpp"

namespace mnsim::check {
namespace {

Diagnostic sample() {
  Diagnostic d;
  d.code = "MN-NET-001";
  d.severity = Severity::kError;
  d.message = "node n3 is floating";
  d.file = "deck.sp";
  d.line = 7;
  d.location = "node n3";
  d.hint = "ground the island";
  return d;
}

TEST(Diagnostic, RendersGccStyle) {
  const std::string text = sample().render();
  EXPECT_NE(text.find("deck.sp:7: error: node n3 is floating"),
            std::string::npos);
  EXPECT_NE(text.find("[MN-NET-001]"), std::string::npos);
  EXPECT_NE(text.find("note: ground the island"), std::string::npos);
}

TEST(Diagnostic, RendersLocationWhenNoFile) {
  Diagnostic d = sample();
  d.file.clear();
  d.line = 0;
  EXPECT_EQ(d.render().rfind("node n3: error:", 0), 0u);
}

TEST(DiagnosticList, CountsAndSummary) {
  DiagnosticList list;
  list.emit("MN-NET-001", Severity::kError, "a");
  list.emit("MN-NET-005", Severity::kWarning, "b");
  list.emit("MN-NET-005", Severity::kWarning, "c");
  EXPECT_EQ(list.error_count(), 1u);
  EXPECT_EQ(list.warning_count(), 2u);
  EXPECT_TRUE(list.has_errors());
  EXPECT_TRUE(has_code(list, "MN-NET-005"));
  EXPECT_FALSE(has_code(list, "MN-CFG-001"));
  EXPECT_EQ(list.summary(), "1 error, 2 warnings");
  EXPECT_NE(list.render_text().find("1 error, 2 warnings generated."),
            std::string::npos);
}

TEST(DiagnosticList, PromoteWarnings) {
  DiagnosticList list;
  list.emit("MN-CFG-006", Severity::kWarning, "unread key");
  EXPECT_FALSE(list.has_errors());
  list.promote_warnings();
  EXPECT_TRUE(list.has_errors());
  EXPECT_EQ(list.warning_count(), 0u);
}

TEST(DiagnosticList, SetFileOnlyFillsBlanks) {
  DiagnosticList list;
  list.emit("MN-NET-001", Severity::kError, "a").file = "original.sp";
  list.emit("MN-NET-002", Severity::kError, "b");
  list.set_file("stamped.sp");
  EXPECT_EQ(list.begin()[0].file, "original.sp");
  EXPECT_EQ(list.begin()[1].file, "stamped.sp");
}

TEST(DiagnosticList, MergeKeepsOrder) {
  DiagnosticList a;
  a.emit("MN-NET-001", Severity::kError, "first");
  DiagnosticList b;
  b.emit("MN-NET-002", Severity::kError, "second");
  a.merge(std::move(b));
  ASSERT_EQ(a.size(), 2u);
  EXPECT_EQ(a.begin()[1].code, "MN-NET-002");
}

TEST(DiagnosticList, JsonEscapesAndListsAllFields) {
  DiagnosticList list;
  auto& d = list.emit("MN-CFG-003", Severity::kWarning, "bad \"value\"\n");
  d.file = "a\\b.ini";
  d.line = 3;
  const std::string json = list.render_json();
  EXPECT_NE(json.find("\"code\": \"MN-CFG-003\""), std::string::npos);
  EXPECT_NE(json.find("\"severity\": \"warning\""), std::string::npos);
  EXPECT_NE(json.find("bad \\\"value\\\"\\n"), std::string::npos);
  EXPECT_NE(json.find("a\\\\b.ini"), std::string::npos);
  EXPECT_NE(json.find("\"line\": 3"), std::string::npos);
}

// Control bytes other than \n and \t come out as \u00xx.
TEST(DiagnosticList, JsonEscapesControlCharacters) {
  DiagnosticList list;
  list.emit("MN-NN-003", Severity::kError, "[layer\r8]").location =
      "\x1b[1m[layer8]";
  const std::string json = list.render_json();
  EXPECT_NE(json.find(R"("message": "[layer\u000d8]")"), std::string::npos);
  EXPECT_NE(json.find(R"("location": "\u001b[1m[layer8]")"),
            std::string::npos);
  EXPECT_EQ(json.find('\r'), std::string::npos);
  EXPECT_EQ(json.find('\x1b'), std::string::npos);
}

TEST(CheckError, HeadlinesFirstErrorAndCarriesAll) {
  DiagnosticList list;
  list.emit("MN-NET-005", Severity::kWarning, "spread");
  list.emit("MN-NET-001", Severity::kError, "floating node");
  list.emit("MN-NET-002", Severity::kError, "isolated node");
  const CheckError error(std::move(list));
  const std::string what = error.what();
  EXPECT_NE(what.find("pre-flight check failed"), std::string::npos);
  EXPECT_NE(what.find("floating node [MN-NET-001]"), std::string::npos);
  EXPECT_EQ(error.diagnostics().size(), 3u);
}

TEST(ParseError, WhatMatchesRenderedDiagnostic) {
  const ParseError error(sample());
  EXPECT_EQ(std::string(error.what()), sample().render());
  EXPECT_EQ(error.diagnostic().code, "MN-NET-001");
}

// MN-CHK-001: unreadable input file.
TEST(CheckFile, MissingFileIsDiagnosed) {
  const DiagnosticList diags =
      check_file("/nonexistent/definitely_missing.ini");
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_TRUE(has_code(diags, "MN-CHK-001"));
  EXPECT_EQ(diags.begin()[0].file, "/nonexistent/definitely_missing.ini");
}

TEST(CheckFile, DetectsInputKinds) {
  EXPECT_EQ(detect_input_kind("a.sp", ""), InputKind::kSpiceDeck);
  EXPECT_EQ(detect_input_kind("a.cir", ""), InputKind::kSpiceDeck);
  EXPECT_EQ(detect_input_kind("a.ini", "[network]\nname = x\n"),
            InputKind::kNetwork);
  EXPECT_EQ(detect_input_kind("a.ini", "[layer1]\nkind = fc\n"),
            InputKind::kNetwork);
  EXPECT_EQ(detect_input_kind("a.ini", "Crossbar_Size = 128\n"),
            InputKind::kAcceleratorConfig);
}

}  // namespace
}  // namespace mnsim::check
