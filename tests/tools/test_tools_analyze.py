#!/usr/bin/env python3
"""Unit tests for tools/analyze (ctest: test_tools_analyze).

Each test drives the analyzer as a subprocess over a fixture mini-repo
(source trees + catalogue, no build directory). Covered contract:
finding detection and scope for every rule, both escape placements
(plus CRLF files and first-line escapes), the mandatory escape reason
and known rule name, the baseline lifecycle (write, honor, go-stale),
SARIF output shape (including exact endColumn spans and per-rule
helpUri), the MN-* and span/metric catalogue syncs in both directions,
header functions nothing outside tests/ calls, value-changing
floating-point flags in CMake files, the rule catalogue's
headings in docs/STATIC_ANALYSIS.md, and a clean run over the real repo.
"""
from __future__ import annotations

import json
import pathlib
import re
import subprocess
import sys
import tempfile
import unittest

REPO = pathlib.Path(__file__).resolve().parents[2]
ANALYZE = REPO / "tools" / "analyze"

sys.path.insert(0, str(ANALYZE))
import cpptok  # noqa: E402
import rules_repo  # noqa: E402
import rules_tokens  # noqa: E402

FP_VIOLATION = (
    "double pick(double a, double b) {\n"
    "  if (a == b) return a;\n"
    "  return b;\n"
    "}\n"
)


class AnalyzeFixture(unittest.TestCase):
    """Mini-repo fixture; the test classes below add the cases."""

    def setUp(self):
        self._tmp = tempfile.TemporaryDirectory()
        self.addCleanup(self._tmp.cleanup)
        self.repo = pathlib.Path(self._tmp.name)
        (self.repo / "docs").mkdir()
        (self.repo / "docs" / "DIAGNOSTICS.md").write_text("# Diagnostics\n")

    def add_source(self, rel: str, text: str) -> None:
        path = self.repo / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)

    def run_analyze(self, *extra: str) -> subprocess.CompletedProcess:
        return subprocess.run(
            [
                sys.executable,
                str(ANALYZE),
                "--repo",
                str(self.repo),
                "--baseline",
                "baseline.json",
                *extra,
            ],
            capture_output=True,
            text=True,
        )

    def assert_rule(self, source: str, *, rel: str, rule: str,
                    line: int | None) -> None:
        """line=None asserts clean; otherwise a finding of `rule` there."""
        self.add_source(rel, source)
        proc = self.run_analyze()
        if line is None:
            self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        else:
            self.assertEqual(proc.returncode, 1, proc.stdout + proc.stderr)
            self.assertIn(f"{rel}:{line}:", proc.stdout)
            self.assertIn(f": {rule}: ", proc.stdout)


class CoreContract(AnalyzeFixture):
    def test_fp_equality_violation_fails_the_gate(self):
        self.add_source("src/numeric/demo.cpp", FP_VIOLATION)
        proc = self.run_analyze()
        self.assertEqual(proc.returncode, 1, proc.stdout + proc.stderr)
        self.assertIn("fp-equality", proc.stdout)
        self.assertIn("src/numeric/demo.cpp:2", proc.stdout)

    def test_same_line_escape_is_honored(self):
        self.add_source(
            "src/numeric/demo.cpp",
            FP_VIOLATION.replace(
                "return a;",
                "return a;  // mnsim-analyze: allow(fp-equality, fixture)",
            ),
        )
        proc = self.run_analyze()
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)

    def test_previous_line_escape_is_honored(self):
        self.add_source(
            "src/numeric/demo.cpp",
            FP_VIOLATION.replace(
                "  if (a == b)",
                "  // mnsim-analyze: allow(fp-equality, fixture)\n"
                "  if (a == b)",
            ),
        )
        proc = self.run_analyze()
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)

    def test_escape_without_reason_is_itself_a_finding(self):
        self.add_source(
            "src/numeric/demo.cpp",
            FP_VIOLATION.replace(
                "return a;",
                "return a;  // mnsim-analyze: allow(fp-equality)",
            ),
        )
        proc = self.run_analyze()
        self.assertEqual(proc.returncode, 1)
        self.assertIn("malformed-escape", proc.stdout)

    def test_baseline_lifecycle(self):
        self.add_source("src/numeric/demo.cpp", FP_VIOLATION)
        # 1. Accept the current findings with a written reason.
        wrote = self.run_analyze("--write-baseline", "known fixture defect")
        self.assertEqual(wrote.returncode, 0, wrote.stdout + wrote.stderr)
        baseline = json.loads((self.repo / "baseline.json").read_text())
        self.assertTrue(
            all(e["reason"] == "known fixture defect"
                for e in baseline["findings"])
        )
        # 2. The baselined finding no longer fails the gate.
        honored = self.run_analyze()
        self.assertEqual(honored.returncode, 0, honored.stdout + honored.stderr)
        self.assertIn("1 baselined", honored.stderr)
        # 3. Fixing the defect makes the baseline entry stale — the gate
        # fails until the baseline is consciously regenerated.
        (self.repo / "src/numeric/demo.cpp").write_text(
            "double pick(double a, double) { return a; }\n"
        )
        stale = self.run_analyze()
        self.assertEqual(stale.returncode, 1)
        self.assertIn("stale baseline", stale.stdout)

    def test_sarif_report_shape(self):
        self.add_source("src/numeric/demo.cpp", FP_VIOLATION)
        sarif_path = self.repo / "report.sarif"
        self.run_analyze("--sarif", str(sarif_path))
        report = json.loads(sarif_path.read_text())
        self.assertEqual(report["version"], "2.1.0")
        run = report["runs"][0]
        self.assertEqual(run["tool"]["driver"]["name"], "mnsim-analyze")
        results = run["results"]
        self.assertTrue(results)
        self.assertEqual(results[0]["ruleId"], "fp-equality")

    def test_escape_naming_an_unknown_rule_is_a_finding(self):
        # A misspelled or retired rule name would otherwise be dead text
        # that excuses nothing.
        self.add_source(
            "src/numeric/demo.cpp",
            "// mnsim-analyze: allow(raw-chrono-timing, retired name)\n"
            "int x;\n",
        )
        proc = self.run_analyze()
        self.assertEqual(proc.returncode, 1, proc.stdout + proc.stderr)
        self.assertIn("src/numeric/demo.cpp:1:1: malformed-escape", proc.stdout)
        self.assertIn("raw-chrono-timing", proc.stdout)

    def test_catalogue_sync_in_both_directions(self):
        self.add_source(
            "src/check/diag.cpp",
            'const char* code() { return "MN-TST-001: boom"; }\n',
        )
        (self.repo / "docs" / "DIAGNOSTICS.md").write_text(
            "| MN-TST-002 | stale |\n"
        )
        proc = self.run_analyze()
        self.assertEqual(proc.returncode, 1)
        self.assertIn("src/check/diag.cpp:1:29: mn-code-extraction: "
                      "'MN-TST-001'", proc.stdout)
        self.assertIn("docs/DIAGNOSTICS.md:1:1: mn-code-extraction: "
                      "'MN-TST-002' is catalogued", proc.stdout)
        # Documenting the emitted code and dropping the stale one is clean.
        (self.repo / "docs" / "DIAGNOSTICS.md").write_text(
            "| MN-TST-001 | fixture |\n"
        )
        clean = self.run_analyze()
        self.assertEqual(clean.returncode, 0, clean.stdout + clean.stderr)

    def test_comment_mention_is_not_an_emitted_code(self):
        # Only string literals count: a code named in a comment must not
        # count as emitted.
        self.add_source(
            "src/check/diag.cpp",
            "// retired long ago: MN-TST-099\nint x;\n",
        )
        proc = self.run_analyze()
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)

    def test_repo_without_sources_is_usage_error(self):
        # A wrong --repo must not pass the gate by analyzing nothing.
        proc = self.run_analyze()
        self.assertEqual(proc.returncode, 2, proc.stdout + proc.stderr)
        self.assertIn("no .cpp/.hpp files", proc.stderr)


RAW_THREAD = (
    "void spawn() {\n"
    "  std::thread worker([] {});\n"
    "  worker.join();\n"
    "}\n"
)

RAW_ASYNC = (
    "int run();\n"
    "void go() {\n"
    "  auto f = std::async(run);\n"
    "  f.get();\n"
    "}\n"
)

ATOMIC_ORDER = (
    "std::atomic<bool> flag{false};\n"
    "void request_stop() {\n"
    "  flag.store(true, std::memory_order_relaxed);\n"
    "}\n"
)

PAR_CAPTURE = (
    "void sweep(int n) {\n"
    "  int total = 0;\n"
    "  parallel_map(0, n, [&](std::size_t i, std::size_t) {\n"
    "    total += static_cast<int>(i);\n"
    "  });\n"
    "}\n"
)

PAR_WORKER_SLOTS = (
    "void sweep(std::vector<double>& slots, int n) {\n"
    "  parallel_map(0, n, [&](std::size_t i, std::size_t worker) {\n"
    "    slots[worker] += static_cast<double>(i);\n"
    "  });\n"
    "}\n"
)


class ConcurrencyRules(AnalyzeFixture):
    """The three rules that complement the Clang -Wthread-safety gate."""

    def test_raw_thread_construction_is_flagged(self):
        self.assert_rule(
            RAW_THREAD, rel="src/dse/fixture.cpp", rule="raw-thread", line=2
        )

    def test_raw_async_is_flagged(self):
        self.assert_rule(
            RAW_ASYNC, rel="src/dse/fixture.cpp", rule="raw-thread", line=3
        )

    def test_raw_thread_escape_is_honored(self):
        self.assert_rule(
            RAW_THREAD.replace(
                "  std::thread worker",
                "  // mnsim-analyze: allow(raw-thread, fixture supervisor)\n"
                "  std::thread worker",
            ),
            rel="src/dse/fixture.cpp",
            rule="raw-thread",
            line=None,
        )

    def test_raw_thread_allowed_inside_the_pool(self):
        # util::ThreadPool is where threads are *supposed* to live.
        self.assert_rule(
            RAW_THREAD, rel="src/util/parallel.cpp", rule="raw-thread",
            line=None,
        )

    def test_atomic_order_explicit_ordering_is_flagged(self):
        self.assert_rule(
            ATOMIC_ORDER, rel="src/util/fixture.cpp", rule="atomic-order",
            line=3,
        )

    def test_atomic_order_scoped_enumerator_form_is_flagged(self):
        self.assert_rule(
            ATOMIC_ORDER.replace(
                "std::memory_order_relaxed", "std::memory_order::relaxed"
            ),
            rel="src/util/fixture.cpp",
            rule="atomic-order",
            line=3,
        )

    def test_atomic_order_escape_is_honored(self):
        self.assert_rule(
            ATOMIC_ORDER.replace(
                "  flag.store",
                "  // mnsim-analyze: allow(atomic-order, standalone flag, "
                "no payload)\n"
                "  flag.store",
            ),
            rel="src/util/fixture.cpp",
            rule="atomic-order",
            line=None,
        )

    def test_atomic_order_default_ordering_is_clean(self):
        self.assert_rule(
            "std::atomic<bool> flag{false};\n"
            "void request_stop() { flag.store(true); }\n",
            rel="src/util/fixture.cpp",
            rule="atomic-order",
            line=None,
        )

    def test_parallel_capture_shared_write_is_flagged(self):
        self.assert_rule(
            PAR_CAPTURE, rel="src/nn/fixture.cpp", rule="parallel-capture",
            line=4,
        )

    def test_parallel_capture_worker_slot_idiom_is_clean(self):
        self.assert_rule(
            PAR_WORKER_SLOTS, rel="src/nn/fixture.cpp",
            rule="parallel-capture", line=None,
        )

    def test_parallel_capture_escape_is_honored(self):
        self.assert_rule(
            PAR_CAPTURE.replace(
                "    total +=",
                "    // mnsim-analyze: allow(parallel-capture, fixture: "
                "serialized elsewhere)\n"
                "    total +=",
            ),
            rel="src/nn/fixture.cpp",
            rule="parallel-capture",
            line=None,
        )

    def test_concurrency_rules_baseline_lifecycle(self):
        self.add_source("src/util/fixture.cpp", ATOMIC_ORDER)
        wrote = self.run_analyze("--write-baseline", "pre-annotation site")
        self.assertEqual(wrote.returncode, 0, wrote.stdout + wrote.stderr)
        honored = self.run_analyze()
        self.assertEqual(honored.returncode, 0, honored.stdout + honored.stderr)
        self.assertIn("1 baselined", honored.stderr)
        # Dropping the explicit ordering makes the entry stale: the gate
        # demands the baseline shrink with the fix.
        (self.repo / "src/util/fixture.cpp").write_text(
            ATOMIC_ORDER.replace(", std::memory_order_relaxed", "")
        )
        stale = self.run_analyze()
        self.assertEqual(stale.returncode, 1)
        self.assertIn("stale baseline", stale.stdout)

    def test_concurrency_rules_are_listed(self):
        proc = self.run_analyze("--list-rules")
        self.assertEqual(proc.returncode, 0)
        for rule in ("parallel-capture", "raw-thread", "atomic-order"):
            self.assertIn(rule, proc.stdout)

    def test_sarif_exact_span_and_help_uri(self):
        self.add_source("src/util/fixture.cpp", ATOMIC_ORDER)
        sarif_path = self.repo / "report.sarif"
        self.run_analyze("--sarif", str(sarif_path))
        report = json.loads(sarif_path.read_text())
        driver = report["runs"][0]["tool"]["driver"]
        by_id = {r["id"]: r for r in driver["rules"]}
        for rule in ("parallel-capture", "raw-thread", "atomic-order"):
            self.assertEqual(
                by_id[rule]["helpUri"], f"docs/STATIC_ANALYSIS.md#{rule}"
            )
        (result,) = report["runs"][0]["results"]
        region = result["locations"][0]["physicalLocation"]["region"]
        # Exact token span: the annotation must cover precisely
        # `memory_order_relaxed`, not a one-column fallback stub.
        self.assertEqual(
            region["endColumn"] - region["startColumn"],
            len("memory_order_relaxed"),
        )


class RawDoubleRule(AnalyzeFixture):
    REL = "src/tech/fixture.hpp"

    def test_physical_double_is_flagged(self):
        self.assert_rule("struct S { double segment_resistance; };\n",
                         rel=self.REL, rule="raw-double", line=1)

    def test_nm_suffix_is_documented_raw(self):
        self.assert_rule("double feature_size_nm;\n", rel=self.REL,
                         rule="raw-double", line=None)

    def test_area_ratio_is_dimensionless(self):
        self.assert_rule("double die_area_ratio;\n", rel=self.REL,
                         rule="raw-double", line=None)

    def test_module_hpp_is_exempt(self):
        self.assert_rule("double read_voltage;\n",
                         rel="src/circuit/module.hpp", rule="raw-double",
                         line=None)

    def test_sources_and_other_trees_are_out_of_scope(self):
        for rel in ("src/tech/fixture.cpp", "src/arch/fixture.hpp"):
            with self.subTest(rel=rel):
                self.assert_rule("double read_voltage;\n", rel=rel,
                                 rule="raw-double", line=None)

    def test_same_line_escape(self):
        self.assert_rule(
            "double vdd_rail;  // mnsim-analyze: allow(raw-double, boundary)\n",
            rel=self.REL, rule="raw-double", line=None)

    def test_previous_line_escape(self):
        self.assert_rule(
            "// mnsim-analyze: allow(raw-double, boundary)\n"
            "double vdd_rail;\n",
            rel=self.REL, rule="raw-double", line=None)


class UnseededRngScope(AnalyzeFixture):
    def test_random_device_in_tests_is_flagged(self):
        self.assert_rule("void f() { std::random_device rd; }\n",
                         rel="tests/test_x.cpp", rule="unseeded-rng", line=1)

    def test_unseeded_engine_in_tests_is_flagged(self):
        self.assert_rule("std::mt19937 rng;\n", rel="tests/test_x.cpp",
                         rule="unseeded-rng", line=1)

    def test_seeded_engine_is_clean(self):
        self.assert_rule("std::mt19937 rng(seed);\n", rel="bench/x.cpp",
                         rule="unseeded-rng", line=None)

    def test_src_util_is_exempt(self):
        self.assert_rule("void f() { std::random_device rd; }\n",
                         rel="src/util/rng.cpp", rule="unseeded-rng",
                         line=None)


CHRONO = "auto t = std::chrono::steady_clock::now();\n"
OFSTREAM = "void f() { std::ofstream out(path); }\n"


class LayeringRules(AnalyzeFixture):
    """raw-chrono, raw-ofstream and thread-include."""

    def test_chrono_flagged_in_library_code(self):
        self.assert_rule(CHRONO, rel="src/dse/fixture.cpp",
                         rule="raw-chrono", line=1)

    def test_chrono_allowed_in_obs_and_tests(self):
        for rel in ("src/obs/trace.cpp", "tests/test_x.cpp"):
            with self.subTest(rel=rel):
                self.assert_rule(CHRONO, rel=rel, rule="raw-chrono",
                                 line=None)

    def test_chrono_in_a_comment_is_not_a_use(self):
        self.assert_rule("// std::chrono would bypass obs\nint x;\n",
                         rel="src/dse/fixture.cpp", rule="raw-chrono",
                         line=None)

    def test_ofstream_flagged_in_src_and_examples(self):
        for rel in ("src/dse/report.cpp", "examples/tool.cpp"):
            with self.subTest(rel=rel):
                self.assert_rule(OFSTREAM, rel=rel, rule="raw-ofstream",
                                 line=1)

    def test_ofstream_escapable_and_exempt_where_documented(self):
        self.assert_rule(
            "// mnsim-analyze: allow(raw-ofstream, failure path)\n" + OFSTREAM,
            rel="src/dse/report.cpp", rule="raw-ofstream", line=None)
        for rel in ("src/util/atomic_file.cpp", "tests/test_x.cpp"):
            with self.subTest(rel=rel):
                self.assert_rule(OFSTREAM, rel=rel, rule="raw-ofstream",
                                 line=None)

    def test_thread_and_future_includes_flagged(self):
        for header in ("thread", "future"):
            with self.subTest(header=header):
                self.add_source("src/dse/fixture.cpp",
                                f"#include <vector>\n#include <{header}>\n")
                proc = self.run_analyze()
                self.assertEqual(proc.returncode, 1, proc.stderr)
                self.assertIn("src/dse/fixture.cpp:2:1: thread-include: "
                              f"<{header}>", proc.stdout)

    def test_thread_include_exempt_in_src_util_and_tests(self):
        for rel in ("src/util/parallel.hpp", "tests/test_x.cpp"):
            with self.subTest(rel=rel):
                self.assert_rule("#include <thread>\n", rel=rel,
                                 rule="thread-include", line=None)

    def test_thread_include_escapes(self):
        self.assert_rule(
            "#include <thread>  // mnsim-analyze: allow(thread-include, "
            "watchdog)\n",
            rel="src/dse/fixture.cpp", rule="thread-include", line=None)
        self.assert_rule(
            "// mnsim-analyze: allow(thread-include, watchdog)\n"
            "#include <thread>\n",
            rel="src/dse/fixture.cpp", rule="thread-include", line=None)


class EscapePlacement(AnalyzeFixture):
    def test_crlf_line_endings_do_not_hide_the_escape(self):
        path = self.repo / "src/dse/fixture.cpp"
        path.parent.mkdir(parents=True)
        path.write_bytes(
            b"// mnsim-analyze: allow(raw-chrono, crlf file)\r\n"
            b"auto t = std::chrono::steady_clock::now();\r\n"
            b"auto u = std::chrono::steady_clock::now();\r\n"
        )
        proc = self.run_analyze()
        self.assertEqual(proc.returncode, 1, proc.stderr)
        # The escape covers line 2; line 3 is still reported, at line 3.
        self.assertNotIn("fixture.cpp:2:", proc.stdout)
        self.assertIn("src/dse/fixture.cpp:3:10: raw-chrono", proc.stdout)

    def test_first_line_escape_covers_the_first_line(self):
        self.assert_rule(
            "auto t = std::chrono::steady_clock::now();  "
            "// mnsim-analyze: allow(raw-chrono, top of file)\n",
            rel="src/dse/fixture.cpp", rule="raw-chrono", line=None)


class UnreferencedApi(AnalyzeFixture):
    HEADER = "src/a/api.hpp"

    def setUp(self):
        super().setUp()
        self.add_source(self.HEADER, "int scale(int x);\n")
        self.add_source("src/a/api.cpp",
                        "int scale(int x) { return 2 * x; }\n")

    def assert_flagged(self, flagged: bool) -> None:
        proc = self.run_analyze()
        if flagged:
            self.assertEqual(proc.returncode, 1, proc.stdout + proc.stderr)
            self.assertIn(f"{self.HEADER}:1:5: unreferenced-api: 'scale'",
                          proc.stdout)
        else:
            self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)

    def test_declaration_without_caller_is_flagged(self):
        self.assert_flagged(True)

    def test_caller_only_in_tests_is_still_flagged(self):
        self.add_source("tests/test_a.cpp",
                        "int check() { return scale(2); }\n")
        self.assert_flagged(True)

    def test_callers_in_bench_examples_and_perfbench_clear_it(self):
        for tree in ("bench", "examples", "perfbench"):
            with self.subTest(tree=tree):
                self.add_source(f"{tree}/use.cpp",
                                "int use() { return scale(3); }\n")
                self.assert_flagged(False)
                (self.repo / tree / "use.cpp").unlink()

    def test_caller_in_its_own_cpp_clears_it(self):
        self.add_source("src/a/api.cpp",
                        "int scale(int x) { return 2 * x; }\n"
                        "int twice(int x) { return scale(scale(x)); }\n")
        self.assert_flagged(False)

    def test_use_after_an_operator_is_a_call_not_a_declaration(self):
        self.add_source("bench/use.cpp",
                        "double use(int x) { return 2.0 * scale(x); }\n")
        self.assert_flagged(False)

    def test_member_functions_are_checked_too(self):
        self.add_source(self.HEADER, "struct M {\n"
                                     "  double scale(double r) const;\n"
                                     "};\n")
        proc = self.run_analyze()
        self.assertIn(f"{self.HEADER}:2:10: unreferenced-api: 'scale'",
                      proc.stdout)
        self.add_source("examples/use.cpp",
                        "double use(const M& m) { return m.scale(1.0); }\n")
        self.assert_flagged(False)

    def test_reasoned_escape_is_honored(self):
        self.add_source(self.HEADER,
                        "// mnsim-analyze: allow(unreferenced-api, fixture: "
                        "paper inventory)\nint scale(int x);\n")
        self.assert_flagged(False)

    def test_escape_without_reason_is_malformed(self):
        self.add_source(self.HEADER,
                        "int scale(int x);  "
                        "// mnsim-analyze: allow(unreferenced-api)\n")
        proc = self.run_analyze()
        self.assertEqual(proc.returncode, 1, proc.stdout + proc.stderr)
        self.assertIn(f"{self.HEADER}:1:1: malformed-escape", proc.stdout)


class FpFlags(AnalyzeFixture):
    def setUp(self):
        super().setUp()
        self.add_source("src/a.cpp", "int f() { return 1; }\n")

    def test_value_changing_flags_are_flagged(self):
        self.add_source("CMakeLists.txt",
                        "project(x)\n"
                        "target_compile_options(x PRIVATE -march=native)\n")
        self.add_source("cmake/flags.cmake",
                        'set(CMAKE_CXX_FLAGS "-O2 -ffast-math")\n'
                        'string(APPEND F " -mfma -ffp-contract=fast")\n')
        proc = self.run_analyze()
        self.assertEqual(proc.returncode, 1, proc.stdout + proc.stderr)
        for site, flag in (("CMakeLists.txt:2:34", "-march=native"),
                           ("cmake/flags.cmake:1:26", "-ffast-math"),
                           ("cmake/flags.cmake:2:19", "-mfma"),
                           ("cmake/flags.cmake:2:25", "-ffp-contract=fast")):
            self.assertIn(f"{site}: fp-flags: '{flag}'", proc.stdout)

    def test_safe_flags_comments_and_build_trees_are_clean(self):
        self.add_source("CMakeLists.txt",
                        "# never -ffast-math or -march=native here\n"
                        "add_compile_options(-O3 -fno-fast-math "
                        "-ffp-contract=off)\n")
        # A configured build tree holds generated CMake files of its own.
        self.add_source("build/CMakeCache.txt", "\n")
        self.add_source("build/CMakeLists.txt", "add_compile_options(-Ofast)\n")
        proc = self.run_analyze()
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)


def obs_names(text: str) -> tuple[set[str], set[str], list]:
    """(span names, metric names, unresolved-name findings) of a snippet."""
    ctx = rules_tokens.make_context("src/fixture.cpp", text,
                                    cpptok.tokenize(text))
    unresolved: list = []
    names = rules_repo.obs_names(ctx, unresolved)
    return ({n for kind, n in names if kind == "span"},
            {n for kind, n in names if kind == "metric"}, unresolved)


class ObsCatalogueExtraction(unittest.TestCase):
    def test_span_literals_named_and_temporary(self):
        spans, _, _ = obs_names(
            'void f() {\n'
            '  obs::Span span("a.outer");\n'
            '  { obs::Span("a.temp"); }\n'
            '  // obs::Span ghost("a.comment");\n'
            '  const char* s = "obs::Span x(\\"a.string\\")";\n'
            '}\n')
        self.assertEqual(spans, {"a.outer", "a.temp"})

    def test_registry_calls_across_lines(self):
        _, metrics, _ = obs_names(
            'void f(long n) {\n'
            '  obs::Registry& reg = obs::Registry::global();\n'
            '  reg.add("a.count", n);\n'
            '  reg.observe(\n'
            '      "a.hist",\n'
            '      1.0);\n'
            '  obs::Registry::global().set("a.gauge", 2.0);\n'
            '  obs::Registry::global().add(\n'
            '      "a.split", static_cast<long>(n) * 2);\n'
            '  spec.add("not a metric", 1);\n'
            '}\n')
        self.assertEqual(metrics, {"a.count", "a.hist", "a.gauge", "a.split"})

    def test_name_through_parameter_is_collected_at_its_literal(self):
        spans, _, _ = obs_names(
            'int run(const Net& net, const char* span, int k) {\n'
            '  obs::Span mc_span(span);\n'
            '  return k;\n'
            '}\n'
            'int one(const Net& n) { return run(n, "a.one", 1); }\n'
            'int two(const Net& n) {\n'
            '  return run(n,\n'
            '             "a.two", 2);\n'
            '}\n')
        self.assertEqual(spans, {"a.one", "a.two"})

    def test_unresolvable_name_is_a_finding(self):
        _, _, unresolved = obs_names('void f() { obs::Span s(kName); }\n')
        (finding,) = unresolved
        self.assertEqual(finding.render(),
                         "src/fixture.cpp:1:24: obs-catalogue: span 'kName' "
                         "is not a parameter of the enclosing function")


class ObsCatalogueDrift(AnalyzeFixture):
    DOC = (
        "# Observability\n"
        "## Span taxonomy\n"
        "| Span | Opened in | Covers |\n"
        "|---|---|---|\n"
        "| `a.run` / `a.step` | `a.cpp` | a run / a step |\n"
        "## Metric conventions\n"
        "| Metric | Kind | Published by | Meaning |\n"
        "|---|---|---|---|\n"
        "| `a.count` | counter | `a.cpp` | things |\n"
        "## Architecture\n"
        "| `a.elsewhere` | not a catalogue row |\n"
    )

    def drift(self, source: str) -> subprocess.CompletedProcess:
        (self.repo / "docs" / "OBSERVABILITY.md").write_text(self.DOC)
        self.add_source("src/a.cpp", source)
        return self.run_analyze()

    def test_in_sync(self):
        proc = self.drift(
            'void f() {\n'
            '  obs::Span run("a.run");\n'
            '  obs::Span step("a.step");\n'
            '  obs::Registry::global().add("a.count");\n'
            '}\n')
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)

    def test_missing_and_orphaned_names(self):
        proc = self.drift(
            'void f() {\n'
            '  obs::Span run("a.run");\n'
            '  obs::Span extra("a.extra");\n'
            '  obs::Registry::global().add("a.other");\n'
            '}\n')
        self.assertEqual(proc.returncode, 1, proc.stdout + proc.stderr)
        self.assertEqual(proc.stdout.splitlines(), [
            "docs/OBSERVABILITY.md:5:1: obs-catalogue: span 'a.step' has no "
            "producer in src/",
            "docs/OBSERVABILITY.md:9:1: obs-catalogue: metric 'a.count' has "
            "no producer in src/",
            "src/a.cpp:3:19: obs-catalogue: span 'a.extra' is missing from "
            "docs/OBSERVABILITY.md (Span taxonomy)",
            "src/a.cpp:4:31: obs-catalogue: metric 'a.other' is missing from "
            "docs/OBSERVABILITY.md (Metric conventions)",
        ])

    def test_undocumented_name_escape_is_honored(self):
        proc = self.drift(
            'void f() {\n'
            '  obs::Span run("a.run");\n'
            '  obs::Span step("a.step");\n'
            '  // mnsim-analyze: allow(obs-catalogue, fixture: internal span)\n'
            '  obs::Span extra("a.extra");\n'
            '  obs::Registry::global().add("a.count");\n'
            '}\n')
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)


class RepoChecks(unittest.TestCase):
    def test_repo_tree_is_clean_without_a_build(self):
        # Run from an empty directory: the analyzer reads sources only,
        # never a build tree or compile database.
        expected = sum(
            1 for tree in ("src", "tests", "bench", "examples")
            for ext in ("*.cpp", "*.hpp") for _ in (REPO / tree).rglob(ext))
        with tempfile.TemporaryDirectory() as cwd:
            proc = subprocess.run(
                [sys.executable, str(ANALYZE)],
                capture_output=True, text=True, cwd=cwd,
            )
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        self.assertIn(f"; {expected} files analyzed", proc.stderr)

    def test_observability_doc_matches_src(self):
        contexts = {}
        for path in sorted((REPO / "src").rglob("*.[ch]pp")):
            rel = path.relative_to(REPO).as_posix()
            text = path.read_text()
            contexts[rel] = rules_tokens.make_context(
                rel, text, cpptok.tokenize(text))
        self.assertEqual(rules_repo.obs_catalogue_findings(contexts, REPO),
                         [])

    def test_every_rule_has_a_catalogue_heading(self):
        # The headings are the SARIF helpUri anchors.
        doc = (REPO / "docs" / "STATIC_ANALYSIS.md").read_text()
        headings = set(re.findall(r"^#### `([\w-]+)`$", doc, re.MULTILINE))
        self.assertEqual(headings, set(rules_tokens.RULE_DOCS))


if __name__ == "__main__":
    unittest.main(verbosity=2)
