#!/usr/bin/env python3
"""Unit tests for tools/obs_catalogue.py (ctest: test_tools_obs_catalogue).

The extraction cases run on inline C++ snippets; the last case runs the
check over this repository, so a span or metric added, renamed or
removed in src/ without the matching docs/OBSERVABILITY.md row fails.
"""
from __future__ import annotations

import pathlib
import sys
import tempfile
import unittest

REPO = pathlib.Path(__file__).resolve().parents[2]
sys.path.insert(0, str(REPO / "tools"))
import obs_catalogue  # noqa: E402


def extract(text: str) -> tuple[set[str], set[str]]:
    return obs_catalogue.extract(text, "fixture.cpp")


class Extraction(unittest.TestCase):
    def test_span_literals_named_and_temporary(self):
        spans, _ = extract(
            'void f() {\n'
            '  obs::Span span("a.outer");\n'
            '  { obs::Span("a.temp"); }\n'
            '  // obs::Span ghost("a.comment");\n'
            '  const char* s = "obs::Span x(\\"a.string\\")";\n'
            '}\n')
        self.assertEqual(spans, {"a.outer", "a.temp"})

    def test_registry_calls_across_lines(self):
        _, metrics = extract(
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
        spans, _ = extract(
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

    def test_unresolvable_name_is_an_error(self):
        with self.assertRaises(obs_catalogue.ExtractError):
            extract('void f() { obs::Span s(kName); }\n')


class Drift(unittest.TestCase):
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

    def drift(self, source: str) -> list[str]:
        with tempfile.TemporaryDirectory() as tmp:
            repo = pathlib.Path(tmp)
            (repo / "src").mkdir()
            (repo / "docs").mkdir()
            (repo / "src" / "a.cpp").write_text(source)
            (repo / "docs" / "OBSERVABILITY.md").write_text(self.DOC)
            return obs_catalogue.drift(repo)

    def test_in_sync(self):
        self.assertEqual(self.drift(
            'void f() {\n'
            '  obs::Span run("a.run");\n'
            '  obs::Span step("a.step");\n'
            '  obs::Registry::global().add("a.count");\n'
            '}\n'), [])

    def test_missing_and_orphaned_names(self):
        problems = self.drift(
            'void f() {\n'
            '  obs::Span run("a.run");\n'
            '  obs::Span extra("a.extra");\n'
            '  obs::Registry::global().add("a.other");\n'
            '}\n')
        text = "\n".join(problems)
        self.assertIn("span 'a.extra' is missing", text)
        self.assertIn("span 'a.step' has no producer", text)
        self.assertIn("metric 'a.other' is missing", text)
        self.assertIn("metric 'a.count' has no producer", text)
        self.assertEqual(len(problems), 4)


class Repository(unittest.TestCase):
    def test_observability_doc_matches_src(self):
        self.assertEqual(obs_catalogue.drift(REPO), [])


if __name__ == "__main__":
    unittest.main()
