#!/usr/bin/env python3
"""mnsim-analyze: the repo's static checker for MNSIM's C++ sources.

Run as `python3 tools/analyze` from the repo root (or anywhere, with
--repo). It lexes every .cpp/.hpp under src/, tests/, bench/ and
examples/ with an exact C++ tokenizer (tools/analyze/cpptok.py) and runs
sixteen rules, each with its own scope: numeric hygiene, source
layering, the concurrency discipline (parallel-capture / raw-thread /
atomic-order) that complements the Clang -Wthread-safety capability
annotations, and four repo-level rules: the MN-* and span/metric
catalogues held to their docs, header functions that nothing outside
tests/ calls (perfbench/ is read for callers only), and compile flags in
the CMake files that change floating-point results. It
needs no build, no compile database and nothing beyond the Python
standard library. See docs/STATIC_ANALYSIS.md for the catalogue and the
escape/baseline workflow.

Exit status: 0 clean (baselined findings allowed), 1 new findings or a
stale baseline, 2 usage/environment error.
"""

from __future__ import annotations

import argparse
import pathlib
import sys

import cpptok
import engine
import rules_repo
import rules_tokens
import sarif

VERSION = "1.0"
TREES = ("src", "tests", "bench", "examples")
# Read for unreferenced-api's callers only; no rule checks these files.
REFERENCE_TREES = ("perfbench",)


def source_files(repo: pathlib.Path,
                 trees: tuple[str, ...]) -> list[pathlib.Path]:
    return sorted(path for tree in trees for ext in ("*.cpp", "*.hpp")
                  for path in (repo / tree).rglob(ext))


def build_contexts(files: list[pathlib.Path], repo: pathlib.Path,
                   errors: list[str]) -> dict[str, rules_tokens.FileContext]:
    contexts: dict[str, rules_tokens.FileContext] = {}
    for path in files:
        rel = path.relative_to(repo).as_posix()
        text = path.read_text()
        try:
            tokens = cpptok.tokenize(text)
        except cpptok.LexError as err:
            errors.append(f"{rel}: {err}")
            continue
        contexts[rel] = rules_tokens.make_context(rel, text, tokens)
    return contexts


def run(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="mnsim-analyze",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--repo", default=None,
                        help="repo root (default: two levels above this "
                             "script)")
    parser.add_argument("--baseline", default="tools/analyze/baseline.json",
                        help="repo-relative baseline file")
    parser.add_argument("--write-baseline", metavar="REASON", default=None,
                        help="accept all current findings into the "
                             "baseline with this reason, then exit 0")
    parser.add_argument("--sarif", default=None,
                        help="write a SARIF 2.1.0 report to this path")
    parser.add_argument("--list-rules", action="store_true")
    parser.add_argument("--version", action="version",
                        version=f"mnsim-analyze {VERSION}")
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule, doc in sorted(rules_tokens.RULE_DOCS.items()):
            print(f"{rule}: {doc}")
        return 0

    repo = (pathlib.Path(args.repo).resolve() if args.repo
            else pathlib.Path(__file__).resolve().parent.parent.parent)

    lex_errors: list[str] = []
    contexts = build_contexts(source_files(repo, TREES), repo, lex_errors)
    references = build_contexts(source_files(repo, REFERENCE_TREES), repo,
                                lex_errors)
    if lex_errors:
        for err in lex_errors:
            print(f"mnsim-analyze: cannot lex {err}", file=sys.stderr)
        return 2
    if not contexts:
        print(f"mnsim-analyze: no .cpp/.hpp files under "
              f"{', '.join(TREES)} in {repo}", file=sys.stderr)
        return 2

    findings: list[engine.Finding] = []
    for rel, ctx in contexts.items():
        for rule, check in rules_tokens.PER_FILE_CHECKS.items():
            if rules_tokens.rule_applies(rule, rel):
                findings.extend(check(ctx))
    findings.extend(rules_repo.repo_findings(contexts, references, repo))

    # Escapes: filter rule findings, surface malformed escapes.
    escapes = {rel: engine.EscapeIndex(ctx.text, rules_tokens.RULE_DOCS)
               for rel, ctx in contexts.items()}
    filtered: list[engine.Finding] = []
    for rel, idx in escapes.items():
        filtered.extend(idx.escape_findings(rel, contexts[rel].text))
    filtered.extend(f for f in findings
                    if f.path not in escapes
                    or not escapes[f.path].allows(f.rule, f.line))
    findings = filtered

    baseline_path = repo / args.baseline
    if args.write_baseline is not None:
        reason = args.write_baseline.strip()
        if not reason:
            print("mnsim-analyze: --write-baseline needs a non-empty "
                  "reason", file=sys.stderr)
            return 2
        engine.write_baseline(baseline_path,
                              engine.assign_fingerprints(findings), reason)
        print(f"mnsim-analyze: baselined {len(findings)} finding(s) to "
              f"{baseline_path}")
        return 0

    try:
        baseline = engine.load_baseline(baseline_path)
    except engine.BaselineError as err:
        print(f"mnsim-analyze: {err}", file=sys.stderr)
        return 2

    result = engine.classify(findings, baseline)
    result.files_analyzed = len(contexts)

    for f in result.new:
        print(f.render())
    for fp in result.stale_baseline:
        print(f"{args.baseline}: stale baseline entry {fp}: the finding "
              f"it excuses no longer exists; regenerate the baseline "
              f"(--write-baseline) so it keeps describing reality")

    status = "FAIL" if result.gate_failed else "ok"
    print(f"mnsim-analyze: {status} — {len(result.new)} new finding(s), "
          f"{len(result.baselined)} baselined, "
          f"{len(result.stale_baseline)} stale baseline entr(ies); "
          f"{result.files_analyzed} files analyzed", file=sys.stderr)

    if args.sarif:
        pathlib.Path(args.sarif).write_text(sarif.render(
            result.new + result.baselined, tool_version=VERSION))

    return 1 if result.gate_failed else 0


if __name__ == "__main__":
    sys.exit(run(sys.argv[1:]))
