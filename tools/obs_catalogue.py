#!/usr/bin/env python3
"""Span and metric catalogue drift check for docs/OBSERVABILITY.md.

Collects, from the C++ sources under src/, every obs::Span name and every
obs::Registry add / set / observe name, and compares them with the names
the doc lists: the first column of the "Span taxonomy" table and of the
"Metric conventions" producer table. The sources are read through the
exact tokenizer of tools/analyze (cpptok), so a call split across lines
counts and a name inside a comment does not.

A name passed in through a parameter, as in

    MonteCarloResult monte_carlo(..., const char* span, ...) {
      obs::Span mc_span(span);

is collected at its literal: the argument at that parameter's position in
every call of the enclosing function in the same file.

Usage: python3 tools/obs_catalogue.py [--repo <root>]
Exit status: 0 in sync, 1 drift (each missing or orphaned name printed).
"""

from __future__ import annotations

import argparse
import pathlib
import re
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent / "analyze"))
import cpptok  # noqa: E402

SPAN_TYPES = {"Span", "ScopedTimer"}
REGISTRY_METHODS = {"add", "set", "observe"}
DOC = "docs/OBSERVABILITY.md"
SPAN_SECTION = "## Span taxonomy"
METRIC_SECTION = "## Metric conventions"


class ExtractError(ValueError):
    """A name argument that is neither a literal nor a resolvable parameter."""


def _args(tokens: list[cpptok.Token], open_idx: int) -> list[list[cpptok.Token]]:
    """Top-level arguments of the call whose '(' is tokens[open_idx]."""
    close = cpptok.match_forward(tokens, open_idx, "(", ")")
    args: list[list[cpptok.Token]] = [[]]
    depth = 0
    for t in tokens[open_idx + 1:close]:
        if t.kind == "punct" and t.text in "([{":
            depth += 1
        elif t.kind == "punct" and t.text in ")]}":
            depth -= 1
        if depth == 0 and t.kind == "punct" and t.text == ",":
            args.append([])
        else:
            args[-1].append(t)
    return args if args != [[]] else []


def _literal(arg: list[cpptok.Token]) -> str | None:
    """The value of an argument made only of plain string literals."""
    if not arg or any(t.kind != "str" or not t.text.startswith('"')
                      for t in arg):
        return None
    return "".join(t.text[1:-1] for t in arg)


def _enclosing_parameter(tokens: list[cpptok.Token], site: int,
                         name: str) -> tuple[str, int] | None:
    """(function, parameter index) of the definition around `site` that
    declares parameter `name`."""
    for i in range(site - 1, 0, -1):
        t = tokens[i]
        if t.kind != "punct" or t.text != "(" or tokens[i - 1].kind != "id":
            continue
        try:
            close = cpptok.match_forward(tokens, i, "(", ")")
        except IndexError:
            continue
        body = close + 1
        while body < len(tokens) and tokens[body].text in {
                "const", "noexcept", "override"}:
            body += 1
        if body >= site or tokens[body].text != "{":
            continue
        if cpptok.match_forward(tokens, body, "{", "}") < site:
            continue
        for index, param in enumerate(_args(tokens, i)):
            ids = [p.text for p in param if p.kind == "id"]
            if ids and ids[-1] == name:
                return tokens[i - 1].text, index
    return None


def _resolve(tokens: list[cpptok.Token], site: int,
             arg: list[cpptok.Token], where: str) -> list[str]:
    literal = _literal(arg)
    if literal is not None:
        return [literal]
    if len(arg) != 1 or arg[0].kind != "id":
        raise ExtractError(f"{where}: name is not a literal or a parameter")
    found = _enclosing_parameter(tokens, site, arg[0].text)
    if found is None:
        raise ExtractError(f"{where}: '{arg[0].text}' is not a parameter of "
                           "the enclosing function")
    function, index = found
    names = []
    for i in range(len(tokens) - 1):
        if (tokens[i].kind == "id" and tokens[i].text == function and
                tokens[i + 1].text == "("):
            call_args = _args(tokens, i + 1)
            if index < len(call_args):
                value = _literal(call_args[index])
                if value is not None:
                    names.append(value)
    if not names:
        raise ExtractError(f"{where}: no call of {function}() passes a "
                           f"literal for '{arg[0].text}'")
    return names


def extract(text: str, where: str) -> tuple[set[str], set[str]]:
    """(span names, registry metric names) produced by one source file."""
    tokens = cpptok.tokenize(text)
    spans: set[str] = set()
    metrics: set[str] = set()
    # Receivers bound to a registry: `obs::Registry& reg = ...`.
    registries = {tokens[i + 2].text for i in range(len(tokens) - 2)
                  if tokens[i].text == "Registry" and
                  tokens[i + 1].text == "&" and tokens[i + 2].kind == "id"}
    for i, t in enumerate(tokens):
        if t.kind != "id":
            continue
        loc = f"{where}:{t.line}"
        if t.text in SPAN_TYPES:
            # obs::Span name(...) / obs::Span(...); the declaration inside
            # obs/ never passes a single-token argument.
            j = i + 1
            if j < len(tokens) and tokens[j].kind == "id":
                j += 1
            if j >= len(tokens) or tokens[j].text != "(":
                continue
            args = _args(tokens, j)
            if len(args) == 1 and len(args[0]) == 1:
                spans.update(_resolve(tokens, j, args[0], loc))
        elif (t.text in REGISTRY_METHODS and i >= 2 and
              tokens[i - 1].text == "." and i + 1 < len(tokens) and
              tokens[i + 1].text == "("):
            receiver = tokens[i - 2]
            via_global = (receiver.text == ")" and i >= 4 and
                          tokens[i - 4].text == "global")
            if receiver.text in registries or via_global:
                args = _args(tokens, i + 1)
                if args:
                    metrics.update(_resolve(tokens, i + 1, args[0], loc))
    return spans, metrics


def collect(src: pathlib.Path) -> tuple[dict[str, str], dict[str, str]]:
    """name -> first producing file, for spans and for metrics."""
    spans: dict[str, str] = {}
    metrics: dict[str, str] = {}
    for path in sorted(src.rglob("*")):
        if path.suffix not in {".cpp", ".hpp", ".h", ".cc"}:
            continue
        rel = path.relative_to(src.parent).as_posix()
        s, m = extract(path.read_text(), rel)
        for name in s:
            spans.setdefault(name, rel)
        for name in m:
            metrics.setdefault(name, rel)
    return spans, metrics


def documented(text: str, heading: str) -> set[str]:
    """Backticked names in the first column of the tables of a section."""
    names: set[str] = set()
    inside = False
    for line in text.splitlines():
        if line.startswith("## "):
            inside = line.strip() == heading
            continue
        if inside and line.startswith("|"):
            first = line.split("|")[1]
            names.update(re.findall(r"`([^`]+)`", first))
    return names


def drift(repo: pathlib.Path) -> list[str]:
    spans, metrics = collect(repo / "src")
    doc = (repo / DOC).read_text()
    problems = []
    for kind, produced, heading in (("span", spans, SPAN_SECTION),
                                    ("metric", metrics, METRIC_SECTION)):
        listed = documented(doc, heading)
        for name in sorted(set(produced) - listed):
            problems.append(f"{produced[name]}: {kind} '{name}' is missing "
                            f"from {DOC} ({heading[3:]})")
        for name in sorted(listed - set(produced)):
            problems.append(f"{DOC}: {kind} '{name}' has no producer in src/")
    return problems


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repo", type=pathlib.Path,
                        default=pathlib.Path(__file__).resolve().parents[1])
    args = parser.parse_args(argv)
    try:
        problems = drift(args.repo)
    except (ExtractError, cpptok.LexError) as err:
        print(f"obs_catalogue: {err}", file=sys.stderr)
        return 1
    for p in problems:
        print(p)
    if problems:
        return 1
    print(f"{DOC}: span and metric catalogue in sync")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
