"""mnsim-analyze repo-level rules: each one reads the whole tree at once.

  mn-code-extraction  MN-* codes in src/ string literals vs DIAGNOSTICS.md
  obs-catalogue       obs::Span / obs::Registry names vs OBSERVABILITY.md
  unreferenced-api    a src/ header function nothing outside tests/ names
  fp-flags            a CMake file that turns on value-changing FP codegen

The two catalogue rules share `doc_sync`: names produced in src/ against
names listed in a doc, both directions, reported as ordinary findings
(file:line, escapes and baseline as for every other rule).
"""

from __future__ import annotations

import collections
import os
import pathlib
import re
from collections.abc import Callable

from cpptok import Token, match_forward
from engine import Finding
from rules_tokens import FileContext, rule_applies

Site = tuple[str, int, int]  # (repo-relative path, line, col)


def doc_sync(rule: str, contexts: dict[str, FileContext],
             extract: Callable[[FileContext], dict],
             doc: str, listed: dict, missing: Callable[[object], str],
             orphan: Callable[[object], str]) -> list[Finding]:
    """Names `extract` finds in the files `rule` applies to, against the
    names `listed` (name -> line of `doc`): a produced name the doc lacks
    is a finding at its first producing site, a listed name nothing
    produces is a finding at its doc line."""
    produced: dict[object, Site] = {}
    for rel in sorted(contexts):
        if rule_applies(rule, rel):
            for name, (line, col) in extract(contexts[rel]).items():
                produced.setdefault(name, (rel, line, col))
    findings = [
        Finding(rule=rule, path=rel, line=line, col=col,
                message=missing(name),
                line_text=contexts[rel].line_text(line))
        for name, (rel, line, col) in sorted(produced.items())
        if name not in listed
    ]
    findings.extend(
        Finding(rule=rule, path=doc, line=line, col=1, message=orphan(name))
        for name, line in sorted(listed.items()) if name not in produced)
    return findings


def _read(path: pathlib.Path) -> str:
    return path.read_text() if path.is_file() else ""


# ---- rule: mn-code-extraction ------------------------------------------------

DIAG_CATALOGUE = "docs/DIAGNOSTICS.md"
MN_CODE = re.compile(r"\bMN-[A-Z]{2,4}-\d{3}\b")


def extract_mn_codes(ctx: FileContext) -> dict[str, tuple[int, int]]:
    """code -> (line, col) of its first string-literal occurrence. Only
    string literals count: a code named in a comment is no emission."""
    out: dict[str, tuple[int, int]] = {}
    for t in ctx.tokens:
        if t.kind == "str":
            for code in MN_CODE.findall(t.text):
                out.setdefault(code, (t.line, t.col))
    return out


def mn_code_findings(contexts: dict[str, FileContext],
                     repo: pathlib.Path) -> list[Finding]:
    listed: dict[str, int] = {}
    text = _read(repo / DIAG_CATALOGUE)
    for lineno, line in enumerate(text.splitlines(), 1):
        for code in MN_CODE.findall(line):
            listed.setdefault(code, lineno)
    return doc_sync(
        "mn-code-extraction", contexts, extract_mn_codes, DIAG_CATALOGUE,
        listed,
        missing=lambda code: (
            f"'{code}' is emitted from a string literal but not "
            f"catalogued in {DIAG_CATALOGUE}; document the trigger and "
            f"remedy"),
        orphan=lambda code: (
            f"'{code}' is catalogued but no string literal in src/ "
            f"constructs it; remove the stale entry (codes are never "
            f"reused)"))


# ---- rule: obs-catalogue -----------------------------------------------------

OBS_DOC = "docs/OBSERVABILITY.md"
# (kind, section heading whose table's first column lists that kind)
OBS_SECTIONS = (("span", "## Span taxonomy"),
                ("metric", "## Metric conventions"))
_SPAN_TYPES = frozenset({"Span", "ScopedTimer"})
_REGISTRY_METHODS = frozenset({"add", "set", "observe"})


def _args(tokens: list[Token], open_idx: int) -> list[list[Token]]:
    """Top-level arguments of the call whose '(' is tokens[open_idx]."""
    close = match_forward(tokens, open_idx, "(", ")")
    args: list[list[Token]] = [[]]
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


def _literal(arg: list[Token]) -> str | None:
    """The value of an argument made only of plain string literals."""
    if not arg or any(t.kind != "str" or not t.text.startswith('"')
                      for t in arg):
        return None
    return "".join(t.text[1:-1] for t in arg)


def _enclosing_parameter(tokens: list[Token], site: int,
                         name: str) -> tuple[str, int] | None:
    """(function, parameter index) of the definition around `site` that
    declares parameter `name`."""
    for i in range(site - 1, 0, -1):
        if tokens[i].text != "(" or tokens[i - 1].kind != "id":
            continue
        try:
            close = match_forward(tokens, i, "(", ")")
        except IndexError:
            continue
        body = close + 1
        while body < len(tokens) and tokens[body].text in {
                "const", "noexcept", "override"}:
            body += 1
        if body >= site or tokens[body].text != "{":
            continue
        if match_forward(tokens, body, "{", "}") < site:
            continue
        for index, param in enumerate(_args(tokens, i)):
            ids = [p.text for p in param if p.kind == "id"]
            if ids and ids[-1] == name:
                return tokens[i - 1].text, index
    return None


def _resolve(tokens: list[Token], site: int,
             arg: list[Token]) -> list[tuple[str, Token]] | str:
    """(name, literal token) pairs an argument stands for, or why it
    cannot be resolved. A parameter resolves to the literal at its
    position in every call of the enclosing function in the file."""
    literal = _literal(arg)
    if literal is not None:
        return [(literal, arg[0])]
    if len(arg) != 1 or arg[0].kind != "id":
        return "name is not a literal or a parameter"
    found = _enclosing_parameter(tokens, site, arg[0].text)
    if found is None:
        return (f"'{arg[0].text}' is not a parameter of the enclosing "
                f"function")
    function, index = found
    names = []
    for i in range(len(tokens) - 1):
        if tokens[i].text == function and tokens[i + 1].text == "(":
            call_args = _args(tokens, i + 1)
            if index < len(call_args):
                value = _literal(call_args[index])
                if value is not None:
                    names.append((value, call_args[index][0]))
    return names or (f"'{arg[0].text}' gets no literal from any call of "
                     f"{function}()")


def obs_names(ctx: FileContext, unresolved: list[Finding] | None = None
              ) -> dict[tuple[str, str], tuple[int, int]]:
    """(kind, name) -> (line, col) of each span and registry metric name
    the file produces. A name argument that cannot be resolved to a
    literal is appended to `unresolved` as a finding."""
    tokens = ctx.tokens
    out: dict[tuple[str, str], tuple[int, int]] = {}
    # Receivers bound to a registry: `obs::Registry& reg = ...`.
    registries = {tokens[i + 2].text for i in range(len(tokens) - 2)
                  if tokens[i].text == "Registry" and
                  tokens[i + 1].text == "&" and tokens[i + 2].kind == "id"}

    def collect(kind: str, site: int, arg: list[Token]) -> None:
        resolved = _resolve(tokens, site, arg)
        if isinstance(resolved, str):
            if unresolved is not None:
                t = arg[0]
                unresolved.append(Finding(
                    rule="obs-catalogue", path=ctx.relpath, line=t.line,
                    col=t.col, message=f"{kind} {resolved}",
                    line_text=ctx.line_text(t.line)))
            return
        for name, tok in resolved:
            out.setdefault((kind, name), (tok.line, tok.col))

    for i, t in enumerate(tokens):
        if t.kind != "id":
            continue
        if t.text in _SPAN_TYPES:
            # obs::Span name(...) / obs::Span(...); the declaration inside
            # obs/ never passes a single-token argument.
            j = i + 1
            if j < len(tokens) and tokens[j].kind == "id":
                j += 1
            if j >= len(tokens) or tokens[j].text != "(":
                continue
            args = _args(tokens, j)
            if len(args) == 1 and len(args[0]) == 1:
                collect("span", j, args[0])
        elif (t.text in _REGISTRY_METHODS and i >= 2 and
              tokens[i - 1].text == "." and i + 1 < len(tokens) and
              tokens[i + 1].text == "("):
            receiver = tokens[i - 2]
            via_global = (receiver.text == ")" and i >= 4 and
                          tokens[i - 4].text == "global")
            if receiver.text in registries or via_global:
                args = _args(tokens, i + 1)
                if args:
                    collect("metric", i + 1, args[0])
    return out


def table_names(text: str, heading: str) -> dict[str, int]:
    """Backticked names in the first column of the tables of a section,
    each with its line."""
    names: dict[str, int] = {}
    inside = False
    for lineno, line in enumerate(text.splitlines(), 1):
        if line.startswith("## "):
            inside = line.strip() == heading
        elif inside and line.startswith("|"):
            for name in re.findall(r"`([^`]+)`", line.split("|")[1]):
                names.setdefault(name, lineno)
    return names


def obs_catalogue_findings(contexts: dict[str, FileContext],
                           repo: pathlib.Path) -> list[Finding]:
    text = _read(repo / OBS_DOC)
    listed = {(kind, name): line for kind, heading in OBS_SECTIONS
              for name, line in table_names(text, heading).items()}
    sections = dict(OBS_SECTIONS)
    unresolved: list[Finding] = []
    drift = doc_sync(
        "obs-catalogue", contexts, lambda ctx: obs_names(ctx, unresolved),
        OBS_DOC, listed,
        missing=lambda key: (
            f"{key[0]} '{key[1]}' is missing from {OBS_DOC} "
            f"({sections[key[0]][3:]})"),
        orphan=lambda key: f"{key[0]} '{key[1]}' has no producer in src/")
    return unresolved + drift


# ---- rule: unreferenced-api --------------------------------------------------

# Names that are never a declared function, and tokens that cannot end
# the return type in front of one.
_NOT_FUNCTIONS = frozenset({
    "alignas", "alignof", "catch", "decltype", "explicit", "for", "if",
    "noexcept", "operator", "requires", "return", "sizeof", "static_assert",
    "switch", "throw", "typeid", "while",
})
_NOT_TYPES = frozenset({
    "case", "co_return", "co_yield", "delete", "do", "else", "explicit",
    "goto", "new", "operator", "return", "throw", "typename",
})
_TYPE_END_PUNCT = frozenset({"*", "&", "&&", ">", "::"})
_PARAM_PUNCT = frozenset({"::", "*", "&", "&&", "..."})
_QUALIFIERS = frozenset({"const", "volatile", "override", "final", "&",
                         "&&", "noexcept", "throw"})
_MACRO = re.compile(r"^[A-Z][A-Z0-9_]*$")
_OPEN = {"(": ")", "[": "]", "{": "}", "<": ">"}


def _skip(tokens: list[Token], i: int) -> int:
    """Index just past the bracket group opened at tokens[i]."""
    return match_forward(tokens, i, tokens[i].text, _OPEN[tokens[i].text]) + 1


def _opens_scope(tokens: list[Token], i: int) -> bool:
    """True if the `{` at tokens[i] opens a namespace or class body."""
    scope = False
    for j in range(i - 1, -1, -1):
        t = tokens[j]
        if t.text in (";", "{", "}"):
            break
        if t.text in ("(", "=", "enum"):
            return False
        scope = scope or t.text in ("namespace", "class", "struct", "union")
    return scope


def _looks_like_parameters(tokens: list[Token]) -> bool:
    """A parameter list, not constructor arguments: at bracket depth 0,
    before any default-argument `=`, only names and declarator
    punctuation appear."""
    depth = 0
    defaulted = False
    for t in tokens:
        if t.text in _OPEN:
            depth += 1
        elif t.text in (")", "]", "}", ">"):
            depth -= 1
        elif t.text == ">>":
            depth -= 2
        elif depth == 0 and t.text == ",":
            defaulted = False
        elif depth == 0 and t.text == "=":
            defaulted = True
        elif depth == 0 and not defaulted and not (
                t.kind == "id" or t.text in _PARAM_PUNCT):
            return False
    return True


def _is_declarator(tokens: list[Token], i: int) -> bool:
    """tokens[i] names the function a namespace- or class-scope
    declaration or definition declares: `<type> name(<params>) ...` then
    `;`, `{`, `=` (`= 0`, `= default`) or `->`."""
    t = tokens[i]
    if (t.kind != "id" or t.text in _NOT_FUNCTIONS or _MACRO.match(t.text)
            or i == 0 or i + 1 >= len(tokens) or tokens[i + 1].text != "("):
        return False
    prev = tokens[i - 1]
    if not ((prev.kind == "id" and prev.text not in _NOT_TYPES)
            or prev.text in _TYPE_END_PUNCT):
        return False
    close = match_forward(tokens, i + 1, "(", ")")
    if not _looks_like_parameters(tokens[i + 2:close]):
        return False
    j = close + 1
    while j < len(tokens) and (tokens[j].text in _QUALIFIERS
                               or _MACRO.match(tokens[j].text)):
        j = _skip(tokens, j + 1) if (j + 1 < len(tokens)
                                     and tokens[j + 1].text == "(") else j + 1
    return j < len(tokens) and tokens[j].text in (";", "{", "=", "->")


def declarators(tokens: list[Token]) -> list[int]:
    """Token indices of the function names declared or defined at
    namespace or class scope. Function bodies, initializers and other
    bracketed code are skipped: what is in them are uses. Unbalanced
    input ends the walk early, which only loses declarators."""
    out: list[int] = []
    i = 0
    try:
        while i < len(tokens):
            t = tokens[i]
            opens_body = t.text == "{" and not _opens_scope(tokens, i)
            if t.text == "(" or opens_body:
                i = _skip(tokens, i)
            elif t.text == "=":
                # An initializer runs to the `;` or to the closing brace
                # of an enumerator list.
                while i < len(tokens) and tokens[i].text not in (";", "}"):
                    i = (_skip(tokens, i) if tokens[i].text in ("(", "{", "[")
                         else i + 1)
            elif _is_declarator(tokens, i):
                out.append(i)
                i = _skip(tokens, i + 1)
            else:
                i += 1
    except IndexError:
        pass
    return out


_DEFINE = re.compile(r"^\s*#\s*define\b(?:.*\\\n)*.*", re.MULTILINE)
_IDENT = re.compile(r"[A-Za-z_]\w*")


def unreferenced_api_findings(contexts: dict[str, FileContext],
                              references: dict[str, FileContext]
                              ) -> list[Finding]:
    """Functions declared in src/ headers whose name no token outside
    tests/ uses, other than as the name of a declaration or definition.

    Names are matched bare, so a use of a same-named function, member or
    variable anywhere counts: a collision can hide a finding but never
    make one. `references` are further trees (perfbench/) read only for
    uses; macro bodies count as uses too, since the token stream drops
    preprocessor lines."""
    uses: collections.Counter[str] = collections.Counter()
    declared: dict[str, list[int]] = {}
    for rel, ctx in (*contexts.items(), *references.items()):
        if rel.startswith("tests/"):
            continue
        declared[rel] = declarators(ctx.tokens)
        skip = set(declared[rel])
        uses.update(t.text for k, t in enumerate(ctx.tokens)
                    if t.kind == "id" and k not in skip)
        for define in _DEFINE.findall(ctx.text):
            uses.update(_IDENT.findall(define))
    findings: list[Finding] = []
    for rel in sorted(contexts):
        if not (rule_applies("unreferenced-api", rel)
                and rel.endswith(".hpp")):
            continue
        ctx = contexts[rel]
        for k in declared[rel]:
            t = ctx.tokens[k]
            if uses[t.text]:
                continue
            findings.append(Finding(
                rule="unreferenced-api", path=rel, line=t.line, col=t.col,
                message=(
                    f"'{t.text}' is declared here but nothing outside "
                    f"tests/ calls it; delete it with its tests, or "
                    f"escape it with the reason it stays (paper "
                    f"inventory, a named coming caller, or a test oracle)"),
                line_text=ctx.line_text(t.line),
                end_col=t.col + len(t.text)))
    return findings


# ---- rule: fp-flags -----------------------------------------------------------

# Compiler flags that let the compiler change the floats a build computes:
# reassociation (-ffast-math, -Ofast), fused multiply-add contraction
# (-ffp-contract=fast, -mfma*) and host-dependent code generation
# (-march, -mtune). The bit-identity contracts (golden tests, the
# benchmark references, the lockstep chain kernels' equality with a
# sequential sweep) assume ISO evaluation with no contraction.
FP_FLAG = re.compile(
    r"(?<![\w-])(-ffast-math|-Ofast|-ffp-contract=fast|-mfma\w*"
    r"|-march\b[=\w.+-]*|-mtune\b[=\w.+-]*)")


def cmake_files(repo: pathlib.Path) -> list[pathlib.Path]:
    """Every CMakeLists.txt and *.cmake of the checkout, skipping hidden
    directories and build trees (a directory holding CMakeCache.txt)."""
    found: list[pathlib.Path] = []
    for dirpath, dirnames, filenames in os.walk(repo):
        if "CMakeCache.txt" in filenames:
            dirnames[:] = []
            continue
        dirnames[:] = sorted(d for d in dirnames if not d.startswith("."))
        found.extend(pathlib.Path(dirpath) / f for f in sorted(filenames)
                     if f == "CMakeLists.txt" or f.endswith(".cmake"))
    return found


def fp_flag_findings(repo: pathlib.Path) -> list[Finding]:
    findings = []
    for path in cmake_files(repo):
        rel = path.relative_to(repo).as_posix()
        for line_no, line in enumerate(_read(path).splitlines(), start=1):
            code = line.split("#", 1)[0]
            for m in FP_FLAG.finditer(code):
                findings.append(Finding(
                    rule="fp-flags", path=rel, line=line_no,
                    col=m.start() + 1,
                    message=(f"'{m.group(1)}' lets the compiler change "
                             f"floating-point results; the bit-identity "
                             f"contracts assume ISO evaluation with no "
                             f"contraction"),
                    line_text=line, end_col=m.end() + 1))
    return findings


def repo_findings(contexts: dict[str, FileContext],
                  references: dict[str, FileContext],
                  repo: pathlib.Path) -> list[Finding]:
    return (mn_code_findings(contexts, repo)
            + obs_catalogue_findings(contexts, repo)
            + unreferenced_api_findings(contexts, references)
            + fp_flag_findings(repo))
