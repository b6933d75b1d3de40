"""``simlint``: the AST walk, suppression comments, and output shaping.

Suppression syntax (checked against the *reported* line; the same
comments silence the interprocedural :mod:`repro.analysis.flow`
analyzer, so one directive can mix families --
``disable=SL005,SF003``):

* ``# simlint: disable=SL005`` -- suppress the listed codes on this line;
* ``# simlint: disable=SL001,SF004`` -- several codes at once, any family;
* ``# simlint: disable=all`` -- everything on this line;
* ``# simlint: disable-file=SL005`` -- suppress for the whole file
  (conventionally placed near the top, with a justification comment).

A suppression on any decorator line of a decorated ``def`` / ``class``
also covers findings reported on the ``def`` line itself (rules that
anchor to the definition, like SF004, are otherwise unreachable when a
decorator owns the natural comment spot).

Suppressions exist so that a *justified* exception can be recorded in
place -- e.g. :mod:`repro.load.onoff` builds two throwaway generators to
verify numpy's geometric sampler; they never feed a simulation.
"""

from __future__ import annotations

import ast
import json
import re
from pathlib import Path
from typing import Iterable, Sequence

from repro.analysis.rules import Finding, LintContext, Rule, all_rules

_SUPPRESS_RE = re.compile(
    r"#\s*(?:simlint|simflow|repro-analysis):\s*disable(?P<file>-file)?\s*=\s*"
    r"(?P<codes>[A-Za-z0-9_]+(?:\s*,\s*[A-Za-z0-9_]+)*)")

#: Directory names never descended into when walking paths.
_SKIP_DIRS = {"__pycache__", ".git", ".hg", "node_modules", "build", "dist"}


def _parse_suppressions(source: str) -> "tuple[dict[int, set[str]], set[str]]":
    """Extract per-line and per-file suppressed codes from comments."""
    per_line: "dict[int, set[str]]" = {}
    per_file: "set[str]" = set()
    for lineno, line in enumerate(source.splitlines(), start=1):
        for match in _SUPPRESS_RE.finditer(line):
            codes = {c.strip().upper() if c.strip().lower() != "all" else "ALL"
                     for c in match.group("codes").split(",")}
            if match.group("file"):
                per_file |= codes
            else:
                per_line.setdefault(lineno, set()).update(codes)
    return per_line, per_file


class SuppressionIndex:
    """Per-module suppression lookup shared by simlint and simflow.

    Built from the module source (and, when available, its AST so that
    decorator-line suppressions extend to the decorated definition's
    ``def`` line, where definition-anchored findings are reported).
    """

    def __init__(self, source: str, tree: "ast.Module | None" = None) -> None:
        self._per_line, self._per_file = _parse_suppressions(source)
        if tree is not None:
            self._extend_decorated_defs(tree)

    def _extend_decorated_defs(self, tree: ast.Module) -> None:
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.ClassDef)):
                continue
            if not node.decorator_list:
                continue
            first = min(d.lineno for d in node.decorator_list)
            codes: "set[str]" = set()
            for line in range(first, node.lineno):
                codes |= self._per_line.get(line, set())
            if codes:
                self._per_line.setdefault(node.lineno, set()).update(codes)

    def suppressed(self, code: str, line: int) -> bool:
        if "ALL" in self._per_file or code in self._per_file:
            return True
        codes = self._per_line.get(line, ())
        return "ALL" in codes or code in codes


def _suppressed(finding: Finding, index: SuppressionIndex) -> bool:
    return index.suppressed(finding.code, finding.line)


def lint_source(source: str, path: str = "<string>",
                rules: "Sequence[Rule] | None" = None) -> "list[Finding]":
    """Lint one module's source text; returns unsuppressed findings."""
    if rules is None:
        rules = all_rules()
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return [Finding(code="SL000", message=f"syntax error: {exc.msg}",
                        path=path.replace("\\", "/"),
                        line=exc.lineno or 1, column=(exc.offset or 0) + 1 if
                        exc.offset else 1)]

    ctx = LintContext(path, source, tree)
    dispatch: "dict[type, list[Rule]]" = {}
    for rule in rules:
        for node_type in rule.node_types:
            dispatch.setdefault(node_type, []).append(rule)

    findings: "list[Finding]" = []
    for node in ast.walk(tree):
        for rule in dispatch.get(type(node), ()):
            findings.extend(rule.check(node, ctx))

    index = SuppressionIndex(source, tree)
    kept = [f for f in findings if not _suppressed(f, index)]
    kept.sort(key=lambda f: (f.line, f.column, f.code))
    return kept


def iter_python_files(paths: "Iterable[str | Path]") -> "list[Path]":
    """Expand files/directories into a sorted list of ``.py`` files."""
    files: "set[Path]" = set()
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            for candidate in path.rglob("*.py"):
                parts = set(candidate.parts)
                if parts & _SKIP_DIRS:
                    continue
                if any(p.endswith(".egg-info") for p in candidate.parts):
                    continue
                files.add(candidate)
        elif path.suffix == ".py":
            files.add(path)
        elif not path.exists():
            raise FileNotFoundError(f"no such file or directory: {path}")
    return sorted(files)


def lint_paths(paths: "Iterable[str | Path]",
               rules: "Sequence[Rule] | None" = None,
               ) -> "tuple[list[Finding], int]":
    """Lint files/directory trees; returns (findings, files_scanned)."""
    files = iter_python_files(paths)
    findings: "list[Finding]" = []
    for file in files:
        findings.extend(lint_source(file.read_text(encoding="utf-8"),
                                    path=str(file), rules=rules))
    findings.sort(key=lambda f: (f.path, f.line, f.column, f.code))
    return findings, len(files)


# -- output shaping --------------------------------------------------------

def findings_to_dict(findings: "Sequence[Finding]",
                     files_scanned: int) -> dict:
    """The stable JSON payload of a lint run (shared schema)."""
    from repro.analysis.schema import findings_payload

    return findings_payload("simlint", findings, files_scanned=files_scanned)


def format_text(findings: "Sequence[Finding]", files_scanned: int) -> str:
    lines = [f.format() for f in findings]
    noun = "file" if files_scanned == 1 else "files"
    lines.append(f"simlint: {len(findings)} finding"
                 f"{'' if len(findings) == 1 else 's'} in "
                 f"{files_scanned} {noun}")
    return "\n".join(lines)


def format_json(findings: "Sequence[Finding]", files_scanned: int) -> str:
    return json.dumps(findings_to_dict(findings, files_scanned), indent=2)
