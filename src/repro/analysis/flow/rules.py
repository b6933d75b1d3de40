"""The SF rule set: judgments over inferred effect signatures.

Unlike the per-file ``SL`` rules, every SF rule is *interprocedural*: it
reasons about what is reachable over the call graph, not just what a
single AST node looks like.

============  =============================================================
``SF003``     set iteration in code feeding the event heap or trace
              stream (dicts iterate in insertion order, so their views
              are not flagged)
``SF004``     effectful code reachable from functions the lowering pass
              assumes pure
============  =============================================================

Findings respect the same suppression comments as simlint
(``# simflow: disable=SF003`` -- see :mod:`repro.analysis.linter`).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass

from repro.analysis.flow.effects import EffectAnalysis
from repro.analysis.flow.graph import FunctionInfo

#: code -> (name, summary) catalogue for the ``rules`` subcommand.
FLOW_RULES = {
    "SF003": ("unordered-iteration-to-sink",
              "iteration over a set, unsorted, inside a function that "
              "feeds the event heap or the trace stream"),
    "SF004": ("assumed-pure-violation",
              "function the lowering/vectorization contract assumes pure "
              "has an inferred effect"),
}


@dataclass(frozen=True)
class FlowFinding:
    """One interprocedural diagnostic (adds ``function`` to the shared
    finding shape)."""

    code: str
    message: str
    path: str
    line: int
    column: int
    function: str

    def format(self) -> str:
        return (f"{self.path}:{self.line}:{self.column}: {self.code} "
                f"{self.message} [in {self.function}]")

    def to_dict(self) -> dict:
        return {"code": self.code, "message": self.message, "path": self.path,
                "line": self.line, "column": self.column,
                "function": self.function}


def run_flow_rules(analysis: EffectAnalysis) -> "list[FlowFinding]":
    findings: "list[FlowFinding]" = []
    findings.extend(_sf003(analysis))
    findings.extend(_sf004(analysis))
    findings.sort(key=lambda f: (f.path, f.line, f.column, f.code))
    return findings


def _finding(code: str, info: FunctionInfo, line: int, column: int,
             message: str) -> FlowFinding:
    return FlowFinding(code=code, message=message, path=info.path,
                       line=line, column=column, function=info.qualname)


# -- SF003 -------------------------------------------------------------------

def _unordered_iter_expr(node: ast.AST) -> "str | None":
    """Description of an unordered iterable, or None if fine."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return "set literal/comprehension"
    if isinstance(node, ast.Call):
        func = node.func
        if isinstance(func, ast.Name) and func.id == "set":
            return "set(...)"
    return None


def _iteration_sites(info: FunctionInfo) -> "list[tuple[ast.AST, str]]":
    sites: "list[tuple[ast.AST, str]]" = []
    for node in ast.walk(info.node):
        iters: "list[ast.AST]" = []
        if isinstance(node, (ast.For, ast.AsyncFor)):
            iters.append(node.iter)
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                               ast.GeneratorExp)):
            iters.extend(gen.iter for gen in node.generators)
        for it in iters:
            desc = _unordered_iter_expr(it)
            if desc is not None:
                sites.append((it, desc))
    return sites


def _sf003(analysis: EffectAnalysis) -> "list[FlowFinding]":
    contracts = analysis.contracts
    sink_reachers = analysis.reaches_sinks(contracts.trace_sinks
                                           + contracts.schedule_sinks)
    out: "list[FlowFinding]" = []
    for qualname in sorted(sink_reachers):
        info = analysis.index.functions.get(qualname)
        if info is None:
            continue
        if qualname in (contracts.trace_sinks + contracts.schedule_sinks):
            continue  # the sink itself, not a feeder
        for node, desc in _iteration_sites(info):
            out.append(_finding(
                "SF003", info, node.lineno, node.col_offset + 1,
                f"iteration over {desc} in a function that reaches the "
                f"event heap / trace stream; wrap in sorted(...) so "
                f"emission order is deterministic"))
    return out


# -- SF004 -------------------------------------------------------------------

def _sf004(analysis: EffectAnalysis) -> "list[FlowFinding]":
    out: "list[FlowFinding]" = []
    for qualname in sorted(analysis.index.functions):
        if not analysis.contracts.is_assumed_pure(qualname):
            continue
        effects = analysis.signature(qualname)
        if not effects:
            continue
        info = analysis.index.functions[qualname]
        culprit = _nearest_effect_origin(analysis, qualname)
        suffix = f" (via {culprit})" if culprit and culprit != qualname else ""
        out.append(_finding(
            "SF004", info, info.lineno, 1,
            f"assumed pure by the lowering contract but inferred effects "
            f"are [{', '.join(effects)}]{suffix}"))
    return out


def _nearest_effect_origin(analysis: EffectAnalysis,
                           root: str) -> "str | None":
    """BFS from ``root`` to the closest function with a *direct* effect."""
    seen = {root}
    frontier = [root]
    while frontier:
        nxt: "list[str]" = []
        for qual in frontier:
            if analysis.direct.get(qual):
                return qual
            for callee, internal, _l, _c in analysis.index.functions[
                    qual].calls:
                if internal and callee in analysis.index.functions and (
                        callee not in seen):
                    seen.add(callee)
                    nxt.append(callee)
        frontier = sorted(nxt)
    return None
