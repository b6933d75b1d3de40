"""Flow-analysis output shaping: findings and the effects report.

The **effects report** is the purity contract the fabric and scenario
lowering rely on: a byte-stable JSON table of the inferred effect
signature of every function under :data:`~repro.analysis.flow.contracts.
REPORT_SCOPE`.  It is committed at ``docs/effects-report.json`` and CI
fails when the committed copy drifts from a fresh run, so purity
regressions (a helper quietly acquiring IO, a strategy starting to read
shared state) surface in review rather than as flaky sweeps.
"""

from __future__ import annotations

import json
from typing import Sequence

from repro.analysis.flow import effects as fx
from repro.analysis.flow.effects import EffectAnalysis
from repro.analysis.flow.rules import FlowFinding
from repro.analysis.schema import findings_payload


# -- findings payloads ---------------------------------------------------------

def flow_payload(findings: "Sequence[FlowFinding]",
                 functions_analyzed: int) -> dict:
    return findings_payload("simflow", findings,
                            functions_analyzed=functions_analyzed)


def format_flow_json(findings: "Sequence[FlowFinding]",
                     functions_analyzed: int) -> str:
    return json.dumps(flow_payload(findings, functions_analyzed), indent=2)


def format_flow_text(findings: "Sequence[FlowFinding]",
                     functions_analyzed: int) -> str:
    lines = [f.format() for f in findings]
    lines.append(f"simflow: {len(findings)} finding"
                 f"{'' if len(findings) == 1 else 's'} across "
                 f"{functions_analyzed} functions")
    return "\n".join(lines)


# -- the effects report ------------------------------------------------------------

def effects_report(analysis: EffectAnalysis) -> dict:
    """The committed purity-contract table (byte-stable)."""
    functions: "dict[str, dict]" = {}
    for qualname in sorted(analysis.index.functions):
        if not qualname.startswith(analysis.contracts.report_scope):
            continue
        signature = analysis.signature(qualname)
        functions[qualname] = {"effects": signature, "pure": not signature}
    pure_count = sum(1 for e in functions.values() if e["pure"])
    return {
        "version": 1,
        "tool": "simflow-effects",
        "package": analysis.index.package,
        "scope": list(analysis.contracts.report_scope),
        "effect_lattice": list(fx.EFFECT_ORDER),
        "function_count": len(functions),
        "pure_count": pure_count,
        "functions": functions,
    }


def format_effects_report(report: dict) -> str:
    """Canonical serialization -- CI compares this byte-for-byte."""
    return json.dumps(report, indent=2, sort_keys=True) + "\n"
