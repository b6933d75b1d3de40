"""``simflow``: interprocedural effect and determinism analysis.

Where :mod:`repro.analysis.rules` judges one AST node at a time, this
package parses a whole package (or its model closure), builds a call graph
(:mod:`~repro.analysis.flow.graph`), infers per-function effect
signatures by fixed point (:mod:`~repro.analysis.flow.effects`), and
evaluates the interprocedural SF rules
(:mod:`~repro.analysis.flow.rules`) against the repo's contracts
(:mod:`~repro.analysis.flow.contracts`).

Entry point::

    from repro.analysis.flow import analyze_package
    result = analyze_package("src/repro")
    result.findings              # unsuppressed FlowFindings
    result.analysis.signature("repro.simkernel.engine.Simulator.step")

CLI: ``python -m repro.analysis flow`` (see :mod:`repro.analysis.cli`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Collection

from repro.analysis.flow.contracts import FlowContracts, default_contracts
from repro.analysis.flow.effects import EffectAnalysis, analyze_effects
from repro.analysis.flow.graph import PackageIndex
from repro.analysis.flow.report import (effects_report, flow_payload,
                                        format_effects_report,
                                        format_flow_json, format_flow_text)
from repro.analysis.flow.rules import (FLOW_RULES, FlowFinding,
                                       run_flow_rules)

__all__ = [
    "FlowContracts", "default_contracts", "EffectAnalysis", "PackageIndex",
    "FlowFinding", "FLOW_RULES", "FlowResult", "analyze_package",
    "effects_report", "flow_payload", "format_effects_report",
    "format_flow_json", "format_flow_text",
]


@dataclass
class FlowResult:
    """Everything one flow run produced."""

    index: PackageIndex
    analysis: EffectAnalysis
    #: findings surviving suppression comments, sorted.
    findings: "list[FlowFinding]" = field(default_factory=list)
    suppressed_count: int = 0

    @property
    def functions_analyzed(self) -> int:
        return len(self.index.functions)


def _relativize(findings: "list[FlowFinding]", root: Path,
                ) -> "list[FlowFinding]":
    """Report paths relative to the tree that contains the package, so
    output is stable across checkouts (mirrors ``self-check``)."""
    base = root.resolve().parent
    out: "list[FlowFinding]" = []
    for f in findings:
        try:
            rel = str(Path(f.path).resolve().relative_to(base))
        except ValueError:
            rel = f.path
        out.append(FlowFinding(code=f.code, message=f.message,
                               path=rel.replace("\\", "/"), line=f.line,
                               column=f.column, function=f.function))
    return out


def analyze_package(root: "str | Path", package: "str | None" = None,
                    contracts: "FlowContracts | None" = None,
                    relative_paths: bool = True,
                    modules: "Collection[str] | None" = None) -> FlowResult:
    """Run the full pipeline on a package directory (only ``modules``,
    when given)."""
    from repro.analysis.linter import SuppressionIndex

    root = Path(root)
    index = PackageIndex.build(root, package, modules)
    analysis = analyze_effects(index, contracts or default_contracts())
    findings = run_flow_rules(analysis)

    # The same suppression comments simlint honours silence SF findings.
    suppressions: "dict[str, SuppressionIndex]" = {}
    for mod in index.modules.values():
        suppressions[mod.path] = SuppressionIndex(mod.source, mod.tree)
    kept: "list[FlowFinding]" = []
    suppressed = 0
    for finding in findings:
        sup = suppressions.get(finding.path)
        if sup is not None and sup.suppressed(finding.code, finding.line):
            suppressed += 1
        else:
            kept.append(finding)

    if relative_paths:
        kept = _relativize(kept, root)
    return FlowResult(index=index, analysis=analysis, findings=kept,
                      suppressed_count=suppressed)
