"""The shared finding schema of every ``repro.analysis`` family.

All three analyzer families -- the per-file AST linter (``SL``), the
trace invariant linter (``TL``), and the interprocedural flow analyzer
(``SF``) -- report through one JSON shape so CI gates can treat them
interchangeably:

* a *finding* is ``{"code", "message", "path", "line", "column"}`` plus
  optional family extras (flow findings add ``"function"``);
* a *payload* is ``{"version", "tool", ..., "finding_count",
  "counts_by_code", "findings"}``.

Exit-code convention, shared by every subcommand of
``python -m repro.analysis``: ``0`` clean, ``1`` findings, ``2`` usage
error.
"""

from __future__ import annotations

from typing import Any, Sequence

#: Schema version of the payload produced by :func:`findings_payload`.
SCHEMA_VERSION = 1


def findings_payload(tool: str, findings: Sequence[Any],
                     **extra: Any) -> dict:
    """The stable JSON payload of one analyzer run.

    ``findings`` is a sequence of objects with ``code`` attributes and a
    ``to_dict()`` method (the :class:`~repro.analysis.rules.Finding` /
    :class:`~repro.analysis.flow.FlowFinding` duck type).  ``extra``
    keys (e.g. ``files_scanned``) are inserted after ``tool``.
    """
    counts: "dict[str, int]" = {}
    for finding in findings:
        counts[finding.code] = counts.get(finding.code, 0) + 1
    payload: dict = {"version": SCHEMA_VERSION, "tool": tool}
    payload.update(extra)
    payload["finding_count"] = len(findings)
    payload["counts_by_code"] = dict(sorted(counts.items()))
    payload["findings"] = [f.to_dict() for f in findings]
    return payload
