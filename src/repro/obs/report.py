"""Deterministic run reports: Markdown analytics plus a swap Gantt SVG.

Renders the :mod:`repro.obs.analyze` analytics as two artifacts:

* :func:`render_markdown` -- a **byte-stable** Markdown report (record
  inventory, decision outcomes, rejection breakdown, payback
  distribution, per-series adaptation summary, lint verdict).  No wall
  clock, no environment data: identical traces render identical bytes,
  which is what ``ci/determinism.sh`` ``cmp``-checks.
* :func:`render_gantt_svg` -- one sweep cell as a Gantt timeline (one
  row per series: iteration slices in the series color, swap/checkpoint
  slices in accent colors, rebalance ticks), reusing the axis/format
  primitives of :mod:`repro.experiments.svgplot`.

:func:`write_report` bundles both plus linting into one directory; the
CLI (``python -m repro.obs report``) and ``python -m repro.experiments
<fig> --report DIR`` call it.
"""

from __future__ import annotations

import math
from html import escape

from repro.obs.analyze import (TraceSet, adaptation_overhead,
                               decision_summary, format_cell,
                               host_utilization, lint, payback_distribution,
                               rejection_breakdown, time_to_first_swap,
                               timeline)

#: Accent colors for adaptation marks (iteration rows use the sweep
#: palette from :mod:`repro.experiments.svgplot`).
GANTT_ACCENTS = {"swap": "#d55e00", "checkpoint": "#cc79a7",
                 "rebalance": "#009e73"}

_ROW_HEIGHT = 34.0
_MARGIN_LEFT = 130.0
_MARGIN_RIGHT = 30.0
_MARGIN_TOP = 40.0
_MARGIN_BOTTOM = 60.0


def _num(value: float, spec: str = ".4g") -> str:
    """A float as deterministic text, spelling non-finites explicitly."""
    if value != value:
        return "nan"
    if value == math.inf:
        return "inf"
    if value == -math.inf:
        return "-inf"
    return format(value, spec)


def _mean(values: "list[float]") -> "float | None":
    return sum(values) / len(values) if values else None


def _series_rollup(ts: TraceSet) -> "list[dict]":
    """Per-series aggregates across all cells (appearance order)."""
    utilization = host_utilization(ts)
    overhead = adaptation_overhead(ts)
    first_swap = time_to_first_swap(ts)
    lines = timeline(ts)
    rollup = []
    for series in ts.series_names():
        keys = [key for key in ts.rows() if key[1] == series]
        events = {"swap": 0, "checkpoint": 0, "rebalance": 0}
        for key in keys:
            for event in lines.get(key, ()):
                events[event["kind"]] += 1
        utils = [usage["utilization"]
                 for key in keys
                 for usage in utilization.get(key, {}).values()]
        fractions = [overhead[key]["fraction"]
                     for key in keys if key in overhead]
        firsts = [first_swap[key] for key in keys
                  if first_swap.get(key) is not None]
        rollup.append({"series": series, "cells": len(keys),
                       "swaps": events["swap"],
                       "checkpoints": events["checkpoint"],
                       "rebalances": events["rebalance"],
                       "first_swap": _mean(firsts),
                       "overhead": _mean(fractions),
                       "utilization": _mean(utils)})
    return rollup


def _opt(value: "float | None", spec: str = ".4g") -> str:
    return "n/a" if value is None else _num(value, spec)


def render_markdown(ts: TraceSet, metrics=None, findings=None,
                    gantt_name: "str | None" = "gantt.svg") -> str:
    """The full analytics report as byte-stable Markdown.

    ``findings`` short-circuits a second lint pass when the caller
    already ran one; pass ``None`` to lint here (with ``metrics``
    enabling the TL005 cross-checks).
    """
    if findings is None:
        findings = lint(ts, metrics)
    kinds = ts.kinds()
    cells = ts.cells()
    series = ts.series_names()
    decisions = decision_summary(ts)
    scenarios = sorted({str(cell[0]) for cell in cells})

    lines = ["# Trace run report", ""]
    lines += ["## Overview", "",
              "| | |", "|---|---|",
              f"| scenarios | {', '.join(scenarios) or 'n/a'} |",
              f"| cells | {len(cells)} |",
              f"| series | {', '.join(series) or 'n/a'} |",
              f"| records | {len(ts)} |",
              f"| trace lint | "
              f"{'clean' if not findings else f'{len(findings)} finding(s)'}"
              f" |", ""]

    lines += ["### Records by kind", "",
              "| kind | count |", "|---|---|"]
    lines += [f"| {kind} | {count} |" for kind, count in kinds.items()]
    lines.append("")

    lines += ["## Decision outcomes", "",
              "| | |", "|---|---|",
              f"| epochs | {decisions['epochs']} |",
              f"| accepted | {decisions['accepted']} |",
              f"| rejected | {decisions['rejected']} |",
              f"| accepted moves | {decisions['moves']} |"]
    if decisions["epochs"]:
        rate = decisions["accepted"] / decisions["epochs"]
        lines.append(f"| accept rate | {_num(rate, '.4f')} |")
    lines.append("")

    rejections = rejection_breakdown(ts)
    if rejections:
        lines += ["### Rejection reasons", "",
                  "| reason | epochs |", "|---|---|"]
        lines += [f"| {reason} | {count} |"
                  for reason, count in rejections.items()]
        lines.append("")

    payback = payback_distribution(ts).to_payload()
    if payback["count"]:
        lines += ["## Payback distribution", "",
                  "Iterations needed to recoup each accepted "
                  "reconfiguration.", "",
                  "| bucket | moves |", "|---|---|"]
        bounds = payback["bounds"]
        for i, count in enumerate(payback["buckets"]):
            label = (f"<= {_num(bounds[i])}" if i < len(bounds)
                     else f"> {_num(bounds[-1])}")
            lines.append(f"| {label} | {count} |")
        mean = (float(payback["sum"]) / payback["count"]
                if not isinstance(payback["sum"], str) else math.inf)
        lines += ["",
                  f"observations {payback['count']}, "
                  f"min {_num(float(str(payback['min'])))}, "
                  f"max {_num(float(str(payback['max'])))}, "
                  f"mean of finite {_num(mean)}", ""]

    rollup = _series_rollup(ts)
    if rollup:
        lines += ["## Adaptation by series", "",
                  "| series | cells | swaps | checkpoints | rebalances | "
                  "mean t to first swap [s] | overhead fraction | "
                  "host utilization |",
                  "|---|---|---|---|---|---|---|---|"]
        for row in rollup:
            lines.append(
                f"| {row['series']} | {row['cells']} | {row['swaps']} | "
                f"{row['checkpoints']} | {row['rebalances']} | "
                f"{_opt(row['first_swap'])} | "
                f"{_opt(row['overhead'], '.4f')} | "
                f"{_opt(row['utilization'], '.4f')} |")
        lines.append("")

    if gantt_name and cells:
        lines += ["## Timeline", "",
                  f"Gantt of the first cell "
                  f"({format_cell(cells[0])}): see `{gantt_name}`.", ""]

    lines += ["## Trace lint", ""]
    if findings:
        lines += [f"- `{finding.code}` {finding}" for finding in findings]
    else:
        # Kept only so reports of the same trace keep their bytes; the
        # range is stale (TL002 was deleted), see ROADMAP.md.
        lines.append("All TL invariants hold (TL001-TL007): clean.")
    lines.append("")
    return "\n".join(lines)


def render_gantt_svg(ts: TraceSet, cell: "tuple | None" = None,
                     width: int = 900) -> str:
    """One cell's run as an SVG Gantt: a row per series.

    Iteration slices draw in the series palette color, swap/checkpoint
    slices in :data:`GANTT_ACCENTS`, rebalances as thin ticks.  Rows are
    labelled with the series name and its mean host utilization.
    """
    from repro.experiments.svgplot import (PALETTE, fmt_tick, svg_header,
                                           ticks)

    cells = ts.cells()
    if cell is None and cells:
        cell = cells[0]
    subset = ts.filter(cell=cell) if cell is not None else ts
    series = subset.series_names()
    height = int(_MARGIN_TOP + _MARGIN_BOTTOM
                 + _ROW_HEIGHT * max(1, len(series)))
    title = (f"Run timeline: {format_cell(cell)}" if cell is not None
             else "Run timeline: (empty trace)")
    parts = svg_header(width, height, title)
    plot_w = width - _MARGIN_LEFT - _MARGIN_RIGHT
    plot_h = _ROW_HEIGHT * max(1, len(series))

    spans = []
    for record in subset:
        start, end = record.get("start"), record.get("end")
        if isinstance(start, (int, float)) and isinstance(end, (int, float)):
            spans += [float(start), float(end)]
        t = record.get("t")
        if isinstance(t, (int, float)):
            spans.append(float(t))
    t_lo = min(spans) if spans else 0.0
    t_hi = max(spans) if spans else 1.0
    if t_hi <= t_lo:
        t_hi = t_lo + 1.0

    def px(t: float) -> float:
        return _MARGIN_LEFT + (t - t_lo) / (t_hi - t_lo) * plot_w

    # Time axis.
    axis_y = _MARGIN_TOP + plot_h
    parts.append(f'<line x1="{_MARGIN_LEFT}" y1="{axis_y:.1f}" '
                 f'x2="{_MARGIN_LEFT + plot_w}" y2="{axis_y:.1f}" '
                 f'stroke="#333"/>')
    for tick in ticks(t_lo, t_hi, 6):
        x = px(tick)
        parts.append(f'<line x1="{x:.1f}" y1="{_MARGIN_TOP}" '
                     f'x2="{x:.1f}" y2="{axis_y:.1f}" stroke="#eee"/>')
        parts.append(f'<line x1="{x:.1f}" y1="{axis_y:.1f}" '
                     f'x2="{x:.1f}" y2="{axis_y + 4:.1f}" stroke="#333"/>')
        parts.append(f'<text x="{x:.1f}" y="{axis_y + 18:.1f}" '
                     f'text-anchor="middle">{fmt_tick(tick)}</text>')
    parts.append(f'<text x="{_MARGIN_LEFT + plot_w / 2:.0f}" '
                 f'y="{height - 16}" text-anchor="middle">'
                 f'simulated time [s]</text>')

    utilization = host_utilization(subset)
    # Keep the accent colors exclusive to adaptation marks.
    row_palette = [c for c in PALETTE
                   if c not in GANTT_ACCENTS.values()] or list(PALETTE)
    for index, name in enumerate(series):
        color = row_palette[index % len(row_palette)]
        row_top = _MARGIN_TOP + _ROW_HEIGHT * index
        bar_y = row_top + 6.0
        bar_h = _ROW_HEIGHT - 14.0
        row_key = (cell, name) if cell is not None else None
        utils = [usage["utilization"] for key, hosts in utilization.items()
                 if (row_key is None or key == row_key)
                 for usage in hosts.values()]
        mean_util = _mean(utils)
        label = escape(name, quote=False)
        if mean_util is not None:
            label += f" ({mean_util * 100.0:.0f}%)"
        parts.append(f'<text x="{_MARGIN_LEFT - 8}" '
                     f'y="{row_top + _ROW_HEIGHT / 2 + 4:.1f}" '
                     f'text-anchor="end">{label}</text>')
        drawn: "set[tuple]" = set()
        for record in subset.filter(series=name):
            kind = record.get("kind")
            start, end = record.get("start"), record.get("end")
            has_span = (isinstance(start, (int, float))
                        and isinstance(end, (int, float)))
            if kind == "iteration" and has_span:
                parts.append(
                    f'<rect x="{px(float(start)):.1f}" y="{bar_y:.1f}" '
                    f'width="{max(0.2, px(float(end)) - px(float(start))):.1f}" '
                    f'height="{bar_h:.1f}" fill="{color}" '
                    f'fill-opacity="0.35"/>')
            elif kind in ("swap", "checkpoint") and has_span:
                span = (float(start), float(end))
                if span in drawn:  # coincident batch-swap slices
                    continue
                drawn.add(span)
                parts.append(
                    f'<rect x="{px(span[0]):.1f}" y="{bar_y:.1f}" '
                    f'width="{max(0.8, px(span[1]) - px(span[0])):.1f}" '
                    f'height="{bar_h:.1f}" fill="{GANTT_ACCENTS[kind]}"/>')
            elif kind == "rebalance":
                x = px(float(record["t"]))
                parts.append(
                    f'<line x1="{x:.1f}" y1="{bar_y:.1f}" x2="{x:.1f}" '
                    f'y2="{bar_y + bar_h:.1f}" '
                    f'stroke="{GANTT_ACCENTS[kind]}" stroke-width="1"/>')

    legend_x = _MARGIN_LEFT
    legend_y = height - 36.0
    for offset, (kind, color) in enumerate(sorted(GANTT_ACCENTS.items())):
        x = legend_x + 160.0 * offset
        parts.append(f'<rect x="{x:.1f}" y="{legend_y:.1f}" width="14" '
                     f'height="10" fill="{color}"/>')
        parts.append(f'<text x="{x + 20:.1f}" y="{legend_y + 9:.1f}">'
                     f'{kind}</text>')
    parts.append("</svg>")
    return "\n".join(parts)


def write_report(ts: TraceSet, outdir, metrics=None, findings=None,
                 cell: "tuple | None" = None) -> "tuple":
    """Lint, render, and write ``report.md`` + ``gantt.svg`` into a dir.

    Returns ``(markdown_path, svg_path, findings)`` so callers can both
    print the artifact locations and fail on lint findings.
    """
    from pathlib import Path

    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    if findings is None:
        findings = lint(ts, metrics)
    md_path = outdir / "report.md"
    svg_path = outdir / "gantt.svg"
    md_path.write_text(render_markdown(ts, metrics, findings=findings,
                                       gantt_name=svg_path.name))
    svg_path.write_text(render_gantt_svg(ts, cell=cell) + "\n")
    return md_path, svg_path, findings
