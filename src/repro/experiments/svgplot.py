"""Dependency-free SVG line charts of sweep results.

The environment has no plotting stack, so this small renderer writes the
regenerated figures as standalone ``.svg`` files -- one polyline per
series, axes with ticks, and a legend.  ``python -m repro.experiments
fig4 --svg fig4.svg`` produces a file any browser displays.
"""

from __future__ import annotations

from html import escape

from repro.errors import ExperimentError
from repro.experiments.runner import SweepResult

#: Default series colors (colorblind-safe-ish qualitative palette).
PALETTE = ("#0072b2", "#d55e00", "#009e73", "#cc79a7",
           "#e69f00", "#56b4e9", "#000000", "#999999")

_MARGIN_LEFT = 70.0
_MARGIN_RIGHT = 160.0
_MARGIN_TOP = 50.0
_MARGIN_BOTTOM = 55.0


def ticks(lo: float, hi: float, n: int = 5) -> "list[float]":
    """``n`` evenly spaced axis ticks spanning [lo, hi] (one when flat)."""
    if hi <= lo:
        return [lo]
    step = (hi - lo) / (n - 1)
    return [lo + i * step for i in range(n)]


def fmt_tick(value: float) -> str:
    """A tick label with magnitude-dependent precision."""
    if value == 0:
        return "0"
    if abs(value) >= 1000:
        return f"{value:.0f}"
    if abs(value) >= 10:
        return f"{value:.1f}"
    return f"{value:.2f}"


def svg_header(width: int, height: int, title: str) -> "list[str]":
    """The shared document prologue: root element, backdrop, title."""
    return [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}" '
        f'font-family="sans-serif" font-size="12">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width / 2:.0f}" y="20" text-anchor="middle" '
        f'font-size="13">{escape(title[:90], quote=False)}</text>',
    ]


# Backward-compatible private aliases (pre-report internal names).
_ticks = ticks
_fmt = fmt_tick


def render_svg(result: SweepResult, width: int = 720,
               height: int = 420) -> str:
    """The sweep as an SVG document string (makespan vs x, all series)."""
    names = result.series_names()
    if not names:
        raise ExperimentError("no series to plot")
    xs = [float(x) for x in result.x_values]
    finite_xs = [x for x in xs if x != float("inf")]
    if len(finite_xs) != len(xs):
        raise ExperimentError("cannot plot infinite x values")
    x_lo, x_hi = min(xs), max(xs)
    all_y = [v for name in names for v in result.series[name].mean]
    y_lo, y_hi = 0.0, max(all_y) * 1.05

    plot_w = width - _MARGIN_LEFT - _MARGIN_RIGHT
    plot_h = height - _MARGIN_TOP - _MARGIN_BOTTOM

    def px(x: float) -> float:
        if x_hi == x_lo:
            return _MARGIN_LEFT + plot_w / 2
        return _MARGIN_LEFT + (x - x_lo) / (x_hi - x_lo) * plot_w

    def py(y: float) -> float:
        return _MARGIN_TOP + plot_h - (y - y_lo) / (y_hi - y_lo) * plot_h

    parts = svg_header(width, height, result.title)

    # Axes and ticks.
    axis = (f'M {_MARGIN_LEFT} {_MARGIN_TOP} '
            f'L {_MARGIN_LEFT} {_MARGIN_TOP + plot_h} '
            f'L {_MARGIN_LEFT + plot_w} {_MARGIN_TOP + plot_h}')
    parts.append(f'<path d="{axis}" stroke="#333" fill="none"/>')
    for tick in ticks(y_lo, y_hi):
        y = py(tick)
        parts.append(f'<line x1="{_MARGIN_LEFT - 4}" y1="{y:.1f}" '
                     f'x2="{_MARGIN_LEFT + plot_w}" y2="{y:.1f}" '
                     f'stroke="#ddd"/>')
        parts.append(f'<text x="{_MARGIN_LEFT - 8}" y="{y + 4:.1f}" '
                     f'text-anchor="end">{fmt_tick(tick)}</text>')
    for tick in ticks(x_lo, x_hi):
        x = px(tick)
        parts.append(f'<line x1="{x:.1f}" y1="{_MARGIN_TOP + plot_h}" '
                     f'x2="{x:.1f}" y2="{_MARGIN_TOP + plot_h + 4}" '
                     f'stroke="#333"/>')
        parts.append(f'<text x="{x:.1f}" y="{_MARGIN_TOP + plot_h + 18:.1f}" '
                     f'text-anchor="middle">{fmt_tick(tick)}</text>')
    parts.append(f'<text x="{_MARGIN_LEFT + plot_w / 2:.0f}" '
                 f'y="{height - 14}" text-anchor="middle">'
                 f'{escape(result.xlabel, quote=False)}</text>')
    parts.append(f'<text x="18" y="{_MARGIN_TOP + plot_h / 2:.0f}" '
                 f'text-anchor="middle" transform="rotate(-90 18 '
                 f'{_MARGIN_TOP + plot_h / 2:.0f})">execution time [s]</text>')

    # Series polylines, markers and legend.
    for index, name in enumerate(names):
        color = PALETTE[index % len(PALETTE)]
        means = result.series[name].mean
        points = " ".join(f"{px(x):.1f},{py(y):.1f}"
                          for x, y in zip(xs, means))
        parts.append(f'<polyline points="{points}" fill="none" '
                     f'stroke="{color}" stroke-width="2"/>')
        for x, y in zip(xs, means):
            parts.append(f'<circle cx="{px(x):.1f}" cy="{py(y):.1f}" '
                         f'r="3" fill="{color}"/>')
        legend_y = _MARGIN_TOP + 16 * index
        legend_x = _MARGIN_LEFT + plot_w + 12
        parts.append(f'<line x1="{legend_x}" y1="{legend_y:.1f}" '
                     f'x2="{legend_x + 18}" y2="{legend_y:.1f}" '
                     f'stroke="{color}" stroke-width="2"/>')
        parts.append(f'<text x="{legend_x + 24}" y="{legend_y + 4:.1f}">'
                     f'{escape(name, quote=False)}</text>')

    parts.append("</svg>")
    return "\n".join(parts)


def write_svg(result: SweepResult, path) -> None:
    """Render and write the chart to ``path``."""
    from pathlib import Path

    Path(path).write_text(render_svg(result))
