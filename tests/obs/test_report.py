"""Tests for the Markdown run report and Gantt SVG renderer."""

import html
import xml.etree.ElementTree as ET
from xml.sax import saxutils

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import ObsSession
from repro.obs.analyze import TraceSet, lint
from repro.obs.report import (GANTT_ACCENTS, render_gantt_svg,
                              render_markdown, write_report)

from tests.obs.test_analyze import swept_session, synthetic_recorder


@pytest.fixture(scope="module")
def fig4_session() -> ObsSession:
    return swept_session()


@pytest.fixture(scope="module")
def fig4_ts(fig4_session) -> TraceSet:
    return TraceSet.from_recorder(fig4_session.trace)


# -- Markdown -----------------------------------------------------------------


def test_markdown_contains_all_sections(fig4_ts, fig4_session):
    text = render_markdown(fig4_ts, fig4_session.metrics)
    for heading in ("# Trace run report", "## Overview",
                    "### Records by kind", "## Decision outcomes",
                    "## Payback distribution", "## Adaptation by series",
                    "## Timeline", "## Trace lint"):
        assert heading in text
    assert "| scenarios | fig4 |" in text
    assert "clean" in text


def test_markdown_is_byte_stable(fig4_ts, fig4_session):
    first = render_markdown(fig4_ts, fig4_session.metrics)
    second = render_markdown(fig4_ts, fig4_session.metrics)
    assert first == second
    # And independent of whether findings were precomputed.
    precomputed = render_markdown(
        fig4_ts, findings=lint(fig4_ts, fig4_session.metrics))
    assert precomputed == first


def test_markdown_reports_lint_findings():
    ts = TraceSet.from_jsonl('{"kind":"e","t":1.0}\ngarbage\n')
    text = render_markdown(ts)
    assert "| trace lint | 1 finding(s) |" in text
    assert "`TL006`" in text
    assert "clean" not in text.split("## Trace lint")[1]


def test_markdown_synthetic_numbers():
    ts = TraceSet.from_recorder(synthetic_recorder())
    text = render_markdown(ts)
    assert "| epochs | 3 |" in text
    assert "| accepted moves | 2 |" in text
    assert "| payback exceeds threshold | 1 |" in text
    # The accepted CR payback is inf -> lands in the overflow bucket.
    assert "| > 64 | 1 |" in text
    assert "max inf" in text


def test_markdown_empty_trace_degrades_gracefully():
    text = render_markdown(TraceSet([]))
    assert "| records | 0 |" in text
    assert "clean" in text


# -- Gantt SVG ----------------------------------------------------------------


def test_gantt_svg_parses_and_has_marks(fig4_ts):
    svg = render_gantt_svg(fig4_ts)
    root = ET.fromstring(svg)
    assert root.tag.endswith("svg")
    assert "fig4" in svg
    # Iteration bars plus at least one adaptation accent color.
    assert 'fill-opacity="0.35"' in svg
    assert GANTT_ACCENTS["swap"] in svg


def test_gantt_defaults_to_first_cell_and_accepts_explicit_cell(fig4_ts):
    cells = fig4_ts.cells()
    assert render_gantt_svg(fig4_ts) == render_gantt_svg(fig4_ts,
                                                         cell=cells[0])
    other = render_gantt_svg(fig4_ts, cell=cells[-1])
    assert other != render_gantt_svg(fig4_ts)


def test_gantt_renders_rebalance_and_checkpoint_marks():
    svg = render_gantt_svg(TraceSet.from_recorder(synthetic_recorder()))
    assert GANTT_ACCENTS["checkpoint"] in svg
    assert GANTT_ACCENTS["rebalance"] in svg
    for series in ("swap", "cr", "dlb"):
        assert f">{series}" in svg


def test_gantt_empty_trace_is_valid_svg():
    svg = render_gantt_svg(TraceSet([]))
    ET.fromstring(svg)
    assert "empty trace" in svg


# -- write_report -------------------------------------------------------------


def test_write_report_writes_both_artifacts(fig4_ts, fig4_session, tmp_path):
    md, svg, findings = write_report(fig4_ts, tmp_path / "out",
                                     metrics=fig4_session.metrics)
    assert md.read_text().startswith("# Trace run report")
    ET.fromstring(svg.read_text())
    assert findings == []
    assert "see `gantt.svg`" in md.read_text()


def test_write_report_is_byte_stable_across_calls(fig4_ts, fig4_session,
                                                  tmp_path):
    md1, svg1, _ = write_report(fig4_ts, tmp_path / "a",
                                metrics=fig4_session.metrics)
    md2, svg2, _ = write_report(fig4_ts, tmp_path / "b",
                                metrics=fig4_session.metrics)
    assert md1.read_bytes() == md2.read_bytes()
    assert svg1.read_bytes() == svg2.read_bytes()


def test_write_report_surfaces_findings(tmp_path):
    ts = TraceSet.from_jsonl("garbage\n")
    _md, _svg, findings = write_report(ts, tmp_path / "out")
    assert [f.code for f in findings] == ["TL006"]


# -- text escaping ------------------------------------------------------------


@given(st.text(st.one_of(st.sampled_from("&<>\"';#"), st.characters())))
@settings(max_examples=300)
def test_svg_text_escape_matches_saxutils(text):
    # The renderers escape SVG text with html.escape(quote=False), which
    # spares them the xml.sax import chain; the bytes must not change.
    assert html.escape(text, quote=False) == saxutils.escape(text)
