"""Tests for the trace consumption layer: loading, query, analytics, lint."""

import math

import pytest

from repro.errors import ObservabilityError
from repro.obs import ObsSession, PAYBACK_BUCKETS
from repro.obs.analyze import (TRACE_RULES, TraceSet, adaptation_overhead,
                               as_float, cell_key, decision_summary,
                               format_cell, host_utilization, lint,
                               normalize_reason, payback_distribution,
                               payback_values, rejection_breakdown,
                               time_to_first_swap, timeline)
from repro.obs.trace import TraceRecorder


# -- fixtures -----------------------------------------------------------------


def swept_session(scenario="fig4", seeds=1) -> ObsSession:
    """A real instrumented sweep: the integration-grade trace."""
    from repro.experiments.executor import execute_sweep
    from repro.experiments.scenarios import get_scenario

    session = ObsSession()
    execute_sweep(get_scenario(scenario), seeds=seeds, obs_session=session)
    return session


@pytest.fixture(scope="module")
def fig4_session() -> ObsSession:
    return swept_session()


def synthetic_recorder() -> TraceRecorder:
    """A tiny hand-built trace with every analytics-relevant kind."""
    recorder = TraceRecorder()
    recorder.set_context(scenario="s", x=0.5, seed=0, series="swap")
    recorder.emit("iteration", 10.0, iteration=1, start=1.0, end=10.0,
                  compute_end=8.0, active=[1, 2])
    recorder.emit(
        "decision", 10.0, iteration=1, accepted=True, rejected_reason="",
        moves=[{"out_host": 1, "in_host": 3, "payback": 2.0}],
        gates=[{"gate": "accepted", "accepted": True, "reason": "",
                "out_host": 1, "in_host": 3}])
    recorder.emit("swap", 12.0, iteration=1, out_host=1, in_host=3,
                  payback=2.0, start=10.0, end=12.0)
    recorder.emit("iteration", 20.0, iteration=2, start=12.0, end=20.0,
                  compute_end=18.0, active=[3, 2])
    recorder.emit("decision", 20.0, iteration=2, accepted=False,
                  rejected_reason="payback 9.00 iterations exceeds "
                                  "threshold 0.5",
                  moves=[], gates=[{"gate": "application", "accepted": False,
                                    "reason": "payback", "out_host": 2,
                                    "in_host": 4}])
    recorder.set_context(scenario="s", x=0.5, seed=0, series="cr")
    recorder.emit("decision", 15.0, iteration=1, accepted=True,
                  rejected_reason="", candidate=[5, 6], payback=float("inf"))
    recorder.emit("checkpoint", 18.0, iteration=1, new_active=[5, 6],
                  cost=3.0, start=15.0, end=18.0)
    recorder.set_context(scenario="s", x=0.5, seed=0, series="dlb")
    recorder.emit("rebalance", 5.0, iteration=1, chunks={"1": 2.0})
    return recorder


# -- as_float / round-trip ----------------------------------------------------


def test_as_float_revives_nonfinite_spellings():
    assert as_float("inf") == math.inf
    assert as_float("-inf") == -math.inf
    assert math.isnan(as_float("nan"))
    assert as_float(2.5) == 2.5
    assert as_float(3) == 3.0


@pytest.mark.parametrize("bad", ["infinity", "", None, True, [1.0]])
def test_as_float_rejects_non_trace_values(bad):
    with pytest.raises(ObservabilityError):
        as_float(bad)


def test_jsonl_round_trips_records_exactly():
    """analyze reconstructs exactly what TraceRecorder.to_jsonl wrote,
    including the non-finite float spellings."""
    recorder = TraceRecorder()
    recorder.set_context(scenario="s", x=float("inf"), seed=0, series="a")
    recorder.emit("decision", 1.0, payback=float("inf"),
                  delta=float("-inf"), noise=float("nan"),
                  nested={"deep": [float("inf"), 2.0]})
    recorder.emit("iteration", 2.0, start=1.0, end=2.0, active=[1, 2])
    ts = TraceSet.from_jsonl(recorder.to_jsonl())
    assert ts.records == recorder.records
    assert ts.records[0]["payback"] == "inf"
    assert ts.records[0]["delta"] == "-inf"
    assert ts.records[0]["noise"] == "nan"
    assert ts.records[0]["nested"]["deep"][0] == "inf"
    assert not ts.bad_lines


def test_sweep_trace_round_trips_exactly(fig4_session, tmp_path):
    path = tmp_path / "trace.jsonl"
    fig4_session.trace.write_jsonl(path)
    ts = TraceSet.load(path)
    assert ts.records == fig4_session.trace.records
    assert not ts.bad_lines


def test_unparseable_lines_are_collected_not_raised():
    text = ('{"kind":"iteration","t":1.0}\n'
            "this is not json\n"
            '{"no_kind_field":true}\n'
            "\n"
            '{"kind":"swap","t":2.0}\n')
    ts = TraceSet.from_jsonl(text)
    assert len(ts) == 2
    assert [bad.number for bad in ts.bad_lines] == [2, 3]


# -- query API ----------------------------------------------------------------


def test_filter_by_kind_cell_series_window_and_fields():
    ts = TraceSet.from_recorder(synthetic_recorder())
    assert len(ts.filter(kind="iteration")) == 2
    assert len(ts.filter(series="swap")) == 5
    assert len(ts.filter(cell=("s", 0.5, 0))) == len(ts)
    assert len(ts.filter(cell=("other", 0.5, 0))) == 0
    assert len(ts.filter(t_min=12.0, t_max=18.0)) == 3
    assert len(ts.filter(kind="decision", accepted=True)) == 2
    assert len(ts.filter(kind="decision", iteration=2)) == 1


def test_kinds_cells_series_are_deterministic():
    ts = TraceSet.from_recorder(synthetic_recorder())
    assert ts.kinds() == {"checkpoint": 1, "decision": 3, "iteration": 2,
                          "rebalance": 1, "swap": 1}
    assert ts.cells() == [("s", 0.5, 0)]
    assert ts.series_names() == ["swap", "cr", "dlb"]


def test_cell_key_and_label_of_contextless_records():
    assert cell_key({"kind": "e", "t": 0.0}) == (None, None, None)
    assert format_cell((None, None, None)) == "(no cell)"
    assert format_cell(("fig4", 0.5, 3)) == "fig4 x=0.5 seed=3"


# -- analytics ----------------------------------------------------------------


def test_host_utilization_attributes_compute_time():
    ts = TraceSet.from_recorder(synthetic_recorder())
    usage = host_utilization(ts)[(("s", 0.5, 0), "swap")]
    # Span 1.0..20.0; host 2 computed in both iterations (7 + 6 s).
    assert usage[2]["busy"] == pytest.approx(13.0)
    assert usage[2]["utilization"] == pytest.approx(13.0 / 19.0)
    # Host 1 only in iteration 1, host 3 only in iteration 2.
    assert usage[1]["busy"] == pytest.approx(7.0)
    assert usage[3]["busy"] == pytest.approx(6.0)
    assert usage[1]["idle"] == pytest.approx(12.0)


def test_timeline_orders_adaptation_events():
    ts = TraceSet.from_recorder(synthetic_recorder())
    lines = timeline(ts)
    swap_line = lines[(("s", 0.5, 0), "swap")]
    assert [e["kind"] for e in swap_line] == ["swap"]
    assert swap_line[0]["detail"] == "h1->h3"
    cr_line = lines[(("s", 0.5, 0), "cr")]
    assert cr_line[0]["detail"] == "restart -> [5, 6]"
    assert lines[(("s", 0.5, 0), "dlb")][0]["kind"] == "rebalance"


def test_rejection_breakdown_normalizes_gate_classes():
    ts = TraceSet.from_recorder(synthetic_recorder())
    assert rejection_breakdown(ts) == {"payback exceeds threshold": 1}
    raw = rejection_breakdown(ts, normalize=False)
    assert list(raw) == ["payback 9.00 iterations exceeds threshold 0.5"]


def test_normalize_reason_classes():
    assert normalize_reason("payback 9.88 iterations exceeds threshold "
                            "0.5") == "payback exceeds threshold"
    assert normalize_reason("process improvement 3.77% below threshold "
                            "20.00%") == "process improvement below threshold"
    assert normalize_reason("application improvement 0.24% below threshold "
                            "2.00%") == ("application improvement below "
                                         "threshold")
    assert normalize_reason("no application improvement") == \
        "no application improvement"


def test_payback_values_and_distribution():
    ts = TraceSet.from_recorder(synthetic_recorder())
    # One swap move (2.0) plus one accepted CR check (inf).
    assert payback_values(ts) == [2.0, math.inf]
    histogram = payback_distribution(ts)
    assert histogram.bounds == PAYBACK_BUCKETS
    assert histogram.count == 2
    assert histogram.bucket_counts[-1] == 1  # the inf overflow


def test_time_to_first_swap_and_overhead():
    ts = TraceSet.from_recorder(synthetic_recorder())
    firsts = time_to_first_swap(ts)
    assert firsts[(("s", 0.5, 0), "swap")] == pytest.approx(11.0)
    assert firsts[(("s", 0.5, 0), "dlb")] is None  # rebalances don't count
    overhead = adaptation_overhead(ts)[(("s", 0.5, 0), "swap")]
    assert overhead["overhead"] == pytest.approx(2.0)
    assert overhead["fraction"] == pytest.approx(2.0 / 19.0)


def test_decision_summary_counts_cr_checks_as_one_move():
    ts = TraceSet.from_recorder(synthetic_recorder())
    assert decision_summary(ts) == {"epochs": 3, "accepted": 2,
                                    "rejected": 1, "moves": 2}


# -- linter -------------------------------------------------------------------


def test_real_sweep_trace_lints_clean(fig4_session):
    ts = TraceSet.from_recorder(fig4_session.trace)
    assert lint(ts, fig4_session.metrics) == []


def test_rule_table_covers_all_codes():
    assert sorted(TRACE_RULES) == [
        "TL001", "TL003", "TL004", "TL005", "TL006", "TL007"]


def test_tl001_flags_time_regression():
    recorder = TraceRecorder()
    recorder.set_context(scenario="s", x=0.0, seed=0, series="a")
    recorder.emit("iteration", 10.0)
    recorder.emit("iteration", 4.0)
    findings = lint(TraceSet.from_recorder(recorder))
    assert [f.code for f in findings] == ["TL001"]
    assert "precedes" in findings[0].message


def test_tl001_ignores_interleaved_rows():
    # Different series restart their clocks; only within-row order counts.
    recorder = TraceRecorder()
    recorder.set_context(scenario="s", x=0.0, seed=0, series="a")
    recorder.emit("iteration", 50.0)
    recorder.set_context(scenario="s", x=0.0, seed=0, series="b")
    recorder.emit("iteration", 3.0)
    assert lint(TraceSet.from_recorder(recorder)) == []


def test_tl003_flags_overlapping_slices_but_not_batches():
    recorder = TraceRecorder()
    recorder.set_context(scenario="s", x=0.0, seed=0, series="a")
    recorder.emit("iteration", 10.0, start=0.0, end=10.0)
    # A batch of coincident swap slices is legitimate...
    recorder.emit("decision", 10.0, iteration=1, accepted=True,
                  rejected_reason="", candidate=[2], payback=1.0)
    recorder.emit("swap", 12.0, iteration=1, start=10.0, end=12.0)
    recorder.emit("swap", 12.0, iteration=1, start=10.0, end=12.0)
    assert lint(TraceSet.from_recorder(recorder)) == []
    # ...a genuinely overlapping slice is not.
    recorder.emit("iteration", 11.5, start=11.0, end=11.5)
    findings = lint(TraceSet.from_recorder(recorder))
    assert "TL003" in [f.code for f in findings]


def test_tl004_flags_accepted_decision_without_moves():
    recorder = TraceRecorder()
    recorder.set_context(scenario="s", x=0.0, seed=0, series="a")
    recorder.emit("decision", 1.0, accepted=True, rejected_reason="",
                  moves=[], gates=[])
    findings = lint(TraceSet.from_recorder(recorder))
    assert [f.code for f in findings] == ["TL004"]


def test_tl004_flags_prefix_not_ending_at_accepting_gate():
    recorder = TraceRecorder()
    recorder.set_context(scenario="s", x=0.0, seed=0, series="a")
    recorder.emit(
        "decision", 1.0, accepted=True, rejected_reason="",
        moves=[{"out_host": 1, "in_host": 2, "payback": 1.0}],
        gates=[{"gate": "application", "accepted": False, "reason": "r",
                "out_host": 1, "in_host": 2}])
    findings = lint(TraceSet.from_recorder(recorder))
    assert any("accepting" in f.message for f in findings)


def test_tl004_accepts_committed_prefix_with_interior_rejections():
    # decide_swaps commits a prefix whose *cumulative* gate passed even
    # if interior candidates were individually rejected.
    recorder = TraceRecorder()
    recorder.set_context(scenario="s", x=0.0, seed=0, series="a")
    recorder.emit(
        "decision", 1.0, accepted=True, rejected_reason="",
        moves=[{"out_host": 1, "in_host": 2, "payback": 1.0},
               {"out_host": 3, "in_host": 4, "payback": 1.0}],
        gates=[{"gate": "application", "accepted": False, "reason": "r",
                "out_host": 1, "in_host": 2},
               {"gate": "accepted", "accepted": True, "reason": "",
                "out_host": 3, "in_host": 4}])
    assert lint(TraceSet.from_recorder(recorder)) == []


def test_tl004_flags_cr_rejection_without_reason():
    recorder = TraceRecorder()
    recorder.set_context(scenario="s", x=0.0, seed=0, series="cr")
    recorder.emit("decision", 1.0, accepted=False, rejected_reason="",
                  candidate=[1], payback=3.0)
    findings = lint(TraceSet.from_recorder(recorder))
    assert [f.code for f in findings] == ["TL004"]


def test_tl005_flags_metrics_disagreeing_with_trace(fig4_session):
    ts = TraceSet.from_recorder(fig4_session.trace)
    payload = fig4_session.metrics.to_dict()
    payload["counters"]["decision.moves_total"] += 1.0
    findings = lint(ts, payload)
    assert [f.code for f in findings] == ["TL005"]
    assert "decision.moves_total" in findings[0].message


def test_tl005_flags_tampered_payback_histogram(fig4_session):
    ts = TraceSet.from_recorder(fig4_session.trace)
    payload = fig4_session.metrics.to_dict()
    payload["histograms"]["decision.payback_iterations"]["count"] += 1
    findings = lint(ts, payload)
    assert [f.code for f in findings] == ["TL005"]


def test_tl006_reports_unparseable_lines():
    ts = TraceSet.from_jsonl('{"kind":"e","t":1.0}\ngarbage\n')
    findings = lint(ts)
    assert [f.code for f in findings] == ["TL006"]
    assert "line 2" in findings[0].message


def test_tl007_flags_unresolved_revocation():
    recorder = TraceRecorder()
    recorder.set_context(scenario="s", x=0.0, seed=0, series="a")
    recorder.emit("fault.revocation", 5.0, host=3, until=60.0)
    findings = lint(TraceSet.from_recorder(recorder))
    assert [f.code for f in findings] == ["TL007"]
    assert "host 3" in findings[0].message


def test_tl007_accepts_stall_or_recovery():
    for resolver in ({"kind": "fault.stall", "host": 3, "stalled": 10.0,
                      "reason": "no-spare"},
                     {"kind": "fault.recovery", "action": "swap-promote",
                      "out_host": 3, "in_host": 9},
                     {"kind": "fault.recovery", "action": "cr-restart",
                      "hosts": [3], "new_active": [9]},
                     {"kind": "fault.recovery", "action": "returned",
                      "host": 3}):
        recorder = TraceRecorder()
        recorder.set_context(scenario="s", x=0.0, seed=0, series="a")
        recorder.emit("fault.revocation", 5.0, host=3, until=60.0)
        recorder.emit(resolver.pop("kind"), 6.0, **resolver)
        assert lint(TraceSet.from_recorder(recorder)) == []


def test_tl007_resolution_must_match_host():
    recorder = TraceRecorder()
    recorder.set_context(scenario="s", x=0.0, seed=0, series="a")
    recorder.emit("fault.revocation", 5.0, host=3, until=60.0)
    recorder.emit("fault.stall", 6.0, host=4, stalled=10.0,
                  reason="no-spare")
    findings = lint(TraceSet.from_recorder(recorder))
    assert [f.code for f in findings] == ["TL007"]


def test_tl007_each_revocation_needs_its_own_resolution():
    """A recovery after the host's next revocation covers only that one."""
    recorder = TraceRecorder()
    recorder.set_context(scenario="s", x=0.0, seed=0, series="a")
    recorder.emit("fault.revocation", 5.0, host=3, until=60.0)
    recorder.emit("fault.revocation", 70.0, host=3, until=90.0)
    recorder.emit("fault.stall", 70.0, host=3, stalled=20.0,
                  reason="no-spare")
    findings = lint(TraceSet.from_recorder(recorder))
    assert [f.code for f in findings] == ["TL007"]
    assert "t=5" in findings[0].message


def test_corrupted_sweep_trace_is_caught(fig4_session, tmp_path):
    """End to end: flip one byte of a real trace; the linter notices."""
    path = tmp_path / "trace.jsonl"
    fig4_session.trace.write_jsonl(path)
    text = path.read_text()
    lines = text.splitlines()
    index = next(i for i, line in enumerate(lines) if '"swap"' in line)
    lines[index] = lines[index][:-2]  # truncate -> unparseable
    path.write_text("\n".join(lines) + "\n")
    findings = lint(TraceSet.load(path), fig4_session.metrics)
    assert findings  # at least TL006 (and TL005 via the lost record)
    assert "TL006" in {f.code for f in findings}


def test_finding_str_includes_cell_and_series():
    recorder = TraceRecorder()
    recorder.set_context(scenario="figX", x=0.25, seed=7, series="swap")
    recorder.emit("iteration", 10.0)
    recorder.emit("iteration", 4.0)
    finding = lint(TraceSet.from_recorder(recorder))[0]
    assert str(finding).startswith("TL001 [figX x=0.25 seed=7 / swap]")
