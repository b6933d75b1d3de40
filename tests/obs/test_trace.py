"""Tests for the trace recorder and its JSONL / Chrome exports."""

import json
import math
import pickle
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ObservabilityError
from repro.obs.trace import TraceRecorder, TraceRows, frozen, jsonable, thawed


# -- jsonable -------------------------------------------------------------------

def test_jsonable_passes_plain_values():
    assert jsonable(1.5) == 1.5
    assert jsonable(3) == 3
    assert jsonable("x") == "x"
    assert jsonable(None) is None
    assert jsonable(True) is True


def test_jsonable_spells_nonfinite_floats():
    assert jsonable(float("inf")) == "inf"
    assert jsonable(float("-inf")) == "-inf"
    assert jsonable(float("nan")) == "nan"


def test_jsonable_recurses_into_containers():
    assert jsonable({1: [float("inf"), (2.0,)]}) == {"1": ["inf", [2.0]]}


def test_jsonable_rejects_arbitrary_objects():
    with pytest.raises(ObservabilityError):
        jsonable(object())


# -- TraceRecorder --------------------------------------------------------------

def test_emit_records_in_order_with_context():
    recorder = TraceRecorder()
    recorder.set_context(scenario="s", x=1.0, seed=0, series="a")
    recorder.emit("decision", 3.0, accepted=True)
    recorder.emit("swap", 4.0, out_host=1, in_host=2)
    assert len(recorder) == 2
    assert recorder.records[0] == {
        "kind": "decision", "t": 3.0, "scenario": "s", "x": 1.0,
        "seed": 0, "series": "a", "accepted": True}
    assert recorder.records[1]["kind"] == "swap"


def test_context_replacement_does_not_touch_old_records():
    recorder = TraceRecorder()
    recorder.set_context(series="a")
    recorder.emit("e", 0.0)
    recorder.set_context(series="b")
    recorder.emit("e", 1.0)
    assert [r["series"] for r in recorder.records] == ["a", "b"]


def test_jsonl_is_parseable_and_byte_stable():
    def build() -> TraceRecorder:
        recorder = TraceRecorder()
        recorder.set_context(scenario="s", x=0.5, seed=1, series="swap")
        recorder.emit("decision", 60.0, payback=float("inf"),
                      gates=[{"gate": "process", "accepted": False}])
        return recorder

    text = build().to_jsonl()
    assert text == build().to_jsonl()
    lines = text.strip().split("\n")
    assert len(lines) == 1
    parsed = json.loads(lines[0])
    assert parsed["payback"] == "inf"
    assert parsed["gates"][0]["gate"] == "process"


def test_empty_recorder_exports_empty_jsonl():
    assert TraceRecorder().to_jsonl() == ""


def test_write_jsonl(tmp_path):
    recorder = TraceRecorder()
    recorder.emit("e", 1.0)
    path = tmp_path / "trace.jsonl"
    recorder.write_jsonl(path)
    assert json.loads(path.read_text())["kind"] == "e"
    assert path.read_text() == recorder.to_jsonl()


# -- Chrome export --------------------------------------------------------------

def _sample_recorder() -> TraceRecorder:
    recorder = TraceRecorder()
    recorder.set_context(scenario="fig4", x=0.5, seed=0, series="nothing")
    recorder.emit("iteration", 70.0, iteration=1, start=10.0, end=70.0)
    recorder.set_context(scenario="fig4", x=0.5, seed=0, series="swap-greedy")
    recorder.emit("decision", 70.0, iteration=1, accepted=False,
                  rejected_reason="no application improvement")
    recorder.set_context(scenario="fig4", x=0.7, seed=1, series="swap-greedy")
    recorder.emit("swap", 75.0, out_host=1, in_host=2, start=70.0, end=75.0)
    return recorder


def test_chrome_export_structure():
    doc = _sample_recorder().to_chrome()
    events = doc["traceEvents"]
    phases = [e["ph"] for e in events]
    # Two cells and three series -> 2 process + 3 thread metadata events.
    assert phases.count("M") == 5
    complete = [e for e in events if e["ph"] == "X"]
    assert len(complete) == 2  # iteration + swap carry start/end
    iteration = next(e for e in complete if e["cat"] == "iteration")
    assert iteration["ts"] == pytest.approx(10.0 * 1e6)
    assert iteration["dur"] == pytest.approx(60.0 * 1e6)
    instants = [e for e in events if e["ph"] == "i"]
    assert len(instants) == 1
    assert instants[0]["cat"] == "decision"
    assert instants[0]["args"]["rejected_reason"] == (
        "no application improvement")


def test_chrome_cells_get_distinct_pids_and_series_distinct_tids():
    doc = _sample_recorder().to_chrome()
    data = [e for e in doc["traceEvents"] if e["ph"] != "M"]
    pids = {e["pid"] for e in data}
    tids = {(e["pid"], e["tid"]) for e in data}
    assert len(pids) == 2
    assert len(tids) == 3


def test_chrome_json_is_valid_and_byte_stable(tmp_path):
    recorder = _sample_recorder()
    assert recorder.to_chrome_json() == _sample_recorder().to_chrome_json()
    path = tmp_path / "trace.json"
    recorder.write_chrome(path)
    doc = json.loads(path.read_text())
    assert "traceEvents" in doc and doc["displayTimeUnit"] == "ms"
    assert path.read_text() == recorder.to_chrome_json()


@pytest.mark.parametrize("recorder", [TraceRecorder(), _sample_recorder()])
def test_streamed_chrome_json_is_the_whole_documents_dump(recorder):
    assert recorder.to_chrome_json() == json.dumps(
        recorder.to_chrome(), sort_keys=True, separators=(",", ":")) + "\n"


# -- the loop's iteration record ---------------------------------------------


@pytest.mark.parametrize("times", [
    (12.5, 2.0, 11.0),
    (float("inf"), 2.0, 11.0),
    (12.5, float("nan"), 11.0),
    (12.5, 2.0, float("-inf")),
])
def test_emit_iteration_is_emit_with_the_same_keys_in_order(times):
    t, start, compute_end = times
    fast, ref = TraceRecorder(), TraceRecorder()
    for rec in (fast, ref):
        rec.set_context(scenario="s", x=0.5, seed=3, series="cr")
    fast.emit_iteration(t, "cr", 7, start, compute_end, (4, 1, 9))
    ref.emit("iteration", t, source="cr", iteration=7, start=start, end=t,
             compute_end=compute_end, active=(4, 1, 9))
    assert [json.dumps(r) for r in fast.records] == \
        [json.dumps(r) for r in ref.records]
    assert fast.to_jsonl() == ref.to_jsonl()


def test_emit_iteration_shares_the_callers_active_tuple():
    rec = TraceRecorder()
    active = (0, 2)
    rec.emit_iteration(1.0, "swap", 1, 0.0, 0.5, active)
    rec.emit_iteration(2.0, "swap", 2, 1.0, 1.5, active)
    first, second = rec.block
    assert first[-1] is second[-1] is active
    assert [r["active"] for r in rec.records] == [[0, 2], [0, 2]]


# -- packed blocks --------------------------------------------------------------

scalars = st.one_of(st.none(), st.booleans(), st.integers(-2**70, 2**70),
                    st.floats(), st.text(max_size=6))
values = st.recursive(scalars, lambda inner: st.one_of(
    st.lists(inner, max_size=4), st.lists(inner, max_size=4).map(tuple),
    st.dictionaries(st.text(max_size=4), inner, max_size=4)),
    max_leaves=16)


def _json_form(value):
    """What a record value exports as, spelled out independently."""
    if isinstance(value, float):
        if math.isnan(value):
            return "nan"
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        return value
    if isinstance(value, dict):
        return {key: _json_form(v) for key, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_form(v) for v in value]
    return value


@settings(max_examples=300, deadline=None)
@given(value=values)
def test_frozen_values_survive_packing(value):
    got = thawed(pickle.loads(pickle.dumps(frozen(value), 5)))
    # Same values, same dict key order.
    assert json.dumps(got) == json.dumps(_json_form(value))


finite = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def records(draw):
    t = draw(finite)
    record = {"kind": draw(st.sampled_from(["iteration", "decision"])),
              "t": t, "series": draw(st.sampled_from(["swap", "cr"]))}
    if draw(st.booleans()):
        record["end"] = draw(st.one_of(st.just(t), finite))
    record["v"] = draw(values)
    return record


@settings(max_examples=200, deadline=None)
@given(trace=st.lists(records(), max_size=12))
def test_trace_rows_equal_their_unpacked_records(trace):
    rows = TraceRows.from_records(trace, ("series",))
    assert rows.open is None
    assert all(type(packed) is bytes for _ctx, _n, packed in rows.blocks)
    with mock.patch.object(pickle, "loads",
                           side_effect=AssertionError("len decoded")):
        assert len(rows) == len(trace)
    assert rows == [_json_form(record) for record in trace]
    # Iteration unpacks one block at a time.
    with mock.patch.object(pickle, "loads", wraps=pickle.loads) as loads:
        next(iter(rows), None)
    assert loads.call_count == min(len(rows.blocks), 1)
