"""The one-pass record builders of :class:`repro.obs.SessionSink` are
pinned to the reference: for the same fields each appends the record
``TraceRecorder.emit(kind, t, **fields)`` appends (same keys, same
order, same values) and counts what :class:`repro.obs.RecordSink`
counts through ``obs.emit``/``obs.count``."""

import json
import pickletools
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import obs
from repro.core.decision import (GateOutcome, ReconfigurationCheck,
                                 SwapDecision, SwapMove)
from repro.errors import ObservabilityError
from repro.obs.trace import TraceRecorder, exact, frozen, jsonable, thawed

CONTEXT = {"scenario": "ext-faults", "x": 0.5, "seed": 3,
           "series": "swap-greedy"}


class Hosts(NamedTuple):
    first: int
    second: int
    third: int


# -- strategies ------------------------------------------------------------

finite = st.floats(allow_nan=False, allow_infinity=False)
#: Finite, infinite and NaN floats, some as numpy scalars.
anyfloat = st.one_of(
    finite, st.sampled_from([float("inf"), float("-inf"), float("nan")]),
    finite.map(np.float64),
    st.sampled_from([np.float64("inf"), np.float64("nan")]))
#: Paybacks a histogram accepts: finite or infinite, never NaN.
payback = st.one_of(finite, st.sampled_from([float("inf"), float("-inf")]),
                    finite.map(np.float64))
maybe = st.one_of(st.none(), anyfloat)
host = st.integers(min_value=0, max_value=63)
hosts = st.one_of(
    st.lists(host, max_size=6),
    st.lists(host, max_size=6).map(tuple),
    st.tuples(host, host, host).map(lambda t: Hosts(*t)))
times = st.one_of(finite, st.sampled_from([float("inf"), float("nan")]),
                  finite.map(np.float64), st.integers(0, 10**6))

moves = st.lists(st.builds(SwapMove, host, host, anyfloat, anyfloat, payback),
                 max_size=3).map(tuple)
gates = st.lists(st.builds(GateOutcome, host, host,
                           st.sampled_from(["process", "application",
                                            "accepted"]),
                           st.booleans(), st.text(max_size=8), anyfloat,
                           maybe, maybe), max_size=4).map(tuple)
decisions = st.builds(SwapDecision, moves, anyfloat, anyfloat,
                      st.text(max_size=8), gates)
checks = st.one_of(
    st.builds(ReconfigurationCheck, st.just(True), anyfloat, payback,
              st.just("")),
    st.builds(ReconfigurationCheck, st.just(False), anyfloat, anyfloat,
              st.text(max_size=8)))


# -- helpers ---------------------------------------------------------------

def _dumps(records):
    """Records as JSON in insertion order: equal key order, equal bytes."""
    return [json.dumps(r) for r in records]


def _reference(kind, t, **fields) -> TraceRecorder:
    ref = TraceRecorder()
    ref.set_context(**CONTEXT)
    ref.emit(kind, t, **fields)
    return ref


def _both(emit):
    """Run ``emit(sink)`` on a :class:`SessionSink` and on the reference
    :class:`RecordSink`, each in a fresh session; return both sessions
    and how far :func:`obs.emitted_total` advanced for the fast one."""
    fast, slow = obs.ObsSession(), obs.ObsSession()
    for session in (fast, slow):
        session.trace.set_context(**CONTEXT)
    # A SessionSink binds the loop's iteration counter at run start.
    slow.metrics.counter("strategy.iterations_total")
    sink = obs.SessionSink(fast)
    before = obs.emitted_total()
    emit(sink)
    emitted = obs.emitted_total() - before
    with obs.observing(slow):
        emit(obs.RecordSink())
    return fast, slow, emitted


def _assert_same(fast, slow, ref):
    assert _dumps(fast.trace.records) == _dumps(ref.records)
    assert _dumps(slow.trace.records) == _dumps(ref.records)
    assert fast.metrics.to_json() == slow.metrics.to_json()


# -- builders vs TraceRecorder.emit ----------------------------------------

@settings(max_examples=200, deadline=None)
@given(t=times, iteration=st.integers(0, 999), decision=decisions,
       active=hosts, spares=hosts)
def test_decision_builder_is_emit(t, iteration, decision, active, spares):
    fast, slow, emitted = _both(lambda sink: sink.decision(
        t, "swap-greedy", iteration, "greedy", decision, active, spares))
    ref = _reference(
        "decision", t, source="swap-greedy", iteration=iteration,
        policy="greedy", active=list(active), spares=list(spares),
        old_iteration_time=decision.old_iteration_time,
        new_iteration_time=decision.new_iteration_time,
        accepted=bool(decision.moves),
        rejected_reason=decision.rejected_reason,
        moves=[{"out_host": m.out_host, "in_host": m.in_host,
                "process_improvement": m.process_improvement,
                "app_improvement": m.app_improvement,
                "payback": m.payback} for m in decision.moves],
        gates=[g.to_record() for g in decision.gates])
    _assert_same(fast, slow, ref)
    assert emitted == 1


@settings(max_examples=200, deadline=None)
@given(t=times, check=checks, cost=anyfloat, active=hosts, candidate=hosts)
def test_check_builder_is_emit(t, check, cost, active, candidate):
    fast, slow, emitted = _both(lambda sink: sink.check(
        t, "cr", 4, "greedy", check, cost, active, candidate))
    ref = _reference(
        "decision", t, source="cr", iteration=4, policy="greedy",
        active=list(active), candidate=list(candidate), cost=cost,
        accepted=check.accepted, rejected_reason=check.reason,
        app_improvement=check.app_improvement, payback=check.payback)
    _assert_same(fast, slow, ref)
    assert emitted == 1


@settings(max_examples=200, deadline=None)
@given(t=times, data=st.data())
def test_rebalance_builder_is_emit(t, data):
    active = data.draw(st.lists(host, max_size=6, unique=True))
    chunks = {h: data.draw(anyfloat) for h in active}
    rates = {h: data.draw(anyfloat) for h in active}
    fast, slow, emitted = _both(lambda sink: sink.rebalance(
        t, "dlb", 2, active, chunks, rates))
    ref = _reference(
        "rebalance", t, source="dlb", iteration=2,
        chunks={str(h): chunks[h] for h in active},
        rates={str(h): rates[h] for h in active})
    _assert_same(fast, slow, ref)
    assert emitted == 1


fields = st.dictionaries(
    st.sampled_from(["host", "until", "stalled", "reason", "action",
                     "hosts", "new_active", "cost", "start", "end",
                     "seed"]),
    st.one_of(host, anyfloat, st.text(max_size=6), hosts, st.none(),
              st.booleans()),
    max_size=6)


@settings(max_examples=200, deadline=None)
@given(t=times, kind=st.sampled_from(["swap", "checkpoint",
                                      "fault.revocation", "fault.stall",
                                      "fault.recovery", "fault.return"]),
       fields=fields)
def test_record_builder_is_emit(t, kind, fields):
    # ``seed`` collides with a context key: the field wins, in the
    # context key's position, as in ``emit``.
    fast, slow, emitted = _both(
        lambda sink: sink.record(kind, t, "nothing", 9, fields))
    ref = _reference(kind, t, source="nothing", iteration=9, **fields)
    _assert_same(fast, slow, ref)
    assert emitted == 1


@settings(max_examples=100, deadline=None)
@given(t=times, start=anyfloat, compute_end=anyfloat, active=hosts)
@example(t=3, start=1.0, compute_end=2.5, active=[1, 2])
@example(t=np.float64(3.5), start=np.float64(1.0),
         compute_end=np.float64(2.5), active=[1, 2])
@example(t=4.0, start=1, compute_end=np.float64(2.5), active=(0,))
def test_iteration_builder_is_emit(t, start, compute_end, active):
    shared = frozen(active)
    fast, slow, emitted = _both(lambda sink: sink.iteration(
        t, "cr", 7, start, compute_end, shared))
    ref = _reference("iteration", t, source="cr", iteration=7, start=start,
                     end=t, compute_end=compute_end, active=active)
    # Int and numpy times too: the record holds ``float(t)``, as emit's.
    _assert_same(fast, slow, ref)
    assert type(fast.trace.records[0]["t"]) in (float, str)
    assert emitted == 1


def test_empty_moves_and_none_gates():
    decision = SwapDecision((), 2.0, 2.0, "process", (
        GateOutcome(1, 9, "process", False, "below threshold", 0.01),))
    fast, slow, _ = _both(lambda sink: sink.decision(
        1.0, "swap-greedy", 1, "greedy", decision, [1, 2], [9]))
    record = fast.trace.records[0]
    assert record["moves"] == [] and record["accepted"] is False
    assert record["gates"][0]["app_improvement"] is None
    assert record["gates"][0]["payback"] is None
    assert fast.metrics.to_dict()["counters"][
        "decision.epochs_rejected_total"] == 1.0
    assert _dumps(fast.trace.records) == _dumps(slow.trace.records)


def test_nonfinite_payback_is_spelled_inf():
    inf = float("inf")
    decision = SwapDecision((SwapMove(1, 9, 0.5, inf, inf),), 2.0, 1.0, "",
                            (GateOutcome(1, 9, "accepted", True, "", 0.5,
                                         inf, inf),))
    fast, _slow, _ = _both(lambda sink: sink.decision(
        1.0, "swap-greedy", 1, "greedy", decision, [1], [9]))
    record = fast.trace.records[0]
    assert record["moves"][0]["payback"] == "inf"
    assert record["moves"][0]["app_improvement"] == "inf"
    assert record["gates"][0]["payback"] == "inf"


def test_rows_copy_host_lists_into_tuples():
    active, spares = [1, 2], [3, 4]
    decision = SwapDecision((), 1.0, 1.0, "process", ())
    fast, _slow, _ = _both(lambda sink: sink.decision(
        1.0, "swap-greedy", 1, "greedy", decision, active, spares))
    active.append(5)
    spares.clear()
    (row,) = fast.trace.block
    assert (1, 2) in row and (3, 4) in row
    record = fast.trace.records[0]
    assert record["active"] == [1, 2] and record["spares"] == [3, 4]


def test_builders_reject_what_emit_rejects():
    sink = obs.SessionSink(obs.ObsSession())
    with pytest.raises(ObservabilityError):
        sink.record("fault.stall", 1.0, "nothing", 1, {"host": object()})


# -- rows checked once per block, by the packer ----------------------------

class Real(float):
    """A float subclass, as a caller's own numeric type might be."""


#: Values that are not exact, for the builders to hand to the packer.
#: ``np.int64`` is no ``int``: ``emit`` rejects it.
PLANTED = (float("inf"), float("-inf"), float("nan"), np.float64(2.5),
           np.float64("-inf"), np.int64(3), Real(1.5), Real("nan"),
           Hosts(4, 5, 6))


def _emit_planted(sink, v):
    """One decision, one check and one rebalance, each carrying some of
    the twelve values ``v`` (none where a histogram observes it)."""
    decision = SwapDecision(
        (SwapMove(1, 9, v[0], v[1], 2.0),), v[2], v[3], "",
        (GateOutcome(1, 9, "accepted", True, "", v[4], v[5], v[6]),))
    sink.decision(1.0, "swap-greedy", 1, "greedy", decision, [1, 2], [9])
    sink.check(2.0, "cr", 2, "greedy",
               ReconfigurationCheck(False, v[7], v[8], "gain"), v[9],
               [1, 2], [3])
    sink.rebalance(3.0, "dlb", 3, [1, 2], {1: v[10], 2: 0.5},
                   {1: 1.0, 2: v[11]})


def _exports(recorder):
    return recorder.to_jsonl(), recorder.to_chrome_json()


@settings(max_examples=200, deadline=None)
@given(values=st.lists(finite, min_size=12, max_size=12),
       planted=st.dictionaries(st.integers(0, 11), st.sampled_from(PLANTED),
                               min_size=1, max_size=4))
def test_packer_freezes_what_the_builders_append(values, planted):
    for at, value in planted.items():
        values[at] = value
    fast, slow = obs.ObsSession(), obs.ObsSession()
    for session in (fast, slow):
        session.trace.set_context(**CONTEXT)
    _emit_planted(obs.SessionSink(fast), values)
    try:
        with obs.observing(slow):
            _emit_planted(obs.RecordSink(), values)
    except ObservabilityError:
        # emit rejects the value at once; the builders' rows when their
        # block is read or closed.
        with pytest.raises(ObservabilityError):
            fast.trace.to_jsonl()
        with pytest.raises(ObservabilityError):
            fast.trace.take()
        return
    want = _exports(slow.trace)
    assert _exports(fast.trace) == want  # read from the open block
    rows = fast.trace.take()
    for _context, _count, packed in rows.blocks:
        opcodes = {op.name for op, _arg, _at in pickletools.genops(packed)}
        assert not opcodes & {"GLOBAL", "STACK_GLOBAL", "REDUCE"}
    closed = TraceRecorder()
    closed.extend(rows)
    assert _exports(closed) == want  # read from the packed block


def test_a_gate_value_emit_rejects_raises_by_take():
    decision = SwapDecision((), 1.0, 1.0, "process", (
        GateOutcome(1, 9, "process", False, "below threshold", object()),))
    session = obs.ObsSession()
    session.trace.set_context(**CONTEXT)
    obs.SessionSink(session).decision(1.0, "swap-greedy", 1, "greedy",
                                      decision, [1], [9])
    with pytest.raises(ObservabilityError):
        session.trace.take()


# -- frozen ----------------------------------------------------------------

json_values = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), st.text(max_size=4),
              anyfloat),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4), st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(st.text(max_size=3), inner, max_size=4),
        st.lists(st.fixed_dictionaries({"a": inner, "b": inner}),
                 max_size=3)),
    max_leaves=12)


def _mutable(value) -> bool:
    if isinstance(value, (list, dict)):
        return True
    return isinstance(value, tuple) and any(map(_mutable, value))


@settings(max_examples=300, deadline=None)
@given(json_values)
def test_frozen_holds_nothing_mutable_and_thaws_to_json(value):
    # What a row holds: no list or dict, however deep, and it reads back
    # as the JSON value jsonable spells, byte for byte.
    held = frozen(value)
    assert not _mutable(held)
    assert frozen(held) == held  # a packed block may be frozen again
    assert thawed(held) == jsonable(value)
    assert json.dumps(thawed(held)) == json.dumps(jsonable(value))
    assert json.loads(json.dumps(thawed(held))) == thawed(held)


@settings(max_examples=300, deadline=None)
@given(st.lists(json_values, max_size=4))
def test_exact_values_are_what_frozen_keeps(values):
    # ``exact`` admits a value only if ``frozen`` returns it unchanged
    # (lists and dicts are never exact; tuples compare equal).
    if exact(values):
        for value in values:
            assert frozen(value) == value
            assert json.dumps(thawed(frozen(value))) == json.dumps(value)


def test_exact_rejects_what_frozen_converts():
    for value in (float("inf"), float("nan"), np.float64(1.0), [1, 2],
                  {"a": 1.0}, (1, float("-inf")), Hosts(1, 2, 3), object()):
        assert not exact([value])
    assert exact([1, "a", 2.5, None, True, (3, (4.0,))])
    assert exact([])


def test_frozen_and_thawed_round_trip_nested_values():
    value = {1: [float("inf"), (2.0, {"k": [None]})], "e": {}, "l": []}
    assert thawed(frozen(value)) == {"1": ["inf", [2.0, {"k": [None]}]],
                                     "e": {}, "l": []}
    # A list whose first item is a tuple of strings is still a list.
    assert thawed(frozen([("a", "b"), 1])) == [["a", "b"], 1]
    # Each dict is a frozen mapping; dicts with the same keys share one
    # key tuple.
    held = frozen([{"a": 1, "b": (2,)}, {"a": 3, "b": (4,)}])
    assert held[0][0] is held[1][0]
    assert thawed(held) == [{"a": 1, "b": [2]}, {"a": 3, "b": [4]}]
    assert thawed(frozen([{"a": 1}, {"b": 2}, {}])) == [{"a": 1}, {"b": 2},
                                                         {}]
