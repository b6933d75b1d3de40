"""Each kept trace-lint rule, flagging the planted mutant that earned it
its place.

``docs/OBSERVABILITY.md`` ("Every TL rule earns its place") plants one
instance of every TL code's hazard in the model's record emitters and
records which gates catch it.  The mutants below are the ones no other
gate catches: reruns, ``--jobs 1`` vs ``--jobs 2``, the lowering oracle,
the goldens regenerated from the mutant and the rest of tier-1 all pass
on them.  Each test swaps the strategy loop's record sink for one that
plants its mutant, traces one small cell, and asserts that the linter
reports exactly that code, so deleting or weakening a kept rule fails
here.  TL004 is kept until a replay of each decision against an eager
rebuild of its rates checks the gate trail instead.  TL006 guards the
trace file, which is input from outside the program (a run killed while
writing it leaves a torn last line), so its fixture tears an export
instead of mutating an emitter.
"""

from dataclasses import replace

import pytest

from repro import obs
from repro.experiments.executor import execute_sweep
from repro.experiments.scenarios import get_scenario
from repro.obs.analyze import TRACE_RULES, TraceSet, lint

#: One ext-faults cell in which SWAP swaps for performance.
CELL = replace(get_scenario("ext-faults"), x_values=(8.0,))
SEEDS = [1]


class _Sink(obs.SessionSink):
    """The lowered record sink, remembering the running iteration's
    start so a mutant can misuse it."""

    __slots__ = ("_start",)

    def iteration(self, t, source, iteration, start, compute_end, active):
        self._start = start
        super().iteration(t, source, iteration, start, compute_end, active)


class SwapAtIterationStart(_Sink):
    """TL001: a swap record stamped with its iteration's start time
    instead of the time the swap ended."""

    __slots__ = ()

    def record(self, kind, t, source, iteration, fields):
        if kind == "swap":
            t = self._start
        super().record(kind, t, source, iteration, fields)


class SwapSliceFromIterationStart(_Sink):
    """TL003: a swap slice starting at its iteration's start rather than
    its end, so it overlaps the iteration slice."""

    __slots__ = ()

    def record(self, kind, t, source, iteration, fields):
        if kind == "swap":
            fields = {**fields, "start": self._start}
        super().record(kind, t, source, iteration, fields)


class GateHostsSwapped(_Sink):
    """TL004: application-level gate entries naming the move's hosts the
    other way round, so the committed moves no longer match them."""

    __slots__ = ()

    def decision(self, t, source, iteration, policy, decision, active,
                 spares):
        gates = tuple(
            gate if gate.gate == "process"
            else gate._replace(out_host=gate.in_host, in_host=gate.out_host)
            for gate in decision.gates)
        super().decision(t, source, iteration, policy,
                         decision._replace(gates=gates), active, spares)


class MovesCountedPerEpoch(_Sink):
    """TL005: ``decision.moves_total`` counting accepted epochs instead
    of the moves they commit."""

    __slots__ = ()

    def decision(self, t, source, iteration, policy, decision, active,
                 spares):
        super().decision(t, source, iteration, policy, decision, active,
                         spares)
        if decision.moves:
            self._counts["decision.moves_total"].value -= (
                len(decision.moves) - 1)


class SecondRecoveryDropped(_Sink):
    """TL007: one ``fault.recovery`` record (the run's second) not
    emitted while the others and every count are, so checks that each
    action recovers at least once, or that a counter covers the records,
    still hold."""

    __slots__ = ("_recoveries",)

    def __init__(self, session) -> None:
        super().__init__(session)
        self._recoveries = 0

    def record(self, kind, t, source, iteration, fields):
        if kind == "fault.recovery":
            self._recoveries += 1
            if self._recoveries == 2:
                return
        super().record(kind, t, source, iteration, fields)


MUTANTS = {
    "TL001": SwapAtIterationStart,
    "TL003": SwapSliceFromIterationStart,
    "TL004": GateHostsSwapped,
    "TL005": MovesCountedPerEpoch,
    "TL007": SecondRecoveryDropped,
}


def _trace_cell(monkeypatch, sink) -> "obs.ObsSession":
    monkeypatch.setattr(obs, "SessionSink", sink)
    session = obs.ObsSession()
    execute_sweep(CELL, seeds=SEEDS, obs_session=session)
    return session


def _lint_cell(monkeypatch, sink) -> "list":
    session = _trace_cell(monkeypatch, sink)
    return lint(TraceSet.from_recorder(session.trace), session.metrics)


def test_every_rule_has_its_mutant():
    assert sorted([*MUTANTS, "TL006"]) == sorted(TRACE_RULES)


def test_unmutated_cell_is_clean(monkeypatch):
    assert _lint_cell(monkeypatch, _Sink) == []


@pytest.mark.parametrize("code", sorted(MUTANTS))
def test_rule_flags_its_planted_mutant(monkeypatch, code):
    findings = _lint_cell(monkeypatch, MUTANTS[code])
    assert findings
    assert {finding.code for finding in findings} == {code}


def test_tl006_flags_a_torn_export(monkeypatch):
    """The export's last record cut short, as a killed writer leaves it,
    linted as ``python -m repro.obs lint FILE`` does."""
    text = _trace_cell(monkeypatch, _Sink).trace.to_jsonl()
    findings = lint(TraceSet.from_jsonl(text.rstrip("\n")[:-20]))
    assert [finding.code for finding in findings] == ["TL006"]
