"""repro.obs -- deterministic run-trace and metrics observability.

The paper's contribution is *why* a policy swaps or declines at each
epoch; this package makes that visible.  The package itself is the
*core* the model imports -- the session, the emit helpers and three
layers:

* :mod:`repro.obs.trace` -- :class:`TraceRecorder`: structured records
  in execution order, exported as JSONL or Chrome trace-event JSON.
  All timestamps are simulated time, so traces are byte-stable.
* :mod:`repro.obs.metrics` -- :class:`MetricsRegistry`: counters,
  gauges, histograms with a deterministic merge.
* :mod:`repro.obs.hooks` -- :class:`SimHooks`: the kernel's
  instrumentation points (event scheduled/fired, process start/stop).

The tooling that reads what the core recorded is not imported here, so
a simulation never loads it; import it by module name where it is used:

* :mod:`repro.obs.analyze` -- ``TraceSet``: load traces back into
  records, query them, derive analytics, and ``lint`` the TL
  invariants.
* :mod:`repro.obs.report` -- deterministic Markdown run reports and the
  swap-Gantt SVG (also ``python -m repro.obs report``).
* :mod:`repro.obs.runtime` -- the wall-clock runtime telemetry plane.

An :class:`ObsSession` bundles one recorder and one registry.  Code that
wants to *emit* never handles a session directly: it calls the module
helpers (:func:`emit`, :func:`count`, :func:`observe_value`), which are
no-ops unless a session has been activated with :func:`observing`.  The
disabled cost is a single module-global read per call site, and --
guarded by ``benchmarks/test_obs_overhead.py`` -- a disabled run records
exactly zero events.  The strategy loop is the exception: its run
binds one :class:`SessionSink` (via :func:`repro.simkernel.plan.lower`)
that builds each of its records in one pass, with
:class:`RecordSink` -- the module helpers -- as the reference.

Usage::

    session = ObsSession()
    with observing(session):
        strategy.run(platform, app)
    session.trace.write_jsonl("trace.jsonl")
    session.metrics.write_json("metrics.json")
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Iterator

from repro.errors import ObservabilityError
from repro.obs.hooks import SimHooks, TraceHooks
from repro.obs.metrics import DEFAULT_BUCKETS, MetricsRegistry
from repro.obs.trace import (CONTEXT, TraceRecorder, exact, jsonable,
                             make_row, shape)

__all__ = [
    "DEFAULT_BUCKETS", "MetricsRegistry", "ObsSession", "PAYBACK_BUCKETS",
    "SimHooks", "TraceHooks", "TraceRecorder", "active", "count", "emit",
    "RecordSink", "SessionSink", "emit_check", "emit_decision",
    "emitted_total", "gauge", "jsonable", "kernel_hooks",
    "observe_value", "observing",
]

#: Bucket bounds for payback-distance histograms (iterations; the
#: implicit overflow bucket absorbs ``+inf`` = "never recouped").
PAYBACK_BUCKETS = (0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0)


class ObsSession:
    """One trace recorder plus one metrics registry.

    ``records=False`` makes a session that holds metrics only: its
    ``trace`` is ``None``, so a sweep folded into it keeps no records.
    Such a session is a fold target; :func:`observing` refuses it.
    """

    def __init__(self, records: bool = True) -> None:
        self.trace = TraceRecorder() if records else None
        self.metrics = MetricsRegistry()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<ObsSession {len(self.trace or ())} records, "
                f"{len(self.metrics)} metrics>")


#: The currently active session (module-level so instrumentation sites
#: need no plumbing).  Mutated only by :func:`observing`.
_ACTIVE: "ObsSession | None" = None

#: Total records emitted through :func:`emit` (and :class:`SessionSink`
#: builders) by this process -- the "zero events when disabled" benchmark
#: assertion reads this.
_EMITTED_TOTAL = [0]


def active() -> "ObsSession | None":
    """The session instrumentation currently emits into, or ``None``."""
    return _ACTIVE


@contextmanager
def observing(session: ObsSession) -> Iterator[ObsSession]:
    """Activate ``session`` for the duration of the block (re-entrant:
    the previous session, if any, is restored on exit)."""
    global _ACTIVE
    if session.trace is None:
        raise ObservabilityError("a metrics-only session cannot be observed")
    previous = _ACTIVE
    # The ambient session is per-process by design: each executor worker
    # activates its own session inside its own interpreter, and the
    # parent merges trace files afterwards.
    _ACTIVE = session
    try:
        yield session
    finally:
        _ACTIVE = previous


def emitted_total() -> int:
    """Records emitted through :func:`emit` (and :class:`SessionSink`
    builders) in this process so far."""
    return _EMITTED_TOTAL[0]


def emit(kind: str, t: float, **fields: Any) -> None:
    """Emit one trace record into the active session (no-op if none)."""
    session = _ACTIVE
    if session is None:
        return
    session.trace.emit(kind, t, **fields)
    # Per-process diagnostics counter, never read by sim logic.
    _EMITTED_TOTAL[0] += 1


def count(name: str, amount: float = 1.0) -> None:
    """Increment a counter in the active session (no-op if none)."""
    session = _ACTIVE
    if session is None:
        return
    session.metrics.counter(name).inc(amount)


def gauge(name: str, value: float) -> None:
    """Set a gauge in the active session (no-op if none)."""
    session = _ACTIVE
    if session is None:
        return
    session.metrics.gauge(name).set(value)


def observe_value(name: str, value: float,
                  bounds=DEFAULT_BUCKETS) -> None:
    """Observe into a histogram in the active session (no-op if none)."""
    session = _ACTIVE
    if session is None:
        return
    session.metrics.histogram(name, bounds).observe(value)


def emit_decision(t: float, *, source: str, iteration: int, policy: str,
                  decision: Any, active, spares) -> None:
    """Emit one swap decision epoch: the full gate trail, the accepted
    moves, and the reason the batch ended.

    ``decision`` is a :class:`repro.core.decision.SwapDecision`
    (duck-typed here so the core stays free of observability imports).
    No-op unless a session is observing.
    """
    session = _ACTIVE
    if session is None:
        return
    moves = [{"out_host": m.out_host, "in_host": m.in_host,
              "process_improvement": m.process_improvement,
              "app_improvement": m.app_improvement,
              "payback": m.payback} for m in decision.moves]
    session.trace.emit(
        "decision", t, source=source, iteration=iteration, policy=policy,
        active=list(active), spares=list(spares),
        old_iteration_time=decision.old_iteration_time,
        new_iteration_time=decision.new_iteration_time,
        accepted=bool(decision.moves),
        rejected_reason=decision.rejected_reason,
        moves=moves, gates=[g.to_record() for g in decision.gates])
    # Per-process diagnostics counter, never read by sim logic.
    _EMITTED_TOTAL[0] += 1
    metrics = session.metrics
    metrics.counter("decision.epochs_total").inc()
    metrics.counter("decision.gates_evaluated_total").inc(
        len(decision.gates))
    if decision.moves:
        metrics.counter("decision.moves_total").inc(len(decision.moves))
        for move in decision.moves:
            metrics.histogram("decision.payback_iterations",
                              PAYBACK_BUCKETS).observe(move.payback)
    else:
        metrics.counter("decision.epochs_rejected_total").inc()


def emit_check(t: float, *, source: str, iteration: int, policy: str,
               check: Any, cost: float, active, candidate) -> None:
    """Emit one whole-set reconfiguration check (the CR strategy's gate).

    ``check`` is a :class:`repro.core.decision.ReconfigurationCheck`.
    No-op unless a session is observing.
    """
    session = _ACTIVE
    if session is None:
        return
    session.trace.emit(
        "decision", t, source=source, iteration=iteration, policy=policy,
        active=list(active), candidate=list(candidate), cost=cost,
        accepted=check.accepted, rejected_reason=check.reason,
        app_improvement=check.app_improvement, payback=check.payback)
    # Per-process diagnostics counter, never read by sim logic.
    _EMITTED_TOTAL[0] += 1
    metrics = session.metrics
    metrics.counter("decision.epochs_total").inc()
    if check.accepted:
        metrics.histogram("decision.payback_iterations",
                          PAYBACK_BUCKETS).observe(check.payback)
    else:
        metrics.counter("decision.epochs_rejected_total").inc()


class RecordSink:
    """The strategy loop's record emitters, through :func:`emit` and
    :func:`count` -- the reference the one-pass :class:`SessionSink`
    builders are pinned to.

    Each method emits one record (no-op unless a session is observing):

    * ``iteration(t, source, iteration, start, compute_end, active)`` --
      ``emit("iteration", t, ..., end=t, ...)`` and the
      ``strategy.iterations_total`` count;
    * ``decision(...)`` / ``check(...)`` -- :func:`emit_decision` /
      :func:`emit_check`;
    * ``rebalance(t, source, iteration, active, chunks, rates)`` -- DLB's
      partition over ``active``, its host-keyed maps spelled with ``str``
      keys, and the ``dlb.rebalances_total`` count;
    * ``record(kind, t, source, iteration, fields)`` --
      ``emit(kind, t, source=source, iteration=iteration, **fields)``;
    * ``count(name, amount=1.0)`` -- :func:`count`.

    :func:`repro.simkernel.plan.lower` binds one sink per run: this one
    on generic plans (inside ``disable_lowering()``, so the oracle runs
    keep :meth:`TraceRecorder.emit` as the reference), a
    :class:`SessionSink` on lowered plans with a session, and none on
    lowered plans without one.
    """

    __slots__ = ()

    def iteration(self, t, source, iteration, start, compute_end, active):
        emit("iteration", t, source=source, iteration=iteration,
             start=start, end=t, compute_end=compute_end, active=active)
        count("strategy.iterations_total")

    def decision(self, t, source, iteration, policy, decision, active,
                 spares):
        emit_decision(t, source=source, iteration=iteration, policy=policy,
                      decision=decision, active=active, spares=spares)

    def check(self, t, source, iteration, policy, check, cost, active,
              candidate):
        emit_check(t, source=source, iteration=iteration, policy=policy,
                   check=check, cost=cost, active=active,
                   candidate=candidate)

    def rebalance(self, t, source, iteration, active, chunks, rates):
        if _ACTIVE is None:
            return
        emit("rebalance", t, source=source, iteration=iteration,
             chunks={str(h): chunks[h] for h in active},
             rates={str(h): rates[h] for h in active})
        count("dlb.rebalances_total")

    def record(self, kind, t, source, iteration, fields):
        emit(kind, t, source=source, iteration=iteration, **fields)

    def count(self, name, amount=1.0):
        count(name, amount)


class _Counters(dict):
    """Name -> :class:`~repro.obs.metrics.Counter` of one registry,
    each looked up (and so created) on first use, then held."""

    def __init__(self, registry: MetricsRegistry) -> None:
        super().__init__()
        self.registry = registry

    def __missing__(self, name: str):
        counter = self[name] = self.registry.counter(name)
        return counter


#: Row key tuples of the records the one-pass builders make.
_DECISION = shape(("kind", "t", CONTEXT, "source", "iteration", "policy",
                   "active", "spares", "old_iteration_time",
                   "new_iteration_time", "accepted", "rejected_reason",
                   "moves", "gates"))
_CHECK = shape(("kind", "t", CONTEXT, "source", "iteration", "policy",
                "active", "candidate", "cost", "accepted", "rejected_reason",
                "app_improvement", "payback"))
_REBALANCE = shape(("kind", "t", CONTEXT, "source", "iteration", "chunks",
                    "rates"))


def _mappings(items: "list[tuple]") -> tuple:
    """NamedTuples of one type as the frozen list of their field dicts."""
    if not items:
        return ()
    keys = shape(type(items[0])._fields)
    return tuple([(keys, *item) for item in items])


class SessionSink(RecordSink):
    """:class:`RecordSink` bound to ``session``: each record is built in
    one pass, as one row with :meth:`TraceRecorder.emit`'s keys, and
    appended to the session's recorder.

    The ``decision``, ``check`` and ``rebalance`` builders append their
    values as given (host sequences copied into tuples, ``t`` made a
    ``float``); the block's packer checks them once, when the block
    closes, and freezes a block holding any value that is not of an
    exact builtin type (see :func:`repro.obs.trace._packed`).  A value
    ``emit`` would reject thus raises
    :class:`~repro.errors.ObservabilityError` by the time the block is
    closed or read, not when it is appended.  The ``iteration`` and
    ``record`` builders check their values as they build the row, and
    hand any record that is not exact to :meth:`TraceRecorder.emit`,
    the reference.  Either way the record reads back equal to the one
    ``emit`` appends, advances :func:`emitted_total` by one, and the
    counts match the reference's.  The recorder and registry are bound
    once per run and each counter on first use (so a metric appears
    only once counted, as with the reference).
    """

    __slots__ = ("_trace", "_emit_iteration", "_counts", "_histogram",
                 "_iterations", "_keys_for", "_keys")

    def __init__(self, session: ObsSession) -> None:
        self._trace = session.trace
        self._emit_iteration = session.trace.emit_iteration
        self._counts = _Counters(session.metrics)
        self._histogram = session.metrics.histogram
        self._iterations = self._counts["strategy.iterations_total"]
        # DLB's key tuple of str hosts, kept while its member set is
        # unchanged.
        self._keys_for: "list[int] | None" = None
        self._keys = shape(())

    def iteration(self, t, source, iteration, start, compute_end, active):
        self._emit_iteration(t, source, iteration, start, compute_end,
                             active)
        self._iterations.value += 1.0
        # Per-process diagnostics counter, never read by sim logic.
        _EMITTED_TOTAL[0] += 1

    def decision(self, t, source, iteration, policy, decision, active,
                 spares):
        moves = decision.moves
        gates = decision.gates
        active = tuple(active)
        spares = tuple(spares)
        old = decision.old_iteration_time
        new = decision.new_iteration_time
        reason = decision.rejected_reason
        if type(t) is not float:
            t = float(t)
        # A move's record and a gate's are its fields, in order (the
        # reference spells them out; tests/obs/test_sink.py pins this),
        # so each is frozen as its fields' key tuple and its values.
        self._trace.block.append((
            _DECISION, "decision", t, source, iteration, policy, active,
            spares, old, new, bool(moves), reason,
            _mappings(moves), _mappings(gates)))
        # Per-process diagnostics counter, never read by sim logic.
        _EMITTED_TOTAL[0] += 1
        counts = self._counts
        counts["decision.epochs_total"].value += 1.0
        counts["decision.gates_evaluated_total"].value += len(gates)
        if moves:
            counts["decision.moves_total"].value += len(moves)
            histogram = self._histogram("decision.payback_iterations",
                                        PAYBACK_BUCKETS)
            for move in moves:
                histogram.observe(move.payback)
        else:
            counts["decision.epochs_rejected_total"].value += 1.0

    def check(self, t, source, iteration, policy, check, cost, active,
              candidate):
        active = tuple(active)
        candidate = tuple(candidate)
        accepted = check.accepted
        reason = check.reason
        gain = check.app_improvement
        payback = check.payback
        if type(t) is not float:
            t = float(t)
        self._trace.block.append((
            _CHECK, "decision", t, source, iteration, policy, active,
            candidate, cost, accepted, reason, gain, payback))
        # Per-process diagnostics counter, never read by sim logic.
        _EMITTED_TOTAL[0] += 1
        counts = self._counts
        counts["decision.epochs_total"].value += 1.0
        if accepted:
            self._histogram("decision.payback_iterations",
                            PAYBACK_BUCKETS).observe(payback)
        else:
            counts["decision.epochs_rejected_total"].value += 1.0

    def rebalance(self, t, source, iteration, active, chunks, rates):
        if active != self._keys_for:
            self._keys = shape(tuple(map(str, active)))
            self._keys_for = list(active)
        keys = self._keys
        shares = tuple(map(chunks.__getitem__, active))
        speeds = tuple(map(rates.__getitem__, active))
        if type(t) is not float:
            t = float(t)
        self._trace.block.append((_REBALANCE, "rebalance", t, source,
                                  iteration, (keys, *shares),
                                  (keys, *speeds)))
        # Per-process diagnostics counter, never read by sim logic.
        _EMITTED_TOTAL[0] += 1
        self._counts["dlb.rebalances_total"].value += 1.0

    def record(self, kind, t, source, iteration, fields):
        trace = self._trace
        if type(t) is float \
                and exact((t, source, iteration, *fields.values())):
            trace.block.append(make_row(kind, t, {
                "source": source, "iteration": iteration, **fields}))
        else:
            trace.emit(kind, t, source=source, iteration=iteration,
                       **fields)
        # Per-process diagnostics counter, never read by sim logic.
        _EMITTED_TOTAL[0] += 1

    def count(self, name, amount=1.0):
        self._counts[name].inc(amount)


def kernel_hooks() -> "TraceHooks | None":
    """Hooks for a new :class:`~repro.simkernel.engine.Simulator`, bound
    to the active session -- or ``None`` (keep the kernel unhooked) when
    nothing is observing."""
    session = _ACTIVE
    if session is None:
        return None
    return TraceHooks(session)
