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
  invariants (TL001-TL007).
* :mod:`repro.obs.report` -- deterministic Markdown run reports and the
  swap-Gantt SVG (also ``python -m repro.obs report``).
* :mod:`repro.obs.runtime` -- the wall-clock runtime telemetry plane.

An :class:`ObsSession` bundles one recorder and one registry.  Code that
wants to *emit* never handles a session directly: it calls the module
helpers (:func:`emit`, :func:`count`, :func:`observe_value`), which are
no-ops unless a session has been activated with :func:`observing`.  The
disabled cost is a single module-global read per call site, and --
guarded by ``benchmarks/test_obs_overhead.py`` -- a disabled run records
exactly zero events.

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

from repro.obs.hooks import SimHooks, TraceHooks
from repro.obs.metrics import DEFAULT_BUCKETS, MetricsRegistry
from repro.obs.trace import TraceRecorder, jsonable

__all__ = [
    "DEFAULT_BUCKETS", "MetricsRegistry", "ObsSession", "PAYBACK_BUCKETS",
    "SimHooks", "TraceHooks", "TraceRecorder", "active", "count", "emit",
    "emit_check", "emit_decision", "emitted_total", "gauge",
    "iteration_sink", "jsonable", "kernel_hooks", "observe_value",
    "observing",
]

#: Bucket bounds for payback-distance histograms (iterations; the
#: implicit overflow bucket absorbs ``+inf`` = "never recouped").
PAYBACK_BUCKETS = (0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0)


class ObsSession:
    """One trace recorder plus one metrics registry."""

    def __init__(self) -> None:
        self.trace = TraceRecorder()
        self.metrics = MetricsRegistry()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<ObsSession {len(self.trace)} records, "
                f"{len(self.metrics)} metrics>")


#: The currently active session (module-level so instrumentation sites
#: need no plumbing).  Mutated only by :func:`observing`.
_ACTIVE: "ObsSession | None" = None

#: Total records emitted through :func:`emit` (and :func:`iteration_sink`
#: sinks) by this process -- the "zero events when disabled" benchmark
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
    previous = _ACTIVE
    # The ambient session is per-process by design: each executor worker
    # activates its own session inside its own interpreter, and the
    # parent merges trace files afterwards.
    _ACTIVE = session  # simflow: disable=SF001
    try:
        yield session
    finally:
        _ACTIVE = previous  # simflow: disable=SF001


def emitted_total() -> int:
    """Records emitted through :func:`emit` (and :func:`iteration_sink`
    sinks) in this process so far."""
    return _EMITTED_TOTAL[0]


def emit(kind: str, t: float, **fields: Any) -> None:
    """Emit one trace record into the active session (no-op if none)."""
    session = _ACTIVE
    if session is None:
        return
    session.trace.emit(kind, t, **fields)
    # Per-process diagnostics counter, never read by sim logic.
    _EMITTED_TOTAL[0] += 1  # simflow: disable=SF001


def iteration_sink(session: ObsSession):
    """The strategy loop's per-iteration emitter, bound to ``session``.

    ``sink(t, source, iteration, start, compute_end, active)`` has the
    effect of ``emit("iteration", t, ...)`` plus
    ``count("strategy.iterations_total")`` (see
    :meth:`TraceRecorder.emit_iteration` for ``active``), with the
    recorder and counter looked up once per run instead of per record.
    """
    record = session.trace.emit_iteration
    counter = session.metrics.counter("strategy.iterations_total")

    def sink(t, source, iteration, start, compute_end, active):
        record(t, source, iteration, start, compute_end, active)
        counter.inc()
        # Per-process diagnostics counter, never read by sim logic.
        _EMITTED_TOTAL[0] += 1  # simflow: disable=SF001

    return sink


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
    _EMITTED_TOTAL[0] += 1  # simflow: disable=SF001
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
    _EMITTED_TOTAL[0] += 1  # simflow: disable=SF001
    metrics = session.metrics
    metrics.counter("decision.epochs_total").inc()
    if check.accepted:
        metrics.histogram("decision.payback_iterations",
                          PAYBACK_BUCKETS).observe(check.payback)
    else:
        metrics.counter("decision.epochs_rejected_total").inc()


def kernel_hooks() -> "TraceHooks | None":
    """Hooks for a new :class:`~repro.simkernel.engine.Simulator`, bound
    to the active session -- or ``None`` (keep the kernel unhooked) when
    nothing is observing."""
    session = _ACTIVE
    if session is None:
        return None
    return TraceHooks(session)
