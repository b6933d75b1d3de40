"""The discrete-event simulation loop.

:class:`Simulator` owns the simulated clock and the event heap.  Events are
ordered by ``(time, priority, sequence)`` so that same-time events run in a
deterministic order, which makes whole simulations reproducible.
"""

from __future__ import annotations

import heapq
from itertools import count
from typing import TYPE_CHECKING, Any, Generator, Iterator, Optional

from repro.errors import SchedulingError, SimulationError
from repro.simkernel.events import NORMAL, Event, Timeout
from repro.simkernel.process import Process

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.obs.hooks import SimHooks

# The event loop is the innermost loop of every simulation; bind the heap
# primitives once so `step`/`_schedule` skip the module-attribute lookups.
_heappush = heapq.heappush
_heappop = heapq.heappop

_INF = float("inf")

#: Process-wide tally of kernel events: discrete events processed by
#: *every* Simulator instance plus load-kernel queries issued by the
#: analytic (iteration-level) simulators.  Orchestration layers (the
#: sweep executor's timing records) read it via
#: :func:`events_processed_total` to report kernel throughput without
#: holding references to the simulators created deep inside a run.
_EVENTS_TOTAL = [0]


def events_processed_total() -> int:
    """Kernel events processed in this process so far.

    Discrete-event loop events plus analytic load-kernel queries (see
    :func:`count_kernel_events`); the sweep executor samples deltas of
    this around each cell, so ``engine_events`` in ``BENCH_sweeps.json``
    measures kernel throughput for *both* simulator families.
    """
    return _EVENTS_TOTAL[0]


def count_kernel_events(n: int) -> None:
    """Credit ``n`` analytic kernel queries to the process-wide tally.

    The iteration-level simulators never enter the event loop; their
    "events" are the exact load-trace queries (availability integrals,
    work advancement) the batch kernels in :mod:`repro.load.kernels`
    answer.  Counting them here gives the sweep benchmarks one
    throughput number covering both simulation styles.
    """
    _EVENTS_TOTAL[0] += n


class Simulator:
    """Discrete-event simulator: clock, heap, and factory methods.

    Examples
    --------
    >>> sim = Simulator()
    >>> def proc(sim):
    ...     yield sim.timeout(3.0)
    ...     return "done"
    >>> p = sim.process(proc(sim))
    >>> sim.run()
    >>> sim.now, p.value
    (3.0, 'done')
    """

    def __init__(self, start_time: float = 0.0,
                 hooks: "SimHooks | None" = None) -> None:
        self._now = float(start_time)
        self._heap: list[tuple[float, int, int, Event]] = []
        self._seq = count()
        #: Number of events processed so far (diagnostic).
        self.processed_events = 0
        #: Observation hooks (:class:`repro.obs.hooks.SimHooks`), or None.
        #: The disabled cost is one ``is not None`` check per operation.
        self.hooks = hooks

    # -- clock ----------------------------------------------------------

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    # -- scheduling -----------------------------------------------------

    def _schedule(self, event: Event, priority: int = NORMAL,
                  delay: float = 0.0) -> None:
        """Insert a triggered event into the heap (internal)."""
        if not 0.0 <= delay < _INF:
            # One range check rejects negatives, NaN and +/-inf: NaN fails
            # every comparison, and a non-finite timestamp silently corrupts
            # the heap's total ordering for every later event.
            if delay < 0:
                raise SchedulingError(
                    f"cannot schedule into the past (delay={delay})")
            raise SchedulingError(
                f"non-finite delay {delay!r} cannot be scheduled")
        if event._scheduled:
            raise SchedulingError(f"{event!r} is already scheduled")
        event._scheduled = True
        seq = next(self._seq)
        _heappush(self._heap, (self._now + delay, priority, seq, event))
        if self.hooks is not None:
            self.hooks.event_scheduled(self._now, self._now + delay,
                                       priority, seq, type(event).__name__)

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none."""
        return self._heap[0][0] if self._heap else float("inf")

    def pending(self) -> "Iterator[Event]":
        """The scheduled events not yet processed, in no set order."""
        return (entry[3] for entry in self._heap)

    def step(self) -> None:
        """Process the single next event."""
        heap = self._heap
        if not heap:
            raise SimulationError("no more events to process")
        when, _prio, seq, event = _heappop(heap)
        if when < self._now:  # pragma: no cover - defensive
            raise SimulationError("event scheduled in the past")
        self._now = when
        if self.hooks is not None:
            self.hooks.event_fired(when, seq, type(event).__name__)
        callbacks, event.callbacks = event.callbacks, None
        assert callbacks is not None
        for callback in callbacks:
            callback(event)
        self.processed_events += 1
        # Per-process diagnostics counter, never read by sim logic.
        _EVENTS_TOTAL[0] += 1
        if not event.ok and not event._defused:
            exc = event.value
            raise exc

    # -- run loop ---------------------------------------------------------

    def run(self, until: "float | Event | None" = None) -> Any:
        """Run the simulation.

        Parameters
        ----------
        until:
            * ``None`` -- run until no events remain.
            * a number -- run until the clock reaches that time.
            * an :class:`Event` -- run until that event is processed and
              return its value.
        """
        until_event: Optional[Event] = None
        until_time = float("inf")
        if isinstance(until, Event):
            until_event = until
            if until_event.processed:
                return until_event.value
        elif until is not None:
            until_time = float(until)
            if until_time < self._now:
                raise SchedulingError(
                    f"cannot run until t={until_time} < now={self._now}")

        # Inlined hot loop: the heap and per-event counters are bound to
        # locals and flushed once, instead of attribute traffic on every
        # event.
        heap = self._heap
        hooks = self.hooks
        processed = 0
        try:
            while heap:
                if until_event is not None and until_event.processed:
                    return until_event.value
                when, _prio, seq, event = heap[0]
                if when > until_time:
                    self._now = until_time
                    return None
                _heappop(heap)
                if when < self._now:  # pragma: no cover - defensive
                    raise SimulationError("event scheduled in the past")
                self._now = when
                if hooks is not None:
                    hooks.event_fired(when, seq, type(event).__name__)
                callbacks, event.callbacks = event.callbacks, None
                assert callbacks is not None
                for callback in callbacks:
                    callback(event)
                processed += 1
                if not event.ok and not event._defused:
                    raise event.value
        finally:
            self.processed_events += processed
            _EVENTS_TOTAL[0] += processed

        if until_event is not None:
            if until_event.processed:
                return until_event.value
            raise SimulationError(
                "simulation ran out of events before the 'until' event fired")
        if until_time != float("inf"):
            self._now = until_time
        return None

    # -- factories --------------------------------------------------------

    def event(self) -> Event:
        """Create a fresh, untriggered :class:`Event`."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event that fires after ``delay`` simulated seconds."""
        return Timeout(self, delay, value)

    def process(self, generator: Generator, name: str | None = None) -> Process:
        """Start a new coroutine process driving ``generator``."""
        return Process(self, generator, name=name)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Simulator t={self._now:.6g} pending={len(self._heap)}>"
