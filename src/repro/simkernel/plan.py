"""Scenario lowering: pre-bind a simulation plan before a run starts.

The strategy simulators answer the same three questions every iteration
-- effective host rates, compute-phase finish times, trace emission --
through generic code that re-discovers per-call what was already known
before the run began: whether a fault plan exists and whether an
observability session is active.

:func:`lower` inspects a concrete ``(platform, app)`` pair once and
returns a :class:`SimPlan` whose bindings are specialized to it:

* ``plan.fault_free`` -- no fault plan on the platform, so strategies
  skip the revocation hooks (the interruption check) instead of
  re-testing ``platform.faults`` inside the loop.  It does not pick the
  compute binding: :meth:`SimPlan.iteration` pauses revoked hosts
  itself, on every platform.
* ``plan.obs_on`` -- whether an :mod:`repro.obs` session is active;
  strategies guard every record and count on it, so the disabled cost
  is one attribute read, not a fields dict per record.
  ``plan.sink`` emits the run's records: a
  :class:`repro.obs.SessionSink` bound to the session's recorder and
  counters once per run, which builds each record in one pass, or the
  reference :class:`repro.obs.RecordSink` (through ``obs.emit``) on
  generic plans.  A lowered plan that nothing observes has no sink
  (``None``): ``obs_on`` is False, so nothing may call it.
* ``plan.kind`` -- which rate and iteration bindings back the plan.
  ``"batch-kernel"``: per-host query loops bound to the batch entry
  points of :mod:`repro.load.kernels` (one flat pass over cached
  prefix-sum kernels).  ``"generic"`` inside :func:`disable_lowering`:
  the per-host call chain.

Float-identity contract
-----------------------
Every lowered binding reproduces the exact IEEE-754 operation sequence
of the generic path, so golden makespans and traces are byte-identical
whichever binding fires; the property tests in
``tests/simkernel/test_plan.py`` pin this down.

:func:`disable_lowering` suspends lowering (every binding falls back to
the generic per-host call chain); it is the oracle the perf gates and
microbenchmarks compare lowered scenarios against.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import TYPE_CHECKING, Iterator

from repro import obs
from repro.errors import StrategyError
from repro.faults import recovery
from repro.load.kernels import HostBatch

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.app.iterative import ApplicationSpec
    from repro.platform.cluster import Platform

#: Nesting depth of :func:`disable_lowering` blocks (0 = lowering on).
_DISABLED = [0]


@contextmanager
def disable_lowering() -> Iterator[None]:
    """Suspend lowering inside the block (re-entrant).

    :func:`lower` still returns a :class:`SimPlan`, but with every
    binding on the generic per-host call chain -- the reference the
    microbenchmarks compare lowered scenarios against.
    """
    _DISABLED[0] += 1
    try:
        yield
    finally:
        _DISABLED[0] -= 1


def lowering_enabled() -> bool:
    """Whether :func:`lower` currently specializes its plans."""
    return _DISABLED[0] == 0


class SimPlan:
    """A pre-bound simulation plan for one ``(platform, app)`` run.

    Strategies fetch one via :func:`lower` at run start and route their
    hot-path queries through it:

    * :meth:`predicted_rates` -- the rate map fed to swap/rebalance
      decisions;
    * :meth:`decision_rates` -- the rate source fed to
      :func:`~repro.core.decision.decide_swaps`;
    * :meth:`iteration` -- one BSP compute + communication phase,
      revoked hosts pausing;
    * :attr:`obs_on` -- gate for every record and count;
    * :attr:`sink` -- the run's record emitters, called only when
      :attr:`obs_on` (``None`` on a lowered plan with no session);
    * :attr:`fault_free` -- whether the revocation hooks can be skipped;
    * :attr:`kind` -- which of the two bindings backs the above.
    """

    __slots__ = ("platform", "kind", "fault_free", "obs_on",
                 "iteration", "predicted_rates", "decision_rates",
                 "sink")

    def __init__(self, platform: "Platform", kind: str,
                 session: "obs.ObsSession | None") -> None:
        self.platform = platform
        #: Which binding :func:`lower` chose: ``"batch-kernel"`` or
        #: ``"generic"``.
        self.kind = kind
        self.fault_free = platform.faults is None
        self.obs_on = kind == "generic" or session is not None
        # The public bindings are instance attributes pointing at the
        # innermost callables, not dispatching methods: strategies call
        # them once per iteration, where each indirection layer costs.
        #
        # ``iteration(chunks, start, comm_time) -> (compute_end,
        # iter_end)`` runs one BSP phase pair, revoked hosts pausing;
        # ``predicted_rates(t, window=0.0, indices=None)`` is the
        # host-index -> flop/s map -- the lowered equivalent of
        # ``Platform.effective_rates``; ``decision_rates(t, window,
        # active)`` is the same map for one decision epoch: a bounded
        # lazy view on batch plans (HostBatch.rate_view), the full map
        # on generic ones.
        if kind == "batch-kernel":
            batch = HostBatch(platform.hosts, platform.faults)
            compute_end = batch.compute_end

            def iteration(chunks, start, comm_time, _end=compute_end):
                if not chunks:
                    raise StrategyError("no active hosts")
                finish = _end(chunks, start)
                return finish, finish + comm_time

            self.iteration = iteration
            self.predicted_rates = batch.rates_map
            self.decision_rates = batch.rate_view
            self.sink = (None if session is None
                         else obs.SessionSink(session))
        else:
            self.iteration = self._iteration_generic
            self.predicted_rates = self._rates_generic
            self.decision_rates = self._decision_rates_eager
            self.sink = obs.RecordSink()

    # -- generic (unlowered) reference ----------------------------------

    def _decision_rates_eager(self, t, window, active):
        return self.predicted_rates(t, window)

    def _iteration_generic(self, chunks, start, comm_time):
        if not chunks:
            raise StrategyError("no active hosts")
        platform = self.platform
        compute_end = max(recovery.compute_finish(platform, h, start, flops)
                          for h, flops in chunks.items())
        return compute_end, compute_end + comm_time

    def _rates_generic(self, t, window=0.0, indices=None):
        hosts = self.platform.hosts
        if indices is None:
            indices = range(len(hosts))
        return {i: hosts[i].effective_rate(t, window) for i in indices}

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<SimPlan kind={self.kind}>"


def lower(platform: "Platform",
          app: "ApplicationSpec | None" = None) -> SimPlan:
    """Bind the plan for one concrete run.

    Lowering reads two facts off the run once.  ``fault_free``: the
    platform carries no fault plan.  ``obs_on``: an obs session is
    active; the executor activates sessions *around* a strategy run,
    never inside one, so the run-start reading -- and the session's
    recorder and counters bound into ``sink`` -- hold for the whole
    run.

    Inside :func:`disable_lowering` the plan is generic, with emission
    always on and going through :func:`repro.obs.emit` per record.
    """
    if not lowering_enabled():
        return SimPlan(platform, "generic", None)
    return SimPlan(platform, "batch-kernel", obs.active())
