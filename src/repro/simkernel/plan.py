"""Scenario lowering: pre-bind a simulation plan before a run starts.

The strategy simulators answer the same three questions every iteration
-- effective host rates, compute-phase finish times, trace emission --
through generic code that re-discovers per-call what was already known
before the run began: whether a fault plan exists, whether an
observability session is active, and whether the load is constant.

:func:`lower` inspects a concrete ``(platform, app)`` pair once and
returns a :class:`SimPlan` whose bindings are specialized to it:

* ``plan.fault_free`` -- no fault plan on the platform, so strategies
  skip the fault hooks instead of re-testing ``platform.faults`` inside
  the loop.
* ``plan.obs_on`` -- whether an :mod:`repro.obs` session is active;
  strategies guard their per-iteration ``obs.emit``/``obs.count`` calls
  on it, so the disabled cost is one attribute read, not a kwargs dict
  per record.
* ``plan.kind`` -- the one three-way choice of rate and iteration
  bindings.  ``"closed-form"`` when every host load is provably
  constant: ``I(t) = t / (1 + n)`` exactly, so rate queries and work
  advancement need no trace walk, no kernel and no lazy extension.
  ``"batch-kernel"`` otherwise: per-host query loops bound to the batch
  entry points of :mod:`repro.load.kernels` (one flat pass over cached
  prefix-sum kernels).  ``"generic"`` inside :func:`disable_lowering`:
  the per-host call chain.

Float-identity contract
-----------------------
Every lowered binding reproduces the exact IEEE-754 operation sequence
of the generic path.  The constant-load closed forms mirror the kernel
algebra on a one-segment trace (``cum[0] == 0.0`` and ``times[0] ==
0.0`` make ``I(t) == t / den`` bit-exact), so golden makespans and
traces are byte-identical whichever lowering fires; the property tests
in ``tests/simkernel/test_plan.py`` pin this down.

:func:`disable_lowering` suspends lowering (every binding falls back to
the generic per-host call chain); it is the oracle the perf gates and
microbenchmarks compare lowered scenarios against.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import TYPE_CHECKING, Iterator

from repro import obs
from repro.errors import StrategyError
from repro.load.base import ConstantExtender
from repro.load.kernels import HostBatch, count_kernel_events

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
    _DISABLED[0] += 1  # simflow: disable=SF001 (process-local toggle)
    try:
        yield
    finally:
        _DISABLED[0] -= 1  # simflow: disable=SF001 (process-local toggle)


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
    * :meth:`iteration` -- one fault-free BSP compute + communication
      phase;
    * :attr:`obs_on` -- gate for per-iteration trace emission;
    * :attr:`fault_free` -- whether fault hooks were compiled out;
    * :attr:`kind` -- which of the three bindings backs the above.
    """

    __slots__ = ("platform", "kind", "fault_free", "obs_on", "_dens",
                 "iteration", "predicted_rates", "decision_rates")

    def __init__(self, platform: "Platform", kind: str, obs_on: bool,
                 dens: "tuple[float, ...] | None" = None) -> None:
        self.platform = platform
        #: Which binding :func:`lower` chose: ``"closed-form"``,
        #: ``"batch-kernel"`` or ``"generic"``.
        self.kind = kind
        self.fault_free = platform.faults is None
        self.obs_on = obs_on
        #: Per-host ``1 + n`` denominators of a closed-form plan.
        self._dens = dens
        # The public bindings are instance attributes pointing at the
        # innermost callables, not dispatching methods: strategies call
        # them once per iteration, where each indirection layer costs.
        #
        # ``iteration(chunks, start, comm_time) -> (compute_end,
        # iter_end)`` runs one fault-free BSP phase pair;
        # ``predicted_rates(t, window=0.0, indices=None)`` is the
        # host-index -> flop/s map -- the lowered equivalent of
        # ``Platform.effective_rates``; ``decision_rates(t, window,
        # active)`` is the same map for one decision epoch: a bounded
        # lazy view on batch plans (HostBatch.rate_view), the full map
        # on the closed-form and generic ones.
        self.decision_rates = self._decision_rates_eager
        if kind == "closed-form":
            self.iteration = self._iteration_constant
            self.predicted_rates = self._rates_constant
        elif kind == "batch-kernel":
            batch = HostBatch(platform.hosts)
            compute_end = batch.compute_end

            def iteration(chunks, start, comm_time, _end=compute_end):
                if not chunks:
                    raise StrategyError("no active hosts")
                finish = _end(chunks, start)
                return finish, finish + comm_time

            self.iteration = iteration
            self.predicted_rates = batch.rates_map
            self.decision_rates = batch.rate_view
        else:
            self.iteration = self._iteration_generic
            self.predicted_rates = self._rates_generic

    # -- constant-load closed forms -------------------------------------

    def _iteration_constant(self, chunks, start, comm_time):
        if not chunks:
            raise StrategyError("no active hosts")
        hosts = self.platform.hosts
        dens = self._dens
        compute_end = start
        for h, flops in chunks.items():
            host = hosts[h]
            demand = flops / host.spec.speed
            if demand == 0:
                continue
            den = dens[h]
            # Exact kernel algebra on the one-segment trace:
            # target = I(start) + demand; finish = invert(target).
            finish = (start / den + demand) * den
            if finish > compute_end:
                compute_end = finish
        count_kernel_events(len(chunks))
        return compute_end, compute_end + comm_time

    def _rates_constant(self, t, window=0.0, indices=None):
        hosts = self.platform.hosts
        dens = self._dens
        if indices is None:
            indices = range(len(hosts))
        t0 = max(0.0, t - window)
        count_kernel_events(len(indices))
        if t0 == t:
            return {i: hosts[i].spec.speed * (1.0 / dens[i])
                    for i in indices}
        span = t - t0
        return {i: hosts[i].spec.speed * ((t / dens[i] - t0 / dens[i]) / span)
                for i in indices}

    def _decision_rates_eager(self, t, window, active):
        return self.predicted_rates(t, window)

    # -- generic (unlowered) reference ----------------------------------

    def _iteration_generic(self, chunks, start, comm_time):
        if not chunks:
            raise StrategyError("no active hosts")
        hosts = self.platform.hosts
        compute_end = max(hosts[h].compute_finish(start, flops)
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

    Lowering reads three facts off the run once.  ``fault_free``: the
    platform carries no fault plan.  ``obs_on``: an obs session is
    active; the executor activates sessions *around* a strategy run,
    never inside one, so the run-start reading holds for the whole run.
    And whether every host load is provably constant, which makes the
    plan's one choice: closed form if so, batch kernel otherwise.

    The constant proof inspects the *instantiated traces*, not the host
    specs: a trace counts only when its single materialized segment will
    provably be held forever -- by a :class:`ConstantExtender` of the
    same value, or by ``beyond_horizon="hold"`` with no extender.  A
    trace swapped in behind a constant spec (a standard test rig)
    therefore declines the closed form.

    Inside :func:`disable_lowering` the plan is generic, with emission
    always on.
    """
    if not lowering_enabled():
        return SimPlan(platform, "generic", obs_on=True)
    obs_on = obs.active() is not None
    dens = []
    for host in platform.hosts:
        trace = host.trace
        if trace.n_segments != 1:
            break
        value = trace._values[0]
        extender = trace._extender
        if isinstance(extender, ConstantExtender):
            if extender.value != value:
                break
        elif extender is not None or trace._beyond != "hold":
            break
        dens.append(1.0 + value)
    else:
        return SimPlan(platform, "closed-form", obs_on, tuple(dens))
    return SimPlan(platform, "batch-kernel", obs_on)
