"""Scenario lowering: pre-bind a simulation plan before a run starts.

The strategy simulators answer the same three questions every iteration
-- effective host rates, compute-phase finish times, trace emission --
through generic code that re-discovers per-call what was already known
before the run began: whether a fault plan exists, whether an
observability session is active, and whether the load is constant.

:func:`lower` inspects a concrete ``(platform, app)`` pair once and runs
a small pipeline of *lowering passes* (the rewrite-pass idiom of MLIR
lowerings), each of which may specialize one binding of the resulting
:class:`SimPlan`:

* :class:`FaultEliminationPass` -- no fault plan on the platform means
  the fault hooks are compiled out: strategies consult
  ``plan.fault_free`` instead of re-testing ``platform.faults`` inside
  the loop.
* :class:`ObsEliminationPass` -- no active :mod:`repro.obs` session
  means trace emission is lowered to nothing: strategies guard their
  per-iteration ``obs.emit``/``obs.count`` calls on ``plan.obs_on`` so
  the disabled cost is one attribute read, not a kwargs dict per record.
* :class:`ConstantLoadPass` -- every host on a
  :class:`~repro.load.base.ConstantLoadModel` admits closed-form
  availability: ``I(t) = t / (1 + n)`` exactly, so rate queries and
  work advancement need no trace walk, no kernel, and no lazy extension
  at all.
* :class:`BatchKernelPass` -- the default lowering: per-host query loops
  are bound to the batch entry points of :mod:`repro.load.kernels`
  (one flat pass over cached prefix-sum kernels).

Float-identity contract
-----------------------
Every lowered binding reproduces the exact IEEE-754 operation sequence
of the generic path.  The constant-load closed forms mirror the kernel
algebra on a one-segment trace (``cum[0] == 0.0`` and ``times[0] ==
0.0`` make ``I(t) == t / den`` bit-exact), so golden makespans and
traces are byte-identical whichever lowering fires; the property tests
in ``tests/simkernel/test_plan.py`` pin this down.

:func:`disable_lowering` suspends the pipeline (every binding falls back
to the generic per-host call chain), which is how the microbenchmarks
measure lowered vs. unlowered scenarios.
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
    """Suspend the lowering pipeline inside the block (re-entrant).

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
    """Whether :func:`lower` currently runs its pass pipeline."""
    return _DISABLED[0] == 0


class PlanContext:
    """Mutable build state the lowering passes refine."""

    __slots__ = ("platform", "app", "fault_free", "obs_on",
                 "constant_dens", "batch", "applied")

    def __init__(self, platform: "Platform",
                 app: "ApplicationSpec | None" = None) -> None:
        self.platform = platform
        self.app = app
        self.fault_free = False
        self.obs_on = True
        #: Per-host ``1 + n`` denominators when every load is constant.
        self.constant_dens: "tuple[float, ...] | None" = None
        self.batch = False
        self.applied: "list[str]" = []


class LoweringPass:
    """One inspection step of the pipeline.

    :meth:`apply` returns ``True`` when the pass fired (specialized a
    binding); fired passes are recorded in ``PlanContext.applied``.
    """

    name = "pass"

    def apply(self, ctx: PlanContext) -> bool:
        raise NotImplementedError


class FaultEliminationPass(LoweringPass):
    """Compile out fault hooks when the platform carries no fault plan."""

    name = "fault-elim"

    def apply(self, ctx: PlanContext) -> bool:
        ctx.fault_free = ctx.platform.faults is None
        return ctx.fault_free


class ObsEliminationPass(LoweringPass):
    """Lower trace emission to nothing when no obs session is active.

    The session is activated *around* a strategy run (the executor's
    ``obs.observing`` block), never inside one, so the run-start
    inspection holds for the whole run.
    """

    name = "obs-elim"

    def apply(self, ctx: PlanContext) -> bool:
        ctx.obs_on = obs.active() is not None
        return not ctx.obs_on


class ConstantLoadPass(LoweringPass):
    """Closed-form availability when every host load is constant.

    A provably-constant trace is one merged segment with ``times[0] ==
    0`` and ``cum[0] == 0``, so the kernel algebra collapses exactly:
    ``I(t) = t / den`` and ``advance(t0, d) = (t0/den + d) * den``.

    The proof inspects the *instantiated traces*, not the host specs: a
    trace counts as constant only when its single materialized segment
    will provably be held forever -- by a :class:`ConstantExtender` of
    the same value, or by ``beyond_horizon="hold"`` with no extender.
    A trace swapped in behind a constant spec (a standard test rig)
    therefore correctly declines the pass.
    """

    name = "constant-load"

    def apply(self, ctx: PlanContext) -> bool:
        dens = []
        for host in ctx.platform.hosts:
            trace = host.trace
            if trace.n_segments != 1:
                return False
            value = trace._values[0]
            extender = trace._extender
            if isinstance(extender, ConstantExtender):
                if extender.value != value:
                    return False
            elif extender is not None or trace._beyond != "hold":
                return False
            dens.append(1.0 + value)
        ctx.constant_dens = tuple(dens)
        return True


class BatchKernelPass(LoweringPass):
    """Bind per-host query loops to the batch kernel entry points."""

    name = "batch-kernel"

    def apply(self, ctx: PlanContext) -> bool:
        ctx.batch = True
        return True


#: The pipeline, in application order.
PASSES: "tuple[LoweringPass, ...]" = (
    FaultEliminationPass(),
    ObsEliminationPass(),
    ConstantLoadPass(),
    BatchKernelPass(),
)


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
    * :attr:`fault_free` -- whether fault hooks were compiled out.
    """

    __slots__ = ("platform", "fault_free", "obs_on", "lowered", "passes",
                 "_dens", "_batch", "iteration", "predicted_rates",
                 "decision_rates")

    def __init__(self, ctx: PlanContext, lowered: bool) -> None:
        self.platform = ctx.platform
        self.lowered = lowered
        self.fault_free = ctx.platform.faults is None
        self.obs_on = ctx.obs_on if lowered else True
        self.passes = tuple(ctx.applied)
        self._dens = ctx.constant_dens if lowered else None
        self._batch = None
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
        if self._dens is not None:
            self.iteration = self._iteration_constant
            self.predicted_rates = self._rates_constant
        elif lowered and ctx.batch:
            batch = self._batch = HostBatch(ctx.platform.hosts)
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

    def describe(self) -> dict:
        """JSON-ready summary of what the lowering decided."""
        return {"lowered": self.lowered,
                "passes": list(self.passes),
                "fault_free": self.fault_free,
                "obs_on": self.obs_on,
                "constant_load": self._dens is not None}

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<SimPlan passes={list(self.passes)}>"


def lower(platform: "Platform",
          app: "ApplicationSpec | None" = None) -> SimPlan:
    """Run the lowering pipeline for one concrete run."""
    ctx = PlanContext(platform, app)
    enabled = lowering_enabled()
    if enabled:
        for pipeline_pass in PASSES:
            if pipeline_pass.apply(ctx):
                ctx.applied.append(pipeline_pass.name)
    return SimPlan(ctx, lowered=enabled)


def lower_spec(spec, x: "float | None" = None, seed: int = 0) -> dict:
    """Inspect one cell of an ``ExperimentSpec`` before running it.

    Builds the cell's platform and variants (exactly what the executor
    would run) and reports, per variant label, which passes would fire.
    ``spec`` is duck-typed (needs ``.name``, ``.x_values`` and
    ``.build``) to keep this module below the experiments layer.
    """
    if x is None:
        x = spec.x_values[0]
    platform, variants = spec.build(x, seed)
    report = {"scenario": spec.name, "x": float(x), "seed": int(seed),
              "variants": {}}
    for label, app, _strategy in variants:
        report["variants"][label] = lower(platform, app).describe()
    return report
