"""Load traces and the load-model interface.

A :class:`LoadTrace` is a right-open piecewise-constant function
``n(t) >= 0``: the number of external compute-bound processes on a host.
Traces are *lazily extensible*: stochastic models attach an extender so a
trace grows on demand as the simulation advances (application makespans
are not known up front -- the paper targets run-until-convergence codes).

The two operations the simulators need are exact (no time-stepping):

* :meth:`LoadTrace.integrate_availability` -- CPU share received by one
  application process over a window, under fair timesharing;
* :meth:`LoadTrace.advance_work` -- the finish time of a compute demand
  started at ``t0``.

Both are answered from a cached prefix sum of per-segment availability
integrals (compiled by :mod:`repro.load.kernels` and invalidated on
every mutation), so a query costs O(log segments) instead of a segment
walk.  The kernel module also keeps pure-Python reference
implementations of the same algebra that CI cross-checks bit-for-bit.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Callable, Optional, Sequence

from repro.errors import LoadModelError

#: Fraction by which lazy extension overshoots, to amortize extend calls.
_EXTEND_SLACK = 1.5

#: Process-wide trace-mutation counter.  Batch query state
#: (:class:`repro.load.kernels.HostBatch`) keys its cached kernel table
#: on this: an unchanged counter proves every previously-fetched kernel
#: is still current, so full-platform queries skip the per-host epoch
#: checks entirely between mutations.
_MUTATIONS = [0]


class LoadTrace:
    """Piecewise-constant external load ``n(t)`` on one host.

    Parameters
    ----------
    times:
        Segment breakpoints, strictly increasing, ``times[0] == 0.0``.
        Segment ``i`` spans ``[times[i], times[i+1])``; the trace is
        defined up to ``horizon`` (== ``times[-1] + last segment`` handled
        by extension).  Internally ``times`` has one more entry than
        ``values``: the final entry is the horizon.
    values:
        Number of competing processes on each segment (``len(times) - 1``
        entries, each >= 0).
    extender:
        Optional callable ``extender(trace, new_horizon)`` that appends
        segments until ``trace.horizon >= new_horizon``.  Without one, use
        of the trace past its horizon follows ``beyond_horizon``.
    beyond_horizon:
        For non-extensible traces: ``"hold"`` keeps the final value
        forever, ``"error"`` raises :class:`LoadModelError`.
    """

    __slots__ = ("_times", "_values", "_extender", "_beyond",
                 "_horizon", "_epoch", "_kernel")

    def __init__(self, times: Sequence[float], values: Sequence[int],
                 extender: Optional[Callable[["LoadTrace", float], None]] = None,
                 beyond_horizon: str = "hold") -> None:
        times = [float(t) for t in times]
        values = [int(v) for v in values]
        if len(times) != len(values) + 1:
            raise LoadModelError(
                f"need len(times) == len(values) + 1, got {len(times)} and {len(values)}")
        if times[0] != 0.0:
            raise LoadModelError(f"trace must start at t=0, got {times[0]}")
        if any(b <= a for a, b in zip(times, times[1:])):
            raise LoadModelError("trace breakpoints must be strictly increasing")
        if any(v < 0 for v in values):
            raise LoadModelError("competing process counts must be >= 0")
        if beyond_horizon not in ("hold", "error"):
            raise LoadModelError(f"unknown beyond_horizon mode {beyond_horizon!r}")
        self._times = times
        self._values = values
        self._extender = extender
        self._beyond = beyond_horizon
        self._horizon = times[-1]
        self._epoch = 0
        self._kernel = None

    # -- inspection -----------------------------------------------------

    @property
    def horizon(self) -> float:
        """Time up to which the trace is currently materialized."""
        return self._horizon

    @property
    def n_segments(self) -> int:
        return len(self._values)

    def segments(self) -> "list[tuple[float, float, int]]":
        """Materialized ``(start, end, n)`` triples (a copy)."""
        return [(self._times[i], self._times[i + 1], self._values[i])
                for i in range(len(self._values))]

    # -- extension ------------------------------------------------------

    def append_segment(self, end_time: float, value: int) -> None:
        """Append one segment ending at ``end_time`` (extenders use this).

        Merges with the previous segment when the value is unchanged.
        """
        if end_time <= self.horizon:
            raise LoadModelError(
                f"segment end {end_time} does not extend horizon {self.horizon}")
        value = int(value)
        if value < 0:
            raise LoadModelError("competing process counts must be >= 0")
        if self._values and self._values[-1] == value:
            self._times[-1] = float(end_time)
        else:
            self._times.append(float(end_time))
            self._values.append(value)
        self._horizon = self._times[-1]
        # The stale kernel is kept: its epoch mismatch marks it for an
        # incremental tail extension on the next kernel() call.
        self._epoch += 1
        _MUTATIONS[0] += 1

    def append_segments(self, pairs: "Sequence[tuple[float, int]]") -> None:
        """Append many ``(end_time, value)`` segments in one mutation.

        Exactly ``append_segment`` called in a loop -- same validation,
        same equal-value merging -- but with one epoch bump and one
        kernel invalidation, so bulk extenders (the ON/OFF dwell loop
        materializing thousands of segments per build) do not pay the
        per-segment invalidation cost.
        """
        if not pairs:
            return
        times = self._times
        values = self._values
        horizon = self._horizon
        for end_time, value in pairs:
            end_time = float(end_time)
            if end_time <= horizon:
                raise LoadModelError(
                    f"segment end {end_time} does not extend horizon {horizon}")
            value = int(value)
            if value < 0:
                raise LoadModelError("competing process counts must be >= 0")
            if values and values[-1] == value:
                times[-1] = end_time
            else:
                times.append(end_time)
                values.append(value)
            horizon = end_time
        self._horizon = horizon
        self._epoch += 1
        _MUTATIONS[0] += 1

    def _append_run(self, end_times: "list[float]",
                    values: "list[int]") -> None:
        """Bulk append for extender fast paths, one mutation.

        Contract (callers guarantee; not re-validated): ``end_times`` are
        strictly increasing floats with ``end_times[0] > horizon``,
        ``values`` are non-negative ints, and no two *consecutive* values
        are equal -- so the only possible merge is the first element into
        the current final segment, and the rest is a straight extend.
        """
        if not end_times:
            return
        times = self._times
        vals = self._values
        if vals and vals[-1] == values[0]:
            times[-1] = end_times[0]
            times.extend(end_times[1:])
            vals.extend(values[1:])
        else:
            times.extend(end_times)
            vals.extend(values)
        self._horizon = times[-1]
        self._epoch += 1
        _MUTATIONS[0] += 1

    def _ensure(self, t: float) -> None:
        if t < self._horizon:
            return
        if self._extender is not None:
            target = max(t * _EXTEND_SLACK, self._horizon * _EXTEND_SLACK,
                         t + 1.0)
            self._extender(self, target)
            if t >= self._horizon:
                raise LoadModelError(
                    f"trace extender failed to reach requested time {t} "
                    f"(horizon stuck at {self._horizon})")
        elif self._beyond == "error":
            raise LoadModelError(
                f"trace ends at t={self._horizon} but t={t} was requested")
        else:  # hold final value
            self.append_segment(max(t + 1.0, self._horizon * _EXTEND_SLACK),
                                self._values[-1] if self._values else 0)

    def _extend_for_integral(self, remaining: float) -> None:
        """Grow the trace until (at least) ``remaining`` more availability
        integral can plausibly fit; callers loop until it actually does.

        ``remaining`` is in availability units (<= the wall-clock span it
        covers), so doubling it overshoots for any load below n=1 and the
        retry loop handles heavier load.
        """
        self._ensure(self._horizon + remaining * 2.0 + 1.0)

    # -- the compiled kernel --------------------------------------------

    def kernel(self):
        """The compiled :class:`~repro.load.kernels.TraceKernel` for the
        trace's current state.

        Cached per epoch.  A stale kernel (the trace grew since it was
        compiled) is recompiled *incrementally*: mutations only ever
        append segments, so only the tail past the old final segment is
        recomputed (:func:`~repro.load.kernels.extend_kernel`), with
        results bit-identical to a from-scratch compile.
        """
        kernel = self._kernel
        if kernel is None:
            from repro.load.kernels import compile_trace
            kernel = compile_trace(self._epoch, self._times, self._values)
            self._kernel = kernel
        elif kernel.epoch != self._epoch:
            from repro.load.kernels import extend_kernel
            kernel = extend_kernel(kernel, self._epoch, self._times,
                                   self._values)
            self._kernel = kernel
        return kernel

    # -- queries --------------------------------------------------------

    def value_at(self, t: float) -> int:
        """Number of competing processes at time ``t``."""
        if t < 0:
            raise LoadModelError(f"negative time {t}")
        if t >= self._horizon:
            self._ensure(t)
        idx = bisect_right(self._times, t) - 1
        if idx < 0 or idx >= len(self._values):
            raise LoadModelError(
                f"time {t} is outside the materialized trace "
                f"[0, {self._times[-1]}) -- extension failed")
        return self._values[idx]

    def availability_at(self, t: float) -> float:
        """CPU share one application process gets at ``t``: ``1/(1+n)``."""
        return 1.0 / (1.0 + self.value_at(t))

    def integrate_availability(self, t0: float, t1: float) -> float:
        """``∫ 1/(1+n(u)) du`` over ``[t0, t1]`` (exact).

        Two prefix-sum lookups: ``I(t1) - I(t0)`` on the compiled
        kernel (bit-identical to the scalar reference, which accumulates
        the same prefix sum with a Python loop).
        """
        if t0 < 0:
            raise LoadModelError(f"negative start time {t0}")
        if t1 < t0:
            raise LoadModelError(f"empty window [{t0}, {t1}]")
        if t1 == t0:
            return 0.0
        if t1 >= self._horizon:
            self._ensure(t1)
        kernel = self.kernel()
        return kernel.integral_to(t1) - kernel.integral_to(t0)

    def mean_availability(self, t0: float, t1: float) -> float:
        """Average CPU share over ``[t0, t1]``; instantaneous if t0 == t1."""
        if t1 == t0:
            return self.availability_at(t0)
        return self.integrate_availability(t0, t1) / (t1 - t0)

    def advance_work(self, t0: float, demand: float) -> float:
        """Finish time of ``demand`` unloaded-CPU-seconds started at ``t0``.

        ``demand`` is the compute requirement already divided by the
        host's unloaded speed (i.e., seconds of dedicated CPU).  Returns
        the earliest ``t`` with ``integrate_availability(t0, t) == demand``
        -- one inverse-prefix-sum lookup on the compiled kernel.
        """
        if demand < 0:
            raise LoadModelError(f"negative compute demand {demand}")
        if demand == 0:
            return t0
        if t0 < 0:
            raise LoadModelError(f"negative start time {t0}")
        if t0 >= self._horizon:
            self._ensure(t0)
        kernel = self.kernel()
        target = kernel.integral_to(t0) + demand
        while kernel.cum_list[-1] < target:
            # Not enough materialized availability: extend and recompile.
            self._extend_for_integral(target - kernel.cum_list[-1])
            kernel = self.kernel()
        finish = kernel.invert(target)
        # Inverting the prefix sum can round a hair below t0 for tiny
        # demands; time never runs backwards.
        return finish if finish > t0 else t0

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<LoadTrace segments={self.n_segments} "
                f"horizon={self.horizon:.6g}>")


class LoadModel:
    """Interface: stochastic (or replayed) generator of load traces."""

    def build(self, rng, horizon: float) -> LoadTrace:
        """Materialize a trace to at least ``horizon`` seconds.

        Parameters
        ----------
        rng:
            A :class:`numpy.random.Generator`; the model must draw all its
            randomness from it (reproducibility contract).
        horizon:
            Initial materialization horizon; traces remain lazily
            extensible past it using the same ``rng``.
        """
        raise NotImplementedError

    def describe(self) -> str:
        """One-line human-readable description (used in reports)."""
        return type(self).__name__


class ConstantExtender:
    """Extender that appends the same value forever.

    A named class (not a closure) so the scenario-lowering pass
    (:mod:`repro.simkernel.plan`) can *prove* a trace stays constant
    beyond its horizon by inspecting the extender, not just the load
    model the host was specced with (tests legitimately replace traces
    behind a spec's back).
    """

    __slots__ = ("value",)

    def __init__(self, value: int) -> None:
        self.value = int(value)

    def __call__(self, trace: LoadTrace, new_horizon: float) -> None:
        trace.append_segment(new_horizon, self.value)


class ConstantLoadModel(LoadModel):
    """A fixed number of competing processes forever (incl. 0 = dedicated)."""

    def __init__(self, n_competing: int = 0) -> None:
        if n_competing < 0:
            raise LoadModelError("n_competing must be >= 0")
        self.n_competing = int(n_competing)

    def build(self, rng, horizon: float) -> LoadTrace:
        return LoadTrace([0.0, max(horizon, 1.0)], [self.n_competing],
                         extender=ConstantExtender(self.n_competing))

    def describe(self) -> str:
        return f"constant load (n={self.n_competing})"
