"""Numpy-backed load-trace kernels: O(log n) queries and batch entry points.

The strategy simulators ask two questions of every host's
:class:`~repro.load.base.LoadTrace`, once per host per iteration:

* ``integrate_availability(t0, t1)`` -- CPU share received over a window;
* ``advance_work(t0, demand)`` -- when a compute demand finishes.

The original implementations walked trace segments in pure Python --
O(segments in the window) per query, times tens of hosts, times tens of
thousands of iterations per sweep.  This module replaces the walk with a
*compiled* trace representation (:class:`TraceKernel`): segment
breakpoints and values as numpy arrays plus a cached prefix sum of
per-segment availability integrals, so

* ``integrate_availability`` becomes two prefix-sum lookups, and
* ``advance_work`` becomes one inverse-prefix-sum lookup,

both O(log segments).  The kernel is cached on the trace and invalidated
whenever the trace mutates (``append_segment``, lazy extension).

Float-identity contract
-----------------------
Every kernel result is **bit-for-bit identical** to the scalar reference
implementations kept in this module (:func:`integrate_availability_scalar`,
:func:`advance_work_scalar`), which CI cross-checks.  The shared algebra:

* per-segment integral ``seg[i] = (times[i+1] - times[i]) / (1 + n_i)``,
* prefix sum ``cum`` accumulated left-to-right (``numpy.cumsum`` over
  float64 performs exactly the sequential IEEE-754 additions of the
  Python loop, which the property tests pin down),
* ``I(t) = cum[i] + (t - times[i]) / (1 + n_i)`` for ``t`` in segment
  ``i``, with ``integrate_availability(t0, t1) = I(t1) - I(t0)`` and
  ``advance_work(t0, d)`` inverting ``I`` at ``I(t0) + d``.

Lookups, scalar and batched (:func:`effective_rates_many`,
:class:`HostBatch`), index Python-list mirrors of the arrays (``tolist``
is value-preserving for float64) because a ``bisect`` on a list outruns
a scalar ``numpy.searchsorted`` call.

Every query also ticks the process-wide kernel-event counter
(:func:`repro.simkernel.engine.count_kernel_events`) so sweep benchmarks
can report kernel throughput for the analytic simulators.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from heapq import heappop, heappush
from typing import TYPE_CHECKING, Iterator, Mapping, Sequence

import numpy as np

from repro.errors import FaultError, LoadModelError, PolicyError
from repro.load.base import _MUTATIONS
from repro.simkernel.engine import count_kernel_events

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.faults.plan import FaultPlan
    from repro.load.base import LoadTrace
    from repro.platform.host import Host


class TraceKernel:
    """Compiled representation of one trace's materialized segments.

    Built lazily by :meth:`LoadTrace.kernel`; the epoch stamp ties a
    kernel to the trace state it was compiled from.  Because traces only
    ever *grow* (append or merge-into-last-segment), a stale kernel is
    always an ancestor of the current trace state, and
    :func:`extend_kernel` recompiles just the changed tail instead of
    the whole trace -- resuming the prefix-sum accumulation from the
    last shared entry, which is exactly where a full sequential
    recompute would have arrived with the same bits.
    """

    __slots__ = ("epoch", "times_list", "den_list", "cum_list",
                 "_times_arr", "_den_arr", "_cum_arr")

    def __init__(self, epoch: int, times: Sequence[float],
                 values: Sequence[int]) -> None:
        self.epoch = epoch
        if len(values) < 256:
            # Short traces (the freshly-built common case) compile faster
            # as a plain left-to-right fold than through numpy's array
            # round-trip; ``numpy.cumsum`` over float64 performs exactly
            # these sequential additions, so both paths agree bit-for-bit
            # (the arrays materialize lazily if a batch caller needs
            # them).
            times_list = list(times)
            den_list = [1.0 + v for v in values]
            cum_list = [0.0]
            acc = 0.0
            for i, den in enumerate(den_list):
                acc = acc + (times_list[i + 1] - times_list[i]) / den
                cum_list.append(acc)
            self.times_list = times_list
            self.den_list = den_list
            self.cum_list = cum_list
            self._times_arr = None
            self._den_arr = None
            self._cum_arr = None
            return
        times_arr = np.asarray(times, dtype=np.float64)
        den = 1.0 + np.asarray(values, dtype=np.float64)
        seg = np.diff(times_arr) / den
        cum = np.empty(len(times_arr), dtype=np.float64)
        cum[0] = 0.0
        np.cumsum(seg, out=cum[1:])
        self._times_arr = times_arr
        self._den_arr = den
        self._cum_arr = cum
        # List mirrors: scalar bisect on a Python list beats a scalar
        # numpy searchsorted; tolist() preserves every float64 bit.
        self.times_list = times_arr.tolist()
        self.den_list = den.tolist()
        self.cum_list = cum.tolist()

    # -- array views (materialized on demand after a tail extension) -----

    @property
    def times(self) -> np.ndarray:
        if self._times_arr is None:
            self._times_arr = np.asarray(self.times_list, dtype=np.float64)
        return self._times_arr

    @property
    def den(self) -> np.ndarray:
        if self._den_arr is None:
            self._den_arr = np.asarray(self.den_list, dtype=np.float64)
        return self._den_arr

    @property
    def cum(self) -> np.ndarray:
        if self._cum_arr is None:
            self._cum_arr = np.asarray(self.cum_list, dtype=np.float64)
        return self._cum_arr

    # -- scalar lookups (callers guarantee 0 <= t < horizon) ------------

    def index_of(self, t: float) -> int:
        """Segment index containing ``t``; raises if out of range."""
        idx = bisect_right(self.times_list, t) - 1
        if idx < 0 or idx >= len(self.den_list):
            raise LoadModelError(
                f"time {t} is outside the materialized trace "
                f"[0, {self.times_list[-1]}) -- extension failed")
        return idx

    def integral_to(self, t: float) -> float:
        """``I(t)``: availability integrated from 0 to ``t``."""
        idx = self.index_of(t)
        return self.cum_list[idx] + (t - self.times_list[idx]) / self.den_list[idx]

    def total_integral(self) -> float:
        """``I(horizon)``: the full materialized availability."""
        return self.cum_list[-1]

    def invert(self, target: float) -> float:
        """Earliest ``t`` with ``I(t) == target`` (target <= I(horizon)).

        Boundary targets resolve in the *earlier* segment, matching the
        segment walk's ``capacity >= remaining`` acceptance.
        """
        cum = self.cum_list
        idx = bisect_left(cum, target) - 1
        if idx < 0:
            idx = 0
        return self.times_list[idx] + (target - cum[idx]) * self.den_list[idx]


def compile_trace(epoch: int, times: Sequence[float],
                  values: Sequence[int]) -> TraceKernel:
    """Compile one trace state into a :class:`TraceKernel`."""
    return TraceKernel(epoch, times, values)


def extend_kernel(old: TraceKernel, epoch: int, times: Sequence[float],
                  values: Sequence[int]) -> TraceKernel:
    """Recompile a grown trace by extending its previous kernel.

    Trace mutations only append segments or move the end of the last one
    (equal-value merge), so everything before the old final segment is
    shared verbatim and only ``cum`` entries from that segment onward
    need recomputing.  The accumulation resumes from the last shared
    prefix-sum entry with the same left-to-right float64 additions a
    full recompute performs, so the result is bit-identical to
    :func:`compile_trace` on the grown trace.  The arithmetic is O(tail),
    but the three prefix lists are still copied whole (C-level list
    copies, O(trace)) on every extension, so the old kernel -- which a
    batch's kernel table may still hold -- stays an intact snapshot.
    """
    n_old = len(old.den_list)
    kernel = TraceKernel.__new__(TraceKernel)
    kernel.epoch = epoch
    times_list = old.times_list[:n_old]
    times_list.extend(times[n_old:])
    den_list = old.den_list[:]
    den_list.extend(1.0 + v for v in values[n_old:])
    cum_list = old.cum_list[:n_old]
    acc = cum_list[-1]
    for i in range(n_old - 1, len(values)):
        acc = acc + (times_list[i + 1] - times_list[i]) / den_list[i]
        cum_list.append(acc)
    kernel.times_list = times_list
    kernel.den_list = den_list
    kernel.cum_list = cum_list
    kernel._times_arr = None
    kernel._den_arr = None
    kernel._cum_arr = None
    return kernel


# -- scalar reference path ---------------------------------------------------
#
# Pure-Python implementations of the same algebra, recomputing the prefix
# sum with a plain left-to-right loop on every call.  CI cross-checks the
# kernel against these; they share the trace's extension helpers so both
# paths materialize identical trace states.


def _reference_cum(trace: "LoadTrace") -> "list[float]":
    """The prefix sum, accumulated exactly like ``numpy.cumsum``."""
    times = trace._times
    values = trace._values
    cum = [0.0]
    acc = 0.0
    for i in range(len(values)):
        acc += (times[i + 1] - times[i]) / (1.0 + values[i])
        cum.append(acc)
    return cum


def _reference_integral_to(trace: "LoadTrace", cum: "list[float]",
                           t: float) -> float:
    idx = bisect_right(trace._times, t) - 1
    if idx < 0 or idx >= len(trace._values):
        raise LoadModelError(
            f"time {t} is outside the materialized trace "
            f"[0, {trace._times[-1]}) -- extension failed")
    return cum[idx] + (t - trace._times[idx]) / (1.0 + trace._values[idx])


def integrate_availability_scalar(trace: "LoadTrace", t0: float,
                                  t1: float) -> float:
    """Scalar reference for :meth:`LoadTrace.integrate_availability`."""
    if t0 < 0:
        raise LoadModelError(f"negative start time {t0}")
    if t1 < t0:
        raise LoadModelError(f"empty window [{t0}, {t1}]")
    if t1 == t0:
        return 0.0
    trace._ensure(t1)
    cum = _reference_cum(trace)
    return (_reference_integral_to(trace, cum, t1)
            - _reference_integral_to(trace, cum, t0))


def advance_work_scalar(trace: "LoadTrace", t0: float,
                        demand: float) -> float:
    """Scalar reference for :meth:`LoadTrace.advance_work`."""
    if demand < 0:
        raise LoadModelError(f"negative compute demand {demand}")
    if demand == 0:
        return t0
    if t0 < 0:
        raise LoadModelError(f"negative start time {t0}")
    trace._ensure(t0)
    cum = _reference_cum(trace)
    target = _reference_integral_to(trace, cum, t0) + demand
    while cum[-1] < target:
        trace._extend_for_integral(target - cum[-1])
        cum = _reference_cum(trace)
    idx = bisect_left(cum, target) - 1
    if idx < 0:
        idx = 0
    finish = trace._times[idx] + (target - cum[idx]) * (1.0 + trace._values[idx])
    return finish if finish > t0 else t0


def value_at_scalar(trace: "LoadTrace", t: float) -> int:
    """Scalar reference for :meth:`LoadTrace.value_at`."""
    if t < 0:
        raise LoadModelError(f"negative time {t}")
    trace._ensure(t)
    idx = bisect_right(trace._times, t) - 1
    if idx < 0 or idx >= len(trace._values):
        raise LoadModelError(
            f"time {t} is outside the materialized trace "
            f"[0, {trace._times[-1]}) -- extension failed")
    return trace._values[idx]


# -- per-run batch state -----------------------------------------------------


class HostBatch:
    """Per-run batch query state over one platform's hosts.

    Holds the hosts' traces and speeds plus coherence state keyed to the
    process-wide trace-mutation counter (:func:`~repro.load.base.
    trace_mutations`), so repeated full-platform queries inside one run
    amortize to near-constant cost:

    * instantaneous rates are piecewise-constant in ``t``, so the whole
      rate map is cached and revalidated with one comparison (did any
      host cross a segment boundary?  trace growth cannot change an
      already-materialized segment, so appends never invalidate it);
    * window-averaged rates and work advancement keep per-host segment
      *cursor hints* -- query times are non-decreasing inside a run, so
      the next lookup starts in the right segment and walks forward,
      with a validity check and bisect fallback keeping any query order
      correct (amortized O(1) per host, independent of trace length).

    Given the platform's fault plan, :meth:`compute_end` pauses work
    during host revocations, exactly like
    :meth:`~repro.faults.plan.FaultPlan.advance_paused`.

    One instance serves one strategy run.  Callers must treat returned
    rate maps as read-only: the instantaneous map is a shared cache.
    """

    __slots__ = ("traces", "speeds", "_streams", "_rate_lo", "_rate_hi",
                 "_adv_t0", "_adv_cum", "_hzn", "_kern", "_mut_seen",
                 "_nseg", "_by_speed", "_eager_epochs",
                 "_inst_rates", "_inst_idx", "_inst_starts", "_inst_ends",
                 "_inst_min_end", "_inst_max_start")

    def __init__(self, hosts: "Sequence[Host]",
                 faults: "FaultPlan | None" = None) -> None:
        self.traces = [host.trace for host in hosts]
        self.speeds = [host.spec.speed for host in hosts]
        n = len(self.traces)
        #: Per-host revocation interval streams (``None`` entries for
        #: hosts that are never revoked), or ``None`` when none can be.
        self._streams = (None if faults is None
                         else faults.revocation_streams())
        #: ``(host, speed)`` by descending unloaded speed (ties by index),
        #: then a ``(-1, -inf)`` sentinel: the walk of
        #: :meth:`RateView.ranked`, built with the run's first view.
        self._by_speed: "list[tuple[int, float]] | None" = None
        self._rate_lo = [0] * n
        self._rate_hi = [0] * n
        self._adv_t0 = [0] * n
        self._adv_cum = [0] * n
        #: Lower bound on every trace's materialized horizon -- one
        #: comparison replaces the per-host horizon checks on the
        #: full-platform paths (horizons only ever grow).
        self._hzn = 0.0
        #: Per-host kernel table, valid while the process-wide mutation
        #: counter is unchanged (an unchanged counter proves every entry
        #: still matches its trace's epoch).
        self._kern: "list[TraceKernel]" = [None] * n  # type: ignore[list-item]
        self._mut_seen = -1
        #: Longest kernel in the table (segments), refreshed with it.
        self._nseg = 0
        #: Window-averaged epochs :meth:`rate_view` still serves eagerly.
        self._eager_epochs = 0
        self._inst_rates: "dict[int, float] | None" = None
        self._inst_idx = [0] * n
        self._inst_starts = [0.0] * n
        self._inst_ends = [0.0] * n
        self._inst_min_end = 0.0
        self._inst_max_start = 0.0

    def _ensure_all(self, t: float) -> None:
        """Materialize every trace through ``t`` and refresh ``_hzn``."""
        hzn = float("inf")
        for trace in self.traces:
            if t >= trace._horizon:
                trace._ensure(t)
            h = trace._horizon
            if h < hzn:
                hzn = h
        self._hzn = hzn

    def _kernels(self) -> "list[TraceKernel]":
        """The per-host kernel table, revalidated in one comparison.

        Keyed on the process-wide trace-mutation counter: unchanged
        counter means no trace mutated anywhere, so every cached kernel
        is still current and the hot loops skip the per-host trace,
        kernel, and epoch fetches entirely.  On a counter change the
        whole table is rebuilt through :meth:`LoadTrace.kernel` (which
        itself extends incrementally).
        """
        seen = _MUTATIONS[0]
        kerns = self._kern
        if self._mut_seen != seen:
            nseg = 0
            for i, trace in enumerate(self.traces):
                kernel = trace._kernel
                if kernel is None or kernel.epoch != trace._epoch:
                    kernel = trace.kernel()
                kerns[i] = kernel
                if len(kernel.den_list) > nseg:
                    nseg = len(kernel.den_list)
            self._nseg = nseg
            self._mut_seen = seen
        return kerns

    def rates_map(self, t: float, window: float = 0.0,
                  indices: "Sequence[int] | None" = None
                  ) -> "dict[int, float]":
        """Host-index -> rate map, exactly :meth:`Host.effective_rate`.

        Covers all hosts when ``indices`` is None.  The returned mapping
        is a shared cache -- read-only for callers.
        """
        t0 = max(0.0, t - window)
        if indices is None:
            if t >= self._hzn:
                self._ensure_all(t)
            if t0 == t:
                count_kernel_events(len(self.traces))
                # The cached map is exact only while ``t`` stays inside
                # every host's cached segment -- bounded on *both* sides
                # (a backward query below a cached segment's start must
                # re-resolve, not serve the later segment's rate).
                if (self._inst_max_start <= t < self._inst_min_end
                        and self._inst_rates is not None):
                    return self._inst_rates
                return self._inst_refresh(t)
            indices = range(len(self.traces))
        else:
            traces = self.traces
            for i in indices:
                trace = traces[i]
                if t >= trace._horizon:
                    trace._ensure(t)
        return self._rates_loop(t, t0, indices)

    def rate_view(self, t: float, window: float,
                  active: "Sequence[int]") -> "dict[int, float]":
        """:meth:`rates_map` for one decision epoch, lazy where that pays.

        Instantaneous rates (``window == 0``, or ``t == 0``) are
        piecewise constant: the full map stays cached across epochs and
        only hosts that crossed a segment boundary are re-resolved, which
        measured faster than any lazy walk -- so that map is returned as
        it is.  Window averages change every epoch for every host;
        for them this returns a :class:`RateView` with the active hosts'
        rates computed up front (a decision reads every one of them) and
        every other rate computed only when read or ranked.  The view
        raises :class:`~repro.errors.PolicyError` on reads outside the
        platform and on non-positive rates.  After a walk that did not
        prune (see ``_WALK_BUDGET``), the next ``_EAGER_EPOCHS`` window
        epochs get the full map as well.
        """
        t0 = max(0.0, t - window)
        if t0 == t:
            return self.rates_map(t)
        if self._eager_epochs:
            self._eager_epochs -= 1
            return self.rates_map(t, window)
        if t >= self._hzn:
            self._ensure_all(t)
        if self._mut_seen != _MUTATIONS[0]:
            self._kernels()
        if self._by_speed is None:
            self._by_speed = sorted(enumerate(self.speeds),
                                    key=lambda pair: pair[1], reverse=True)
            self._by_speed.append((-1, float("-inf")))
        n = len(self.speeds)
        if active and (min(active) < 0 or max(active) >= n):
            raise PolicyError(f"no predicted rate for hosts "
                              f"{[h for h in active if not 0 <= h < n]}")
        view = RateView(self._rates_loop(t, t0, active))
        if view and min(view.values()) <= 0.0:
            for host, rate in view.items():
                if rate <= 0.0:
                    raise PolicyError(
                        f"non-positive rate {rate} for host {host}")
        view.batch = self
        view.t = t
        view.t0 = t0
        # The bound ``speed * scale >= rate`` of RateView.ranked.  The
        # exact availability integral over [t0, t] is at most the span
        # (availability <= 1).  The computed ``(upper - lower) / span``
        # errs by at most about ``(k + 8) * u * t / span + 5 * u``
        # relative (u = 2**-53): each of the ``k`` prefix-sum additions
        # between the window's two end segments rounds at a magnitude of
        # at most ``t``, as do the two partial terms, the two lookups and
        # the subtraction; the divisions and the speed product add one
        # ``u`` each.  ``k`` is below the longest kernel's segment count,
        # and 8u per unit of ``(nseg + 16) * (t / span + 1)`` covers all
        # of it several times over: a loose bound only costs pruning
        # (for instantaneous rates the bound would be exact: ``den = 1.0
        # + n >= 1`` and monotone rounding keep ``speed * (1.0 / den)``
        # at most ``speed``).
        view.scale = 1.0 + ((self._nseg + 16) * (t / (t - t0) + 1.0)
                            * 2.0 ** -50)
        return view

    def _inst_refresh(self, t: float) -> "dict[int, float]":
        """Bring the instantaneous rate map up to date at ``t``.

        A cached per-host rate is exact until ``t`` leaves the segment
        it was read from (its cached end): appends only ever add
        segments or push the final breakpoint further out, so growth
        never changes a materialized segment.  Only hosts whose cached
        segment ended by ``t`` are re-resolved.
        """
        speeds = self.speeds
        idxs = self._inst_idx
        starts = self._inst_starts
        ends = self._inst_ends
        rates = self._inst_rates
        kerns = self._kern
        if self._mut_seen != _MUTATIONS[0]:
            kerns = self._kernels()
        if rates is None:
            rates = self._inst_rates = dict.fromkeys(
                range(len(self.traces)), 0.0)
        for i, end in enumerate(ends):
            if starts[i] <= t < end:
                continue
            kernel = kerns[i]
            times = kernel.times_list
            dens = kernel.den_list
            # Cursor hints can go *behind* t but never out of range:
            # kernels only ever grow (appends add segments, merges move
            # the final breakpoint out), so an index valid once is valid
            # forever, and the walk stops before the horizon entry
            # because _ensure guarantees t < times[-1].
            c = idxs[i]
            if times[c] > t:
                c = bisect_right(times, t) - 1
            else:
                while times[c + 1] <= t:
                    c += 1
            idxs[i] = c
            rates[i] = speeds[i] * (1.0 / dens[c])
            starts[i] = times[c]
            ends[i] = times[c + 1]
        self._inst_min_end = min(ends)
        self._inst_max_start = max(starts)
        return rates

    def _rates_loop(self, t: float, t0: float,
                    indices: "Sequence[int]") -> "dict[int, float]":
        """Cursor-hinted scalar loop (windowed and subset queries).

        Callers (:meth:`rates_map`) have already materialized every
        queried trace through ``t``.
        """
        speeds = self.speeds
        out = {}
        cur_hi = self._rate_hi
        bisect = bisect_right
        kerns = self._kern
        if self._mut_seen != _MUTATIONS[0]:
            kerns = self._kernels()
        if t0 == t:
            for i in indices:
                kernel = kerns[i]
                times = kernel.times_list
                dens = kernel.den_list
                c = cur_hi[i]
                if times[c] > t:
                    c = bisect(times, t) - 1
                else:
                    while times[c + 1] <= t:
                        c += 1
                cur_hi[i] = c
                out[i] = speeds[i] * (1.0 / dens[c])
        else:
            span = t - t0
            cur_lo = self._rate_lo
            for i in indices:
                kernel = kerns[i]
                times = kernel.times_list
                dens = kernel.den_list
                cum = kernel.cum_list
                c = cur_hi[i]
                if times[c] > t:
                    c = bisect(times, t) - 1
                else:
                    while times[c + 1] <= t:
                        c += 1
                cur_hi[i] = c
                upper = cum[c] + (t - times[c]) / dens[c]
                c = cur_lo[i]
                if times[c] > t0:
                    c = bisect(times, t0) - 1
                else:
                    while times[c + 1] <= t0:
                        c += 1
                cur_lo[i] = c
                lower = cum[c] + (t0 - times[c]) / dens[c]
                out[i] = speeds[i] * ((upper - lower) / span)
        count_kernel_events(len(out))
        return out

    def compute_end(self, chunks: "Mapping[int, float]", t0: float) -> float:
        """``max`` of per-host work-advancement finishes, exactly
        ``max(recovery.compute_finish(platform, h, t0, flops) for ...)``.

        A host without revocations advances like
        :meth:`Host.compute_finish`.  A revocable host runs the paused
        walk of :meth:`~repro.faults.plan.FaultPlan.advance_paused`,
        operation for operation: skip to the end of a down interval,
        advance, stop at the next onset, subtract ``I(onset) - I(t)``
        from the demand and repeat -- on the kernel table, cursor hints
        and the plan's state windows (see :class:`~repro.faults.plan.
        FaultPlan`) instead of the per-host call chain.
        """
        if t0 < 0:
            raise LoadModelError(f"negative start time {t0}")
        traces = self.traces
        speeds = self.speeds
        streams = self._streams
        adv_t0 = self._adv_t0
        adv_cum = self._adv_cum
        if t0 >= self._hzn:
            # Below the batch horizon bound every queried trace is
            # already materialized past ``t0``; otherwise check per host.
            for i in chunks:
                trace = traces[i]
                if t0 >= trace._horizon:
                    trace._ensure(t0)
        kerns = self._kern
        if self._mut_seen != _MUTATIONS[0]:
            kerns = self._kernels()
        best = t0
        for i, flops in chunks.items():
            demand = flops / speeds[i]
            stream = None if streams is None else streams[i]
            if demand == 0:
                continue
            if demand < 0:
                raise (LoadModelError if stream is None else FaultError)(
                    f"negative compute demand {demand}")
            kernel = kerns[i]
            times = kernel.times_list
            dens = kernel.den_list
            cum = kernel.cum_list
            t = t0
            while True:
                if stream is not None:
                    # Down at ``t``: nothing runs until the host returns.
                    if not stream.lo <= t < stream.hi:
                        stream.window(t)
                    if stream.down:
                        t = stream.hi
                    if demand == 0:
                        # Clamped to nothing left: advance_work's early
                        # return, and no onset follows.
                        finish = t
                        break
                    trace = traces[i]
                    if t >= trace._horizon:
                        trace._ensure(t)
                        kernel = kerns[i] = trace.kernel()
                        times = kernel.times_list
                        dens = kernel.den_list
                        cum = kernel.cum_list
                c = adv_t0[i]
                if times[c] > t:
                    c = bisect_right(times, t) - 1
                else:
                    while times[c + 1] <= t:
                        c += 1
                adv_t0[i] = c
                done = cum[c] + (t - times[c]) / dens[c]
                target = done + demand
                if cum[-1] < target:
                    trace = traces[i]
                    while cum[-1] < target:
                        trace._extend_for_integral(target - cum[-1])
                        kernel = trace.kernel()
                        times = kernel.times_list
                        dens = kernel.den_list
                        cum = kernel.cum_list
                    # The extension bumped the mutation counter; keep this
                    # host's table entry current for the rest of the loop
                    # (the next _kernels() call revalidates the others).
                    kerns[i] = kernel
                c = adv_cum[i]
                if not cum[c] < target:
                    c = bisect_left(cum, target) - 1
                    if c < 0:
                        c = 0
                else:
                    while cum[c + 1] < target:
                        c += 1
                adv_cum[i] = c
                finish = times[c] + (target - cum[c]) * dens[c]
                if stream is None:
                    break
                # Time never runs backwards (advance_work's clamp); the
                # fault-free path gets it from ``best = t0``.
                if not finish > t:
                    finish = t
                # The first onset in ``(t, finish)``: one at ``finish``
                # itself interrupts nothing.  Up at ``t``, it is the
                # window's end; down (a return that is the next onset),
                # the one after.
                if not stream.lo <= t < stream.hi:
                    stream.window(t)
                if stream.down:
                    onset = stream.next_start(t, finish)
                    if onset is None:
                        break
                else:
                    onset = stream.hi
                if onset >= finish:
                    break
                # Revoked mid-phase: keep the work done up to the onset.
                trace = traces[i]
                if onset >= trace._horizon:
                    trace._ensure(onset)
                    kernel = kerns[i] = trace.kernel()
                    times = kernel.times_list
                    dens = kernel.den_list
                    cum = kernel.cum_list
                c = adv_t0[i]
                if times[c] > onset:
                    c = bisect_right(times, onset) - 1
                else:
                    while times[c + 1] <= onset:
                        c += 1
                adv_t0[i] = c
                demand -= (cum[c] + (onset - times[c]) / dens[c]) - done
                if demand < 0.0:  # pragma: no cover - float safety
                    demand = 0.0
                t = onset
            if finish > best:
                best = finish
        count_kernel_events(len(chunks))
        return best


#: A :meth:`RateView.ranked` walk that evaluates more candidates than
#: this before its first answer did not prune: the load is chaotic
#: enough that every fast host is loaded.  The batch then serves the
#: next ``_EAGER_EPOCHS`` window-averaged decision epochs with full maps
#: (cheaper than a walk that reaches every host) before it tries again.
_WALK_BUDGET = 4
_EAGER_EPOCHS = 32


class RateView(dict):
    """Window-averaged host-index -> rate map of one decision epoch,
    computed lazily.

    Built by :meth:`HostBatch.rate_view`.  Each rate is exactly the
    value :meth:`HostBatch.rates_map` returns for the same ``(t,
    window)`` -- same algebra, same cursor hints -- but a host's rate is
    only computed when read.  Membership (``in``, ``len``, iteration)
    therefore reports only the rates computed so far.

    This is a *bounded rate source* for
    :func:`~repro.core.decision.decide_swaps`: :meth:`ranked` answers
    the decision's "fastest inactive processor" questions while skipping
    every spare whose unloaded speed bound proves it cannot be next.
    Later batch queries do not stale a view: every trace is materialized
    past ``t`` when it is built, growth never changes a materialized
    segment, and cursor hints fall back to bisection when moved past.
    """

    __slots__ = ("batch", "t", "t0", "scale")

    def __missing__(self, host: int) -> float:
        batch = self.batch
        if not 0 <= host < len(batch.speeds):
            raise PolicyError(f"no predicted rate for hosts [{host}]")
        rate = batch._rates_loop(self.t, self.t0, (host,))[host]
        if rate <= 0.0:
            raise PolicyError(f"non-positive rate {rate} for host {host}")
        self[host] = rate
        return rate

    def ranked(self, candidates: "Sequence[int]") -> "Iterator[int]":
        """The (distinct) candidates, fastest first, evaluated lazily.

        Yields exactly the order in which repeatedly taking ``max(rest,
        key=self.__getitem__)`` and removing it picks them: rate
        descending, an exact tie going to the candidate earlier in
        ``candidates``.  Walks hosts in descending unloaded speed and
        yields the best evaluated candidate once its rate is *strictly*
        above the next host's bound ``speed * scale``: no rate exceeds
        its bound (see :meth:`HostBatch.rate_view`) and the walk order
        makes every later bound smaller still, while a bound equal to
        the best rate could still hide a tie that sorts first.  So a
        candidate is evaluated only when it could come next.  The cursor
        code of :meth:`HostBatch._rates_loop` is inlined: in chaotic
        epochs this loop reaches most hosts.
        """
        batch = self.batch
        n = len(batch.speeds)
        if candidates and (min(candidates) < 0 or max(candidates) >= n):
            raise PolicyError(f"no predicted rate for hosts "
                              f"{[h for h in candidates if not 0 <= h < n]}")
        pos = dict(zip(candidates, range(len(candidates))))
        t = self.t
        t0 = self.t0
        span = t - t0
        scale = self.scale
        kerns = batch._kern
        if batch._mut_seen != _MUTATIONS[0]:
            kerns = batch._kernels()
        cur_hi = batch._rate_hi
        cur_lo = batch._rate_lo
        # Evaluated candidates as (-rate, position) -- a ranking heap, not
        # an event queue; ``top`` is their best rate (0.0 when none: every
        # bound is positive).  The walk ends on a sentinel of bound -inf
        # that releases whatever is left.
        heap: "list[tuple[float, int]]" = []
        top = 0.0
        computed = 0
        first = True
        for i, speed in batch._by_speed:
            bound = speed * scale
            if top > bound:
                if first:
                    first = False
                    if computed > _WALK_BUDGET:
                        batch._eager_epochs = _EAGER_EPOCHS
                count_kernel_events(computed)
                computed = 0
                while heap and -heap[0][0] > bound:
                    rate, k = heappop(heap)
                    rate = -rate
                    if rate <= 0.0:
                        raise PolicyError(f"non-positive rate {rate} for "
                                          f"host {candidates[k]}")
                    host = candidates[k]
                    self[host] = rate
                    yield host
                top = -heap[0][0] if heap else 0.0
            k = pos.get(i)
            if k is None:
                continue
            kernel = kerns[i]
            times = kernel.times_list
            dens = kernel.den_list
            cum = kernel.cum_list
            c = cur_hi[i]
            if times[c] > t:
                c = bisect_right(times, t) - 1
            else:
                while times[c + 1] <= t:
                    c += 1
            cur_hi[i] = c
            upper = cum[c] + (t - times[c]) / dens[c]
            c = cur_lo[i]
            if times[c] > t0:
                c = bisect_right(times, t0) - 1
            else:
                while times[c + 1] <= t0:
                    c += 1
            cur_lo[i] = c
            lower = cum[c] + (t0 - times[c]) / dens[c]
            rate = speed * ((upper - lower) / span)
            computed += 1
            heappush(heap, (-rate, k))
            if rate > top:
                top = rate


# -- batch entry point -------------------------------------------------------


def effective_rates_many(hosts: "Sequence[Host]", t: float,
                         window: float = 0.0) -> "list[float]":
    """Window-averaged effective rates across hosts, flattened.

    The exact algebra of :meth:`Host.effective_rate` -- instantaneous
    ``speed / (1 + n(t))`` for ``window == 0`` (or ``t == 0``), else
    ``speed * (I(t) - I(t0)) / (t - t0)`` -- with the per-host call
    chain collapsed into one loop over cached kernels.
    """
    if window < 0:
        raise LoadModelError(f"negative window {window}")
    t0 = max(0.0, t - window)
    rates = []
    if t0 == t:
        for host in hosts:
            trace = host.trace
            if t >= trace._horizon:
                trace._ensure(t)
            kernel = trace._kernel
            if kernel is None or kernel.epoch != trace._epoch:
                kernel = trace.kernel()
            rates.append(host.spec.speed
                         * (1.0 / kernel.den_list[kernel.index_of(t)]))
    else:
        span = t - t0
        for host in hosts:
            trace = host.trace
            if t >= trace._horizon:
                trace._ensure(t)
            kernel = trace._kernel
            if kernel is None or kernel.epoch != trace._epoch:
                kernel = trace.kernel()
            integral = kernel.integral_to(t) - kernel.integral_to(t0)
            rates.append(host.spec.speed * (integral / span))
    count_kernel_events(len(rates))
    return rates
