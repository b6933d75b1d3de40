"""Deterministic fault plans: revocations, transfer failures, outages.

The paper's Section 2 motivates over-allocation with Condor-style
*eviction*: a workstation owner reclaims their machine and the processes
on it are gone.  :class:`FaultModel` describes a stochastic fault
environment; :class:`FaultPlan` is one concrete realization of it, built
from named RNG streams under the same reproducibility contract as
:mod:`repro.load`:

* every draw comes from a :class:`~repro.simkernel.rng.RngRegistry`
  stream, so the same ``(seed, key path)`` yields the same plan;
* plans are *lazily extensible* -- intervals materialize on demand as
  queries advance, and the realized sequence depends only on the stream,
  never on which strategy queried first (draws are consumed in time
  order regardless of query order);
* one plan is shared by every strategy in a comparison, so all
  techniques face the *same* revocations, the same transfer-failure
  pattern (keyed by per-run attempt sequence numbers, not by consumption
  order), and the same store outages.

Three fault classes are modelled:

* **Host revocations** -- per-host alternating up/down renewal process
  (exponential uptime at ``revocation_rate`` per host-hour, exponential
  downtime).  A revoked host computes nothing until it returns.
* **Swap-transfer failures** -- each state-image transfer attempt fails
  independently with ``transfer_failure_prob``; failures are transient
  (retry gating is the recovering strategy's job).
* **Checkpoint-store outages** -- a global alternating up/down process
  during which the central checkpoint location is unreachable.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass

from repro.errors import FaultError
from repro.simkernel.rng import RngRegistry, derive_seed
from repro.units import HOUR

class _IntervalStream:
    """Lazily materialized alternating up/down intervals from one stream.

    Down intervals ``[start, end)`` are generated in time order: an
    exponential uptime gap, then an exponential (floored) downtime.
    ``known_until`` is the time up to which the realization is decided;
    queries past it trigger more draws.  Because draws are strictly
    sequential, the realized intervals are a pure function of the stream
    -- independent of how many queries materialized them.
    """

    __slots__ = ("rng", "mean_up", "mean_down", "min_down",
                 "starts", "ends", "known_until", "lo", "hi", "down")

    def __init__(self, rng, mean_up: float, mean_down: float,
                 min_down: float) -> None:
        self.rng = rng
        self.mean_up = float(mean_up)
        self.mean_down = float(mean_down)
        self.min_down = float(min_down)
        self.starts: "list[float]" = []
        self.ends: "list[float]" = []
        self.known_until = 0.0
        #: The state window of the last :meth:`window` query: over
        #: ``[lo, hi)`` the state is constant, ``down`` or up.  Empty
        #: until the first query.
        self.lo = self.hi = 0.0
        self.down = False

    def _draw(self) -> None:
        gap = float(self.rng.exponential(self.mean_up))
        start = self.known_until + gap
        down = max(self.min_down, float(self.rng.exponential(self.mean_down)))
        self.starts.append(start)
        self.ends.append(start + down)
        self.known_until = start + down

    def _ensure(self, t: float) -> None:
        while self.known_until < t:
            self._draw()

    def window(self, t: float) -> None:
        """Move the state window to the one holding ``t``: a down
        interval ``[start, end)``, or the up gap from the previous end
        (``-inf`` before the first onset) to the next onset, drawn if
        need be.  Readers test ``lo <= t < hi`` and call this only when
        ``t`` has left the window, so a query inside it costs no bisect.
        """
        self._ensure(t)
        starts = self.starts
        k = bisect_right(starts, t) - 1
        if k >= 0 and t < self.ends[k]:
            self.lo, self.hi, self.down = starts[k], self.ends[k], True
            return
        if k + 1 == len(starts):
            self._draw()
        self.lo = self.ends[k] if k >= 0 else -math.inf
        self.hi = starts[k + 1]
        self.down = False

    def down_at(self, t: float) -> bool:
        self._ensure(t)
        i = bisect_right(self.starts, t) - 1
        return i >= 0 and t < self.ends[i]

    def end_of_down(self, t: float) -> float:
        """End of the down interval covering ``t`` (``t`` if up)."""
        self._ensure(t)
        i = bisect_right(self.starts, t) - 1
        if i >= 0 and t < self.ends[i]:
            return self.ends[i]
        return t

    def next_start(self, t0: float, t1: float) -> "float | None":
        """First down-interval start in ``(t0, t1]``, or ``None``."""
        self._ensure(t1)
        i = bisect_right(self.starts, t0)
        if i < len(self.starts) and self.starts[i] <= t1:
            return self.starts[i]
        return None

    def down_seconds(self, t0: float, t1: float) -> float:
        """Total down time overlapping ``[t0, t1]``."""
        self._ensure(t1)
        total = 0.0
        i = max(bisect_right(self.starts, t0) - 1, 0)
        while i < len(self.starts) and self.starts[i] < t1:
            total += max(0.0, min(self.ends[i], t1) - max(self.starts[i], t0))
            i += 1
        return total


@dataclass(frozen=True)
class FaultModel:
    """Stochastic description of a fault environment.

    Parameters
    ----------
    revocation_rate:
        Mean host revocations per host-hour (0 disables revocations).
    mean_downtime:
        Mean revocation duration in seconds (exponential, floored at
        ``min_downtime``).
    min_downtime:
        Floor on revocation durations (avoids zero-length revocations).
    store_outage_rate:
        Mean checkpoint-store outages per hour (0 disables outages).
    mean_store_outage:
        Mean store outage duration in seconds.
    transfer_failure_prob:
        Per-attempt probability that a state-image transfer fails.
    max_transfer_retries:
        Retries granted after a failed transfer attempt before the
        recovering strategy must give up (declare a stall).
    """

    revocation_rate: float = 0.0
    mean_downtime: float = 300.0
    min_downtime: float = 1.0
    store_outage_rate: float = 0.0
    mean_store_outage: float = 120.0
    transfer_failure_prob: float = 0.0
    max_transfer_retries: int = 3

    def __post_init__(self) -> None:
        if self.revocation_rate < 0:
            raise FaultError(f"negative revocation_rate {self.revocation_rate}")
        if self.mean_downtime <= 0 or self.min_downtime < 0:
            raise FaultError("revocation downtimes must be positive")
        if self.store_outage_rate < 0:
            raise FaultError(f"negative store_outage_rate {self.store_outage_rate}")
        if self.mean_store_outage <= 0:
            raise FaultError("mean_store_outage must be positive")
        if not 0.0 <= self.transfer_failure_prob < 1.0:
            raise FaultError(
                f"transfer_failure_prob must be in [0, 1), got "
                f"{self.transfer_failure_prob}")
        if self.max_transfer_retries < 0:
            raise FaultError("max_transfer_retries must be >= 0")

    def build(self, registry: RngRegistry, n_hosts: int) -> "FaultPlan":
        """Realize a plan for ``n_hosts`` from ``registry``'s streams."""
        if n_hosts < 1:
            raise FaultError(f"need at least one host, got {n_hosts}")
        return FaultPlan(self, registry, n_hosts)

    def describe(self) -> str:
        return (f"faults(rev={self.revocation_rate}/host-h, "
                f"down~{self.mean_downtime}s, "
                f"xfail={self.transfer_failure_prob}, "
                f"store={self.store_outage_rate}/h)")


class FaultPlan:
    """One realized fault schedule, shared by all strategies in a cell.

    Host revocation intervals are half-open ``[start, end)``: a host is
    revoked at its onset and back at its return time.  All queries are
    exact interval walks -- no time stepping.

    The batch queries (:meth:`alive`, :meth:`revoked_at`,
    :meth:`earliest_onset`, :meth:`revocations_in` and
    :meth:`repro.load.kernels.HostBatch.compute_end`) read each host's
    *state window* (:meth:`_IntervalStream.window`): the interval over
    which its up/down state is constant, ending at its next onset when
    up and at its return when down.  A run's queries move forward in
    time, so most land in the window of the last one and cost no
    bisect.  :meth:`is_revoked`, :meth:`next_onset` and
    :meth:`advance_paused` bisect on every call: they are the per-host
    oracle the windowed readers are tested against.
    """

    def __init__(self, model: FaultModel, registry: RngRegistry,
                 n_hosts: int) -> None:
        self.model = model
        self.n_hosts = int(n_hosts)
        self._revocations: "dict[int, _IntervalStream]" = {}
        if model.revocation_rate > 0:
            mean_up = HOUR / model.revocation_rate
            rngs = registry.streams(("revocation", h) for h in range(n_hosts))
            for h, rng in enumerate(rngs):
                self._revocations[h] = _IntervalStream(
                    rng, mean_up, model.mean_downtime, model.min_downtime)
        self._store: "_IntervalStream | None" = None
        if model.store_outage_rate > 0:
            self._store = _IntervalStream(
                registry.stream("store"), HOUR / model.store_outage_rate,
                model.mean_store_outage, model.min_downtime)
        self._transfer_seed = registry.seed_for("transfer")

    # -- host revocations ------------------------------------------------

    @property
    def max_transfer_retries(self) -> int:
        return self.model.max_transfer_retries

    def is_revoked(self, host: int, t: float) -> bool:
        """Whether ``host`` is revoked (owner-reclaimed) at time ``t``."""
        stream = self._revocations.get(host)
        return stream is not None and stream.down_at(t)

    def return_time(self, host: int, t: float) -> float:
        """When ``host`` comes back if revoked at ``t`` (else ``t``)."""
        stream = self._revocations.get(host)
        return t if stream is None else stream.end_of_down(t)

    def revoked_at(self, t: float, hosts) -> "list[int]":
        """The subset of ``hosts`` revoked at ``t`` (platform order)."""
        if not self._revocations:
            return []
        return self._partition(hosts, t)[1]

    def alive(self, hosts, t: float) -> "list[int]":
        """The subset of ``hosts`` not revoked at ``t``, in input order.

        Exactly ``[h for h in hosts if not self.is_revoked(h, t)]``.
        """
        if not self._revocations:
            return list(hosts)
        return self._partition(hosts, t)[0]

    def _partition(self, hosts, t: float) -> "tuple[list[int], list[int]]":
        """``hosts`` split into (up, revoked) at ``t``, in input order:
        :meth:`is_revoked` read off each host's state window, which is
        moved (one bisect) only when ``t`` has left it."""
        streams = self._revocations
        up: "list[int]" = []
        down: "list[int]" = []
        for h in hosts:
            stream = streams.get(h)
            if stream is not None:
                if not stream.lo <= t < stream.hi:
                    stream.window(t)
                if stream.down:
                    down.append(h)
                    continue
            up.append(h)
        return up, down

    def revocation_streams(self) -> "list[_IntervalStream | None] | None":
        """Each host's revocation interval stream (``None`` for a host
        without one), or ``None`` when no host can be revoked.

        For batch walkers (:meth:`repro.load.kernels.HostBatch.
        compute_end`) that inline :meth:`advance_paused`.
        """
        if not self._revocations:
            return None
        return [self._revocations.get(h) for h in range(self.n_hosts)]

    def next_onset(self, host: int, t0: float, t1: float) -> "float | None":
        """First revocation onset of ``host`` in ``(t0, t1]``, if any."""
        stream = self._revocations.get(host)
        return None if stream is None else stream.next_start(t0, t1)

    def earliest_onset(self, hosts, t0: float,
                       t1: float) -> "tuple[float, list[int]] | None":
        """Earliest revocation onset among ``hosts`` in ``(t0, t1]``.

        Returns ``(onset_time, hosts revoked at exactly that time)`` or
        ``None``.  Multiple hosts share an entry only on an exact tie.
        :meth:`next_onset` per host, inlined into one loop.
        """
        streams = self._revocations
        best: "float | None" = None
        victims: "list[int]" = []
        for h in hosts:
            stream = streams.get(h)
            if stream is None:
                continue
            if not stream.lo <= t0 < stream.hi:
                stream.window(t0)
            if stream.down:
                # The next onset lies past the window's return.
                onset = stream.next_start(t0, t1)
                if onset is None:
                    continue
            else:
                onset = stream.hi
                if onset > t1:
                    continue
            if best is None or onset < best:
                best, victims = onset, [h]
            elif onset == best:
                victims.append(h)
        return None if best is None else (best, victims)

    def revocations_in(self, host: int, t0: float,
                       t1: float) -> "list[tuple[float, float]]":
        """Revocation intervals of ``host`` overlapping ``[t0, t1]``."""
        if t1 < t0:
            raise FaultError(f"empty window [{t0}, {t1}]")
        stream = self._revocations.get(host)
        if stream is None:
            return []
        if not stream.lo <= t0 < stream.hi:
            stream.window(t0)
        if not stream.down and stream.lo < t0 and t1 < stream.hi:
            # Up over all of [t0, t1], no interval ending at t0.
            return []
        stream._ensure(t1)
        out = []
        i = max(bisect_right(stream.starts, t0) - 1, 0)
        while i < len(stream.starts) and stream.starts[i] <= t1:
            if stream.ends[i] >= t0:
                out.append((stream.starts[i], stream.ends[i]))
            i += 1
        return out

    def revoked_seconds(self, host: int, t0: float, t1: float) -> float:
        """Total time ``host`` spends revoked within ``[t0, t1]``."""
        if t1 < t0:
            raise FaultError(f"empty window [{t0}, {t1}]")
        stream = self._revocations.get(host)
        return 0.0 if stream is None else stream.down_seconds(t0, t1)

    def advance_paused(self, host: int, trace, t0: float,
                       demand: float) -> float:
        """Finish time of ``demand`` dedicated-CPU-seconds on ``host``,
        making zero progress during the host's revocation windows.

        ``trace`` is the host's :class:`~repro.load.base.LoadTrace`;
        outside revocations the work advances exactly as
        :meth:`LoadTrace.advance_work` would.
        """
        stream = self._revocations.get(host)
        if stream is None:
            return trace.advance_work(t0, demand)
        if demand < 0:
            raise FaultError(f"negative compute demand {demand}")
        if demand == 0:
            return t0
        t = float(t0)
        remaining = float(demand)
        while True:
            if stream.down_at(t):
                t = stream.end_of_down(t)
            finish = trace.advance_work(t, remaining)
            onset = stream.next_start(t, finish)
            if onset is None or finish <= onset:
                return finish
            remaining -= trace.integrate_availability(t, onset)
            if remaining < 0.0:  # pragma: no cover - float safety
                remaining = 0.0
            t = onset

    # -- checkpoint store ------------------------------------------------

    def store_available(self, t: float) -> bool:
        """Whether the central checkpoint location is reachable at ``t``."""
        return self._store is None or not self._store.down_at(t)

    def store_ready_time(self, t: float) -> float:
        """End of the store outage covering ``t`` (``t`` if reachable)."""
        return t if self._store is None else self._store.end_of_down(t)

    # -- transfer failures -----------------------------------------------

    def transfer_fails(self, seq: int) -> bool:
        """Whether transfer attempt number ``seq`` fails.

        Keyed by the caller's per-run attempt sequence number through a
        hash (not by RNG consumption order), so the failure pattern a
        strategy observes depends only on ``(seed, seq)`` -- the same
        order-independence contract as the rest of the registry.
        """
        p = self.model.transfer_failure_prob
        if p <= 0.0:
            return False
        draw = derive_seed(self._transfer_seed, "attempt", int(seq))
        return (draw >> 11) / float(1 << 53) < p

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<FaultPlan hosts={self.n_hosts} {self.model.describe()}>"
