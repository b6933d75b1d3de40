"""The do-nothing baseline (the paper's "NOTHING" technique).

Allocate exactly ``N`` processors (the fastest at startup), partition the
data equally, and run every iteration on them regardless of external load.

Under fault injection NOTHING cannot adapt either: a revoked active host
stalls the whole application (the BSP barrier waits) until the host is
returned, and every such stall is *declared* -- a ``fault.stall`` trace
record per revocation -- so the trace accounts for every revocation of
an active host.
"""

from __future__ import annotations

from repro.simkernel.plan import SimPlan, lower
from repro.strategies.base import Strategy


class NothingStrategy(Strategy):
    """Never adapt: the reference point every figure is measured against."""

    name = "nothing"

    def _setup(self, active, chunks) -> SimPlan:
        return lower(self._platform, self._app)

    def _interruption(self, active, start, compute_end, i):
        """Never interrupt: declare a revocation + stall per revocation
        overlapping the compute phase (NOTHING's only possible reaction).

        Events are sorted by time across hosts so the trace row stays
        monotonic (TL001).
        """
        events = []
        for h in active:
            for onset, until in self._faults.revocations_in(h, start,
                                                            compute_end):
                stalled = min(until, compute_end) - max(onset, start)
                if stalled > 0.0:
                    events.append((max(onset, start), h, onset, until, stalled))
        for detect, h, onset, until, stalled in sorted(events):
            self._declare("revocation", detect, i,
                          {"host": h, "onset": onset, "until": until})
            self._declare("stall", detect, i,
                          {"host": h, "stalled": stalled,
                           "reason": "no-adaptation"})
            self._result.progress.record(detect, i, "stall",
                                         f"host{h} revoked")
        return None
