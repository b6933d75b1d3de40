"""Degenerate hyperexponential CPU load (paper Section 6, Fig. 3).

Competing processes arrive at each host as a Poisson stream (the paper's
"process arrival adheres to a uniform random distribution") and live for a
time drawn from a *degenerate hyperexponential* distribution, following
Eager, Lazowska and Zahorjan [14]: with probability ``branch_prob = a``
the lifetime is exponential with mean ``mean_lifetime / a``, otherwise it
is zero (a process too short to matter).  This keeps the overall mean at
``mean_lifetime`` while making the squared coefficient of variation
``CV^2 = 2/a - 1 > 1`` -- the heavy-tailed process-lifetime behaviour the
paper wants ("this model should better predict the heavy-tailed nature of
the process lifetime distribution").

Unlike the ON/OFF model, several competing processes may overlap, so
``n(t)`` can exceed 1 (paper: "we allow multiple simultaneous competing
processes per processor").
"""

from __future__ import annotations

import heapq

from repro.errors import LoadModelError
from repro.load.base import LoadModel, LoadTrace


class HyperexponentialLoadModel(LoadModel):
    """Poisson arrivals + degenerate hyperexponential lifetimes.

    Parameters
    ----------
    mean_lifetime:
        Mean competing-process lifetime in seconds (the x-axis of the
        paper's Fig. 9: "environment dynamism [mean process lifetime]").
    utilization:
        Offered load ``rho = arrival_rate * mean_lifetime``; the arrival
        rate is derived so that the long-run expected number of competing
        processes is ``rho`` regardless of the swept lifetime.
    branch_prob:
        The ``a`` of the degenerate hyperexponential (0 < a <= 1);
        ``a = 1`` degenerates to a plain exponential.
    """

    def __init__(self, mean_lifetime: float, utilization: float = 0.4,
                 branch_prob: float = 0.1) -> None:
        if mean_lifetime <= 0:
            raise LoadModelError(f"mean_lifetime must be > 0, got {mean_lifetime}")
        if utilization < 0:
            raise LoadModelError(f"utilization must be >= 0, got {utilization}")
        if not 0.0 < branch_prob <= 1.0:
            raise LoadModelError(f"branch_prob must be in (0, 1], got {branch_prob}")
        self.mean_lifetime = float(mean_lifetime)
        self.utilization = float(utilization)
        self.branch_prob = float(branch_prob)

    @property
    def arrival_rate(self) -> float:
        """Arrivals per second: ``utilization / mean_lifetime``."""
        return self.utilization / self.mean_lifetime

    @property
    def cv_squared(self) -> float:
        """Squared coefficient of variation of the lifetime: ``2/a - 1``."""
        return 2.0 / self.branch_prob - 1.0

    def _lifetime(self, rng) -> float:
        if rng.random() >= self.branch_prob:
            return 0.0
        return float(rng.exponential(self.mean_lifetime / self.branch_prob))

    def build(self, rng, horizon: float) -> LoadTrace:
        if self.utilization == 0.0:
            def extend_idle(trace: LoadTrace, new_horizon: float) -> None:
                trace.append_segment(new_horizon, 0)
            return LoadTrace([0.0, max(horizon, 1.0)], [0], extender=extend_idle)

        # State shared by successive extend() calls: departure-time heap of
        # live processes, and the next arrival instant.
        state = {
            "departures": [],            # min-heap of departure times
            "next_arrival": float(rng.exponential(1.0 / self.arrival_rate)),
        }

        def extend(trace: LoadTrace, new_horizon: float) -> None:
            departures = state["departures"]
            while trace.horizon < new_horizon:
                now = trace.horizon
                n_live = len(departures)
                next_departure = departures[0] if departures else float("inf")
                next_event = min(state["next_arrival"], next_departure)
                if next_event > new_horizon:
                    trace.append_segment(new_horizon, n_live)
                    return
                if next_event > now:
                    trace.append_segment(next_event, n_live)
                if next_departure <= state["next_arrival"]:
                    # This heap orders *lifetime departures* local to one
                    # load source; it never touches the event loop.
                    heapq.heappop(departures)
                else:
                    arrival = state["next_arrival"]
                    life = self._lifetime(rng)
                    if life > 0.0:
                        heapq.heappush(departures, arrival + life)
                    state["next_arrival"] = arrival + float(
                        rng.exponential(1.0 / self.arrival_rate))

        trace = LoadTrace([0.0, 1e-12], [0], extender=extend)
        extend(trace, max(horizon, 1.0))
        return trace

    def describe(self) -> str:
        return (f"hyperexp(mean_lifetime={self.mean_lifetime:g}s, "
                f"rho={self.utilization:g}, a={self.branch_prob:g})")
