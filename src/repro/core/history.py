"""Performance history and forecasting.

Section 4.1: "The amount of performance history used to predict processor
performance can be tuned.  Increasing the amount of history reduces the
chance of being fooled by a transient load event, but can cause the
application to miss good swapping opportunities.  This parameter enables
swap frequency damping."

:class:`PerformanceHistory` keeps timestamped samples inside a sliding
window.  Forecasters turn a history into a prediction: the paper's
windowed mean, or the last value when there is no history.  The Network
Weather Service forecaster bank the paper cites for its measurement
infrastructure lives in :mod:`repro.nws`.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Tuple

import numpy as np

from repro.errors import PolicyError


class PerformanceHistory:
    """Timestamped samples inside a sliding time window.

    Parameters
    ----------
    window:
        Window length in seconds.  ``0`` means "no history": only the most
        recent sample is retained (the greedy policy's configuration).
    """

    def __init__(self, window: float = 0.0) -> None:
        if window < 0:
            raise PolicyError(f"negative history window {window}")
        self.window = float(window)
        self._samples: Deque[Tuple[float, float]] = deque()

    def __len__(self) -> int:
        return len(self._samples)

    def record(self, t: float, value: float) -> None:
        """Add a sample; timestamps must be non-decreasing."""
        if self._samples and t < self._samples[-1][0]:
            raise PolicyError(
                f"sample at t={t} is older than the newest sample "
                f"(t={self._samples[-1][0]})")
        self._samples.append((float(t), float(value)))
        self._trim(t)

    def _trim(self, now: float) -> None:
        cutoff = now - self.window
        # Always keep at least the newest sample.
        while len(self._samples) > 1 and self._samples[0][0] < cutoff:
            self._samples.popleft()

    def samples(self, now: float | None = None) -> "list[tuple[float, float]]":
        """Samples inside the window ending at ``now`` (a non-mutating view).

        Reads never discard anything: a forecaster probing at a late
        ``now`` sees the windowed view but the stored samples survive for
        later reads at earlier-or-equal times.  (Storage itself is trimmed
        only by :meth:`record`, against the newest sample's timestamp.)
        """
        if now is None or not self._samples:
            return list(self._samples)
        cutoff = now - self.window
        view = [s for s in self._samples if s[0] >= cutoff]
        # Same guarantee as _trim: the newest sample is always visible.
        return view or [self._samples[-1]]

    def values(self, now: float | None = None) -> "list[float]":
        """Windowed values, in one pass (same view as :meth:`samples`)."""
        samples = self._samples
        if now is None or not samples:
            return [s[1] for s in samples]
        cutoff = now - self.window
        view = [v for t, v in samples if t >= cutoff]
        return view or [samples[-1][1]]

    @property
    def last(self) -> float:
        """Most recent value; raises if empty."""
        if not self._samples:
            raise PolicyError("history is empty")
        return self._samples[-1][1]


class Forecaster:
    """Turns a history into a single predicted value."""

    name = "forecaster"

    def predict(self, history: PerformanceHistory, now: float) -> float:
        raise NotImplementedError


class LastValueForecaster(Forecaster):
    """Predict the most recent measurement (no damping)."""

    name = "last"

    def predict(self, history: PerformanceHistory, now: float) -> float:
        return history.last


class WindowedMeanForecaster(Forecaster):
    """Arithmetic mean over the window -- the paper's history mechanism."""

    name = "mean"

    def predict(self, history: PerformanceHistory, now: float) -> float:
        values = history.values(now)
        if not values:
            raise PolicyError("history is empty")
        return float(np.mean(values))


class PerformanceMonitor:
    """Per-resource histories with a shared window and forecaster.

    The window picks the forecaster: last value at ``0``, windowed mean
    otherwise.

    The swap runtime's view of the world: one history per processor,
    populated by the swap handlers (active processes report measured
    iteration rates; idle spares report probed CPU availability).
    """

    def __init__(self, window: float = 0.0) -> None:
        self.window = float(window)
        self.forecaster = (LastValueForecaster() if window == 0.0
                           else WindowedMeanForecaster())
        self._histories: dict = {}

    def record(self, resource, t: float, value: float) -> None:
        """Record a measurement for ``resource`` (any hashable key)."""
        history = self._histories.get(resource)
        if history is None:
            history = self._histories[resource] = PerformanceHistory(self.window)
        history.record(t, value)

    def predict(self, resource, now: float) -> float:
        """Forecast ``resource``'s next value; raises if never measured."""
        history = self._histories.get(resource)
        if history is None or len(history) == 0:
            raise PolicyError(f"no measurements recorded for {resource!r}")
        return self.forecaster.predict(history, now)

    def predict_many(self, resources, now: float) -> "dict | None":
        """Forecasts for every resource in one columnar pass.

        Returns ``None`` as soon as any resource lacks measurements (the
        decision epoch cannot run on a partial view), otherwise a
        resource -> prediction map.  Each prediction is float-identical
        to :meth:`predict` on the same history: the two loops below
        collapse the per-resource forecaster dispatch, not the algebra.
        """
        histories = self._histories
        rates = {}
        if type(self.forecaster) is LastValueForecaster:
            for r in resources:
                history = histories.get(r)
                if history is None or not history._samples:
                    return None
                rates[r] = history._samples[-1][1]
        else:
            for r in resources:
                history = histories.get(r)
                if history is None or not history._samples:
                    return None
                rates[r] = float(np.mean(history.values(now)))
        return rates

    def known_resources(self) -> list:
        return list(self._histories)
