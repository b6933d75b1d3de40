"""Online dynamic predictor selection (the NWS forecasting design).

A :class:`ForecasterBank` holds several cheap forecasting methods and
races them *online*: each new measurement is first predicted by every
method (scoring its running mean absolute error), then folded into every
method's state.  Queries return the prediction of the currently most
accurate method plus that method's error estimate -- exactly the shape of
answer NWS gives its clients ("dynamically forecasting network
performance", Wolski 1998).

The bank is O(#methods) per update and never re-reads history, so it
scales to long monitoring sessions.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from repro.errors import PolicyError


class _Method:
    """One online forecasting method inside a bank."""

    name = "method"

    def predict(self) -> float:
        raise NotImplementedError

    def update(self, value: float) -> None:
        raise NotImplementedError

    @property
    def ready(self) -> bool:
        raise NotImplementedError


class _LastValue(_Method):
    name = "last"

    def __init__(self) -> None:
        self._value: float | None = None

    def predict(self) -> float:
        return float(self._value)

    def update(self, value: float) -> None:
        self._value = value

    @property
    def ready(self) -> bool:
        return self._value is not None


class _RunningMean(_Method):
    name = "running-mean"

    def __init__(self) -> None:
        self._sum = 0.0
        self._count = 0

    def predict(self) -> float:
        return self._sum / self._count

    def update(self, value: float) -> None:
        self._sum += value
        self._count += 1

    @property
    def ready(self) -> bool:
        return self._count > 0


class _SlidingMedian(_Method):
    def __init__(self, length: int = 16) -> None:
        self.name = f"median-{length}"
        self._window: deque = deque(maxlen=length)

    def predict(self) -> float:
        return float(np.median(list(self._window)))

    def update(self, value: float) -> None:
        self._window.append(value)

    @property
    def ready(self) -> bool:
        return len(self._window) > 0


class _SlidingMean(_Method):
    def __init__(self, length: int = 16) -> None:
        self.name = f"mean-{length}"
        self._window: deque = deque(maxlen=length)

    def predict(self) -> float:
        return float(np.mean(list(self._window)))

    def update(self, value: float) -> None:
        self._window.append(value)

    @property
    def ready(self) -> bool:
        return len(self._window) > 0


class _Ewma(_Method):
    def __init__(self, alpha: float) -> None:
        self.name = f"ewma-{alpha:g}"
        self.alpha = alpha
        self._estimate: float | None = None

    def predict(self) -> float:
        return float(self._estimate)

    def update(self, value: float) -> None:
        if self._estimate is None:
            self._estimate = value
        else:
            self._estimate = (self.alpha * value
                              + (1.0 - self.alpha) * self._estimate)

    @property
    def ready(self) -> bool:
        return self._estimate is not None


def default_methods() -> "list[_Method]":
    """The bank's stock method set (an NWS-like mix)."""
    return [_LastValue(), _RunningMean(), _SlidingMean(8), _SlidingMean(32),
            _SlidingMedian(8), _SlidingMedian(32), _Ewma(0.25), _Ewma(0.6)]


@dataclass(frozen=True)
class Forecast:
    """A prediction with provenance and an error estimate."""

    value: float
    error: float
    """The winning method's running mean absolute error."""
    method: str
    """Name of the method that produced the value."""
    n_samples: int


class ForecasterBank:
    """Races online methods; answers with the current winner."""

    def __init__(self, methods: "list[_Method] | None" = None) -> None:
        self.methods = methods if methods is not None else default_methods()
        if not self.methods:
            raise PolicyError("bank needs at least one method")
        self._abs_error = [0.0] * len(self.methods)
        self._scored = [0] * len(self.methods)
        self._n = 0

    def update(self, value: float) -> None:
        """Score every ready method against ``value``, then absorb it."""
        for i, method in enumerate(self.methods):
            if method.ready:
                self._abs_error[i] += abs(method.predict() - value)
                self._scored[i] += 1
            method.update(value)
        self._n += 1

    def mae(self, index: int) -> float:
        """Running mean absolute error of one method (inf if unscored)."""
        if self._scored[index] == 0:
            return float("inf")
        return self._abs_error[index] / self._scored[index]

    def leaderboard(self) -> "list[tuple[str, float]]":
        """(method, MAE) pairs, most accurate first."""
        board = [(m.name, self.mae(i)) for i, m in enumerate(self.methods)]
        return sorted(board, key=lambda item: item[1])

    def forecast(self) -> Forecast:
        """Prediction of the currently most accurate method."""
        if self._n == 0:
            raise PolicyError("no measurements yet")
        ready = [i for i, m in enumerate(self.methods) if m.ready]
        best = min(ready, key=self.mae)
        return Forecast(value=self.methods[best].predict(),
                        error=0.0 if self.mae(best) == float("inf")
                        else self.mae(best),
                        method=self.methods[best].name,
                        n_samples=self._n)


class BankMonitor:
    """Per-resource :class:`ForecasterBank`s (drop-in predictor).

    The same role as :class:`repro.core.history.PerformanceMonitor`, but
    with NWS dynamic predictor selection per monitored resource.
    """

    def __init__(self) -> None:
        self._banks: dict = {}

    def record(self, resource, t: float, value: float) -> None:
        del t  # banks are order-based; timestamps live in the sensors
        bank = self._banks.get(resource)
        if bank is None:
            bank = self._banks[resource] = ForecasterBank()
        bank.update(value)

    def predict(self, resource, now: float = 0.0) -> float:
        del now
        bank = self._banks.get(resource)
        if bank is None:
            raise PolicyError(f"no measurements recorded for {resource!r}")
        return bank.forecast().value

    def predict_many(self, resources, now: float = 0.0) -> "dict | None":
        """Forecasts for every resource, or None if any is unmeasured
        (interface parity with ``PerformanceMonitor.predict_many``)."""
        del now
        banks = self._banks
        rates = {}
        for r in resources:
            bank = banks.get(r)
            if bank is None or bank._n == 0:
                return None
            rates[r] = bank.forecast().value
        return rates

    def forecast(self, resource) -> Forecast:
        bank = self._banks.get(resource)
        if bank is None:
            raise PolicyError(f"no measurements recorded for {resource!r}")
        return bank.forecast()

    def known_resources(self) -> list:
        return list(self._banks)
