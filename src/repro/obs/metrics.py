"""Counters, gauges, and histograms with a deterministic merge.

The registry mirrors the usual monitoring vocabulary but is built for
*simulation* observability: no wall clock, no sampling, no background
threads.  Values are exact, exports are key-sorted JSON, and
:meth:`MetricsRegistry.merge` is associative over the executor's
grid-ordered per-cell payloads, so a merged sweep registry is
byte-identical regardless of worker count or cache state.

Merge semantics:

* counter -- values add;
* gauge -- last write wins (the *later* cell in grid order);
* histogram -- bucket counts, sums and observation counts add; min/max
  combine; bucket bounds must agree.
"""

from __future__ import annotations

import json
import math
from typing import Iterable

from repro.errors import ObservabilityError
from repro.obs.trace import jsonable

#: Default histogram bucket upper bounds (the last bucket is +inf).
DEFAULT_BUCKETS = (0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0)


class Counter:
    """A monotonically increasing sum."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ObservabilityError(
                f"counters only go up; got inc({amount})")
        self.value += amount

    def to_payload(self) -> float:
        return self.value


class Gauge:
    """A point-in-time value (last write wins on merge)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value: "float | None" = None

    def set(self, value: float) -> None:
        self.value = float(value)

    def to_payload(self) -> "float | None":
        return self.value


class Histogram:
    """Fixed-bucket distribution of observed values.

    ``bounds`` are inclusive upper edges; one implicit overflow bucket
    catches everything above the last bound (including ``+inf``
    observations, which the payback metric produces by design).
    """

    __slots__ = ("bounds", "bucket_counts", "count", "total", "min", "max")

    def __init__(self, bounds: "Iterable[float]" = DEFAULT_BUCKETS) -> None:
        self.bounds = tuple(float(b) for b in bounds)
        if not self.bounds:
            raise ObservabilityError("histogram needs at least one bound")
        if list(self.bounds) != sorted(self.bounds):
            raise ObservabilityError(
                f"histogram bounds must be sorted, got {self.bounds}")
        self.bucket_counts = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf

    def observe(self, value: float) -> None:
        value = float(value)
        if math.isnan(value):
            raise ObservabilityError("cannot observe NaN")
        index = len(self.bounds)
        for i, bound in enumerate(self.bounds):
            if value <= bound:
                index = i
                break
        self.bucket_counts[index] += 1
        self.count += 1
        if math.isfinite(value):
            self.total += value
        self.min = min(self.min, value)
        self.max = max(self.max, value)

    @property
    def mean(self) -> float:
        """Sum of finite observations over total count (0.0 when empty)."""
        return self.total / self.count if self.count else 0.0

    def to_payload(self) -> dict:
        return {
            "bounds": list(self.bounds),
            "buckets": list(self.bucket_counts),
            "count": self.count,
            "sum": jsonable(self.total),
            "min": jsonable(self.min) if self.count else None,
            "max": jsonable(self.max) if self.count else None,
        }


class MetricsRegistry:
    """Named metrics, created on first use, exported as sorted JSON."""

    def __init__(self) -> None:
        self.counters: "dict[str, Counter]" = {}
        self.gauges: "dict[str, Gauge]" = {}
        self.histograms: "dict[str, Histogram]" = {}
        #: Histogram name -> the ``bounds`` tuple it was declared with,
        #: so re-declaring with that same tuple skips re-validation.
        self._declared: "dict[str, tuple]" = {}

    def __len__(self) -> int:
        return len(self.counters) + len(self.gauges) + len(self.histograms)

    def counter(self, name: str) -> Counter:
        try:
            return self.counters[name]
        except KeyError:
            counter = self.counters[name] = Counter()
            return counter

    def gauge(self, name: str) -> Gauge:
        try:
            return self.gauges[name]
        except KeyError:
            gauge = self.gauges[name] = Gauge()
            return gauge

    def histogram(self, name: str,
                  bounds: "Iterable[float]" = DEFAULT_BUCKETS) -> Histogram:
        """The histogram ``name``, declared with ``bounds`` on first use.

        Bounds are validated once, at declaration: a later call passing
        the same (immutable) tuple object returns the histogram at once,
        any other bounds must convert to the declared ones.
        """
        try:
            histogram = self.histograms[name]
        except KeyError:
            histogram = self.histograms[name] = Histogram(bounds)
            if type(bounds) is tuple:
                self._declared[name] = bounds
            return histogram
        if bounds is not self._declared.get(name) \
                and histogram.bounds != tuple(float(b) for b in bounds):
            raise ObservabilityError(
                f"histogram {name!r} re-declared with different bounds")
        return histogram

    # -- merge / export --------------------------------------------------

    def to_dict(self) -> dict:
        """JSON-ready payload, every level key-sorted."""
        return {
            "counters": {name: self.counters[name].to_payload()
                         for name in sorted(self.counters)},
            "gauges": {name: jsonable(self.gauges[name].to_payload())
                       for name in sorted(self.gauges)},
            "histograms": {name: self.histograms[name].to_payload()
                           for name in sorted(self.histograms)},
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"

    def write_json(self, path) -> None:
        from pathlib import Path

        Path(path).write_text(self.to_json())

    def merge_dict(self, payload: dict) -> None:
        """Fold one :meth:`to_dict` payload into this registry.

        This is how per-cell metrics cross process boundaries: workers
        ship plain dicts, the executor folds them in grid order.
        """
        for name, value in payload.get("counters", {}).items():
            self.counter(name).inc(float(value))
        for name, value in payload.get("gauges", {}).items():
            if value is not None:
                if isinstance(value, str):  # "inf"/"-inf"/"nan" spellings
                    value = float(value)
                self.gauge(name).set(value)
        for name, data in payload.get("histograms", {}).items():
            incoming_bounds = tuple(float(b) for b in data["bounds"])
            histogram = self.histogram(name, incoming_bounds)
            if histogram.bounds != incoming_bounds:
                raise ObservabilityError(
                    f"histogram {name!r} merged with different bounds")
            for i, count in enumerate(data["buckets"]):
                histogram.bucket_counts[i] += int(count)
            histogram.count += int(data["count"])
            total = data["sum"]
            histogram.total += (float(total) if isinstance(total, str)
                                else total)
            for attr, combine in (("min", min), ("max", max)):
                value = data.get(attr)
                if value is not None:
                    if isinstance(value, str):
                        value = float(value)
                    setattr(histogram, attr,
                            combine(getattr(histogram, attr), value))

    def merge(self, other: "MetricsRegistry") -> None:
        self.merge_dict(other.to_dict())

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<MetricsRegistry {len(self.counters)} counters, "
                f"{len(self.gauges)} gauges, "
                f"{len(self.histograms)} histograms>")


# -- wall-time percentiles (sweep timings and the runtime plane) ----------


def percentile(values: "Iterable[float]", q: float) -> float:
    """Nearest-rank percentile (q in [0, 100]); 0.0 for an empty input."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    if not 0 <= q <= 100:
        raise ObservabilityError(f"percentile q must be in [0, 100]: {q}")
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def wall_stats(walls: "Iterable[float]") -> "dict[str, float]":
    """p50/p95/max summary of a wall-time sample (zeros when empty)."""
    ordered = sorted(walls)
    if not ordered:
        return {"p50": 0.0, "p95": 0.0, "max": 0.0}
    return {"p50": percentile(ordered, 50.0),
            "p95": percentile(ordered, 95.0),
            "max": ordered[-1]}
