"""Tests for the metrics registry and its deterministic merge."""

import pytest

from repro.errors import ObservabilityError
from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)


# -- primitives -----------------------------------------------------------------

def test_counter_accumulates_and_rejects_negative():
    counter = Counter()
    counter.inc()
    counter.inc(2.5)
    assert counter.value == pytest.approx(3.5)
    with pytest.raises(ObservabilityError):
        counter.inc(-1.0)


def test_gauge_last_write_wins():
    gauge = Gauge()
    assert gauge.to_payload() is None
    gauge.set(1.0)
    gauge.set(7.0)
    assert gauge.value == 7.0


def test_histogram_buckets_and_stats():
    histogram = Histogram(bounds=(1.0, 10.0))
    for value in (0.5, 5.0, 50.0, float("inf")):
        histogram.observe(value)
    assert histogram.bucket_counts == [1, 1, 2]
    assert histogram.count == 4
    assert histogram.total == pytest.approx(55.5)  # inf excluded from sum
    assert histogram.min == 0.5
    assert histogram.max == float("inf")


def test_histogram_rejects_nan_and_bad_bounds():
    with pytest.raises(ObservabilityError):
        Histogram(bounds=())
    with pytest.raises(ObservabilityError):
        Histogram(bounds=(2.0, 1.0))
    with pytest.raises(ObservabilityError):
        Histogram().observe(float("nan"))


# -- registry -------------------------------------------------------------------

def test_registry_creates_on_demand_and_reuses():
    registry = MetricsRegistry()
    registry.counter("a").inc()
    registry.counter("a").inc()
    assert registry.counter("a").value == 2.0
    assert len(registry) == 1


def test_registry_rejects_histogram_bound_redeclaration():
    registry = MetricsRegistry()
    registry.histogram("h", bounds=(1.0, 2.0))
    with pytest.raises(ObservabilityError):
        registry.histogram("h", bounds=(1.0, 3.0))


def test_histogram_bounds_are_validated_at_declaration_only():
    registry = MetricsRegistry()
    bounds = (1.0, 2.0)
    declared = registry.histogram("h", bounds)
    # The declaring tuple itself, equal bounds in another container, and
    # ints that convert to the declared floats all reuse the histogram.
    assert registry.histogram("h", bounds) is declared
    assert registry.histogram("h", [1.0, 2.0]) is declared
    assert registry.histogram("h", (1, 2)) is declared
    with pytest.raises(ObservabilityError, match="re-declared"):
        registry.histogram("h", (1.0, 3.0))
    with pytest.raises(ObservabilityError, match="re-declared"):
        registry.histogram("h", (1.0,))
    # A histogram declared from a list (mutable, so never trusted by
    # identity) is re-validated on every call.
    listed = [0.5]
    registry.histogram("l", listed)
    listed.append(9.0)
    with pytest.raises(ObservabilityError, match="re-declared"):
        registry.histogram("l", listed)


def test_to_dict_is_key_sorted_and_json_stable():
    registry = MetricsRegistry()
    registry.counter("zeta").inc()
    registry.counter("alpha").inc(3)
    registry.gauge("g").set(float("inf"))
    registry.histogram("h").observe(4.0)
    payload = registry.to_dict()
    assert list(payload["counters"]) == ["alpha", "zeta"]
    assert payload["gauges"]["g"] == "inf"
    assert registry.to_json() == registry.to_json()


def test_merge_dict_round_trips_through_payload():
    source = MetricsRegistry()
    source.counter("c").inc(2)
    source.gauge("g").set(1.5)
    source.histogram("h", bounds=(1.0, 2.0)).observe(0.5)
    source.histogram("h", bounds=(1.0, 2.0)).observe(5.0)

    merged = MetricsRegistry()
    merged.merge_dict(source.to_dict())
    merged.merge_dict(source.to_dict())
    assert merged.counter("c").value == 4.0
    assert merged.gauge("g").value == 1.5
    histogram = merged.histogram("h", bounds=(1.0, 2.0))
    assert histogram.count == 4
    assert histogram.bucket_counts == [2, 0, 2]
    assert histogram.min == 0.5 and histogram.max == 5.0


def test_merge_handles_nonfinite_payload_spellings():
    source = MetricsRegistry()
    source.gauge("g").set(float("inf"))
    source.histogram("h").observe(float("inf"))
    merged = MetricsRegistry()
    merged.merge_dict(source.to_dict())
    assert merged.gauge("g").value == float("inf")
    assert merged.histogram("h").max == float("inf")


def test_merge_rejects_mismatched_bounds():
    left = MetricsRegistry()
    left.histogram("h", bounds=(1.0,)).observe(0.5)
    right = MetricsRegistry()
    right.histogram("h", bounds=(2.0,)).observe(0.5)
    with pytest.raises(ObservabilityError):
        left.merge(right)


def test_merge_is_order_sensitive_only_for_gauges():
    a = MetricsRegistry()
    a.counter("c").inc(1)
    a.gauge("g").set(1.0)
    b = MetricsRegistry()
    b.counter("c").inc(2)
    b.gauge("g").set(2.0)

    ab = MetricsRegistry()
    ab.merge(a)
    ab.merge(b)
    ba = MetricsRegistry()
    ba.merge(b)
    ba.merge(a)
    assert ab.counter("c").value == ba.counter("c").value == 3.0
    assert ab.gauge("g").value == 2.0  # last write wins
    assert ba.gauge("g").value == 1.0


def test_default_buckets_are_sorted():
    assert list(DEFAULT_BUCKETS) == sorted(DEFAULT_BUCKETS)
