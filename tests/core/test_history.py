"""Tests for performance history and forecasters."""

import pytest

from repro.core.history import (
    LastValueForecaster,
    PerformanceHistory,
    PerformanceMonitor,
    WindowedMeanForecaster,
)
from repro.errors import PolicyError


def filled(window, samples):
    history = PerformanceHistory(window)
    for t, v in samples:
        history.record(t, v)
    return history


# -- history window --------------------------------------------------------------

def test_negative_window_rejected():
    with pytest.raises(PolicyError):
        PerformanceHistory(-1.0)


def test_zero_window_keeps_only_last():
    history = filled(0.0, [(0.0, 1.0), (1.0, 2.0), (2.0, 3.0)])
    assert history.values() == [3.0]


def test_window_trims_old_samples():
    history = filled(10.0, [(0.0, 1.0), (5.0, 2.0), (12.0, 3.0)])
    assert history.values() == [2.0, 3.0]


def test_trim_against_query_time():
    history = filled(10.0, [(0.0, 1.0), (5.0, 2.0)])
    assert history.values(now=20.0) == [2.0]  # newest survives trimming


def test_newest_sample_always_kept():
    history = filled(1.0, [(0.0, 7.0)])
    assert history.values(now=1e9) == [7.0]


def test_reads_are_not_destructive():
    # Regression: samples()/values() used to trim storage against the
    # query time, so probing at a late ``now`` permanently discarded
    # samples that an earlier-or-equal later read should still see.
    history = filled(10.0, [(0.0, 1.0), (5.0, 2.0), (8.0, 3.0)])
    assert history.values(now=20.0) == [3.0]  # late probe: windowed view
    assert history.values(now=8.0) == [1.0, 2.0, 3.0]  # nothing was lost
    assert history.samples() == [(0.0, 1.0), (5.0, 2.0), (8.0, 3.0)]
    assert len(history) == 3


def test_repeated_reads_are_idempotent():
    history = filled(10.0, [(0.0, 1.0), (5.0, 2.0)])
    first = history.values(now=30.0)
    assert history.values(now=30.0) == first
    assert history.values(now=30.0) == first


def test_out_of_order_samples_rejected():
    history = filled(10.0, [(5.0, 1.0)])
    with pytest.raises(PolicyError):
        history.record(4.0, 2.0)


def test_last_property():
    history = filled(10.0, [(0.0, 1.0), (1.0, 9.0)])
    assert history.last == 9.0
    with pytest.raises(PolicyError):
        PerformanceHistory(1.0).last


# -- forecasters --------------------------------------------------------------------

SAMPLES = [(0.0, 10.0), (10.0, 20.0), (20.0, 60.0)]


def test_last_value_forecaster():
    history = filled(100.0, SAMPLES)
    assert LastValueForecaster().predict(history, 20.0) == 60.0


def test_windowed_mean():
    history = filled(100.0, SAMPLES)
    assert WindowedMeanForecaster().predict(history, 20.0) == pytest.approx(30.0)


def test_mean_respects_window():
    history = filled(15.0, SAMPLES)
    # Window of 15 s at t=20 keeps samples at t=10 and t=20.
    assert WindowedMeanForecaster().predict(history, 20.0) == pytest.approx(40.0)


def test_forecasters_reject_empty_history():
    empty = PerformanceHistory(10.0)
    with pytest.raises(PolicyError):
        WindowedMeanForecaster().predict(empty, 0.0)


# -- monitor ----------------------------------------------------------------------

def test_monitor_records_per_resource():
    monitor = PerformanceMonitor(window=100.0)
    monitor.record("a", 0.0, 10.0)
    monitor.record("b", 0.0, 99.0)
    monitor.record("a", 1.0, 20.0)
    assert monitor.predict("a", 1.0) == pytest.approx(15.0)
    assert monitor.predict("b", 1.0) == pytest.approx(99.0)
    assert set(monitor.known_resources()) == {"a", "b"}


def test_monitor_unknown_resource_raises():
    with pytest.raises(PolicyError):
        PerformanceMonitor().predict("ghost", 0.0)


def test_monitor_zero_window_defaults_to_last_value():
    monitor = PerformanceMonitor(window=0.0)
    monitor.record("a", 0.0, 1.0)
    monitor.record("a", 1.0, 5.0)
    assert monitor.predict("a", 1.0) == 5.0


def test_monitor_windowed_defaults_to_mean():
    monitor = PerformanceMonitor(window=100.0)
    monitor.record("a", 0.0, 1.0)
    monitor.record("a", 1.0, 5.0)
    assert monitor.predict("a", 1.0) == pytest.approx(3.0)
