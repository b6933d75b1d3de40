"""Tests for the DLB strategy."""

import pytest

from repro.app.iterative import ApplicationSpec
from repro.load.base import ConstantLoadModel, LoadTrace
from repro.load.onoff import OnOffLoadModel
from repro.platform.cluster import make_platform
from repro.strategies.dlb import DlbStrategy
from repro.strategies.nothing import NothingStrategy


def app(n, iters=5, flops=4e8):
    return ApplicationSpec(n_processes=n, iterations=iters,
                           flops_per_iteration=flops)


def test_perfect_balance_on_static_heterogeneity():
    """With static speeds, DLB achieves the aggregate-rate lower bound."""
    platform = make_platform(2, ConstantLoadModel(0), seed=1,
                             speed_range=(100e6, 400e6))
    total_rate = sum(h.speed for h in platform.hosts)
    result = DlbStrategy().run(platform, app(2, iters=5, flops=4e8))
    per_iter = 4e8 / total_rate
    assert result.makespan == pytest.approx(1.5 + 5 * per_iter)


def test_beats_nothing_on_heterogeneous_static_platform():
    platform = make_platform(4, ConstantLoadModel(0), seed=3,
                             speed_range=(100e6, 500e6))
    a = app(4)
    assert DlbStrategy().run(platform, a).makespan < (
        NothingStrategy().run(platform, a).makespan)


def test_equals_nothing_on_homogeneous_static_platform():
    platform = make_platform(4, ConstantLoadModel(0), seed=3,
                             speed_range=(200e6, 200e6 + 1e-6))
    a = app(4)
    assert DlbStrategy().run(platform, a).makespan == pytest.approx(
        NothingStrategy().run(platform, a).makespan, rel=1e-9)


def test_mid_iteration_load_change_hurts_dlb():
    """The paper's DLB pathology: partition on speeds observed at the
    start of the iteration, then the environment shifts."""
    platform = make_platform(2, ConstantLoadModel(0), seed=0,
                             speed_range=(100e6, 100e6 + 1e-6))
    # Host 0 looks free when the iteration starts (t=1.5, after startup)
    # but becomes loaded at t=2.0, mid-iteration.
    platform.hosts[0].trace = LoadTrace([0.0, 2.0, 1e9], [0, 3],
                                        beyond_horizon="hold")
    result = DlbStrategy().run(platform, app(2, iters=1, flops=2e8))
    # DLB split the work ~50/50.  Host 0 does 5e7 flop in its free 0.5 s,
    # then the remaining 5e7 at 25 MF/s takes 2 s: iteration ends t=4.0.
    assert result.makespan == pytest.approx(4.0, rel=1e-4)


def test_no_overhead_charged():
    platform = make_platform(4, OnOffLoadModel(0.1, 0.1), seed=5)
    result = DlbStrategy().run(platform, app(4))
    assert result.overhead_time == 0.0
    assert result.swap_count == 0

