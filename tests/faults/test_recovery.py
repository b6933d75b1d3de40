"""Tests for the shared recovery mechanics (repro.faults.recovery)."""

import pytest

from repro.faults.plan import FaultModel
from repro.faults.recovery import (
    TransferSequencer,
    attempt_transfer,
    compute_finish,
    promote_spares,
)
from repro.load.base import ConstantLoadModel
from repro.platform.cluster import make_platform
from repro.simkernel.rng import RngRegistry


class _ScriptedPlan:
    """Stands in for FaultPlan with a scripted failure pattern."""

    def __init__(self, failures, retries=3):
        self._failures = set(failures)
        self.max_transfer_retries = retries

    def transfer_fails(self, seq):
        return seq in self._failures


def test_sequencer_counts_monotonically():
    seq = TransferSequencer()
    assert [seq.next() for _ in range(4)] == [0, 1, 2, 3]


def test_attempt_transfer_first_try_success():
    elapsed, ok, attempts = attempt_transfer(_ScriptedPlan([]),
                                             TransferSequencer(), 10.0)
    assert (elapsed, ok, attempts) == (10.0, True, 1)


def test_attempt_transfer_retries_pay_full_cost_each():
    plan = _ScriptedPlan({0, 1}, retries=3)
    elapsed, ok, attempts = attempt_transfer(plan, TransferSequencer(), 10.0)
    assert (elapsed, ok, attempts) == (30.0, True, 3)


def test_attempt_transfer_gives_up_after_retry_budget():
    plan = _ScriptedPlan(set(range(100)), retries=2)
    seq = TransferSequencer()
    elapsed, ok, attempts = attempt_transfer(plan, seq, 5.0)
    assert not ok
    assert attempts == 3  # first try + 2 retries
    assert elapsed == pytest.approx(15.0)
    # The sequence numbers are consumed: a later transfer continues on.
    assert seq.seq == 3


def test_attempt_transfer_zero_retries():
    plan = _ScriptedPlan({0}, retries=0)
    elapsed, ok, attempts = attempt_transfer(plan, TransferSequencer(), 7.0)
    assert (ok, attempts) == (False, 1)
    assert elapsed == pytest.approx(7.0)


# -- promote_spares -----------------------------------------------------------

def test_promote_spares_pairs_fastest_with_lowest_victim():
    rates = {10: 1.0, 11: 3.0, 12: 2.0}
    promotions, unfilled = promote_spares([5, 2], [10, 11, 12], rates)
    assert promotions == [(2, 11), (5, 12)]
    assert unfilled == []


def test_promote_spares_rate_tie_breaks_by_index():
    rates = {20: 2.0, 7: 2.0}
    promotions, _ = promote_spares([0], [20, 7], rates)
    assert promotions == [(0, 7)]


def test_promote_spares_reports_unfilled():
    promotions, unfilled = promote_spares([1, 2, 3], [9], {9: 1.0})
    assert promotions == [(1, 9)]
    assert unfilled == [2, 3]


def test_promote_spares_no_spares():
    promotions, unfilled = promote_spares([4], [], {})
    assert promotions == []
    assert unfilled == [4]


# -- alive / compute_finish ---------------------------------------------------

def test_alive_without_plan_returns_all():
    # revocation_rate=0 realizes no streams: the input comes back, as a list.
    plan = FaultModel(revocation_rate=0.0).build(RngRegistry(3), 4)
    out = plan.alive((3, 1, 2), 0.0)
    assert out == [3, 1, 2]
    assert isinstance(out, list)


def test_alive_filters_revoked():
    plan = FaultModel(revocation_rate=6.0).build(RngRegistry(3), 4)
    start, end = plan.revocations_in(0, 0.0, 1e5)[0]
    mid = (start + end) / 2
    assert 0 not in plan.alive(range(4), mid)
    assert 0 in plan.alive(range(4), end)


def test_alive_interval_is_half_open():
    plan = FaultModel(revocation_rate=6.0).build(RngRegistry(3), 4)
    start, end = plan.revocations_in(0, 0.0, 1e5)[0]
    assert plan.alive([0], start) == []  # revoked at its onset
    assert plan.alive([0], end) == [0]  # back at its return time


def test_alive_preserves_input_order_and_matches_is_revoked():
    plan = FaultModel(revocation_rate=6.0).build(RngRegistry(7), 8)
    hosts = [6, 0, 7, 3, 5, 1, 4, 2]
    for t in (0.0, 900.0, 3600.0, 450.0, 7200.0, 12345.5, 60.0):
        assert plan.alive(hosts, t) == [h for h in hosts
                                         if not plan.is_revoked(h, t)]
    # Hosts outside the plan have no stream and are never revoked.
    assert plan.alive([9, 0], 0.0)[0] == 9


def test_compute_finish_matches_host_walk_without_plan():
    platform = make_platform(2, ConstantLoadModel(0), seed=5)
    host = platform.host(0)
    assert compute_finish(platform, 0, 3.0, 1e9) \
        == host.compute_finish(3.0, 1e9)


def test_compute_finish_pauses_under_plan():
    model = FaultModel(revocation_rate=6.0)
    platform = make_platform(2, ConstantLoadModel(0), seed=5,
                             fault_model=model)
    plan = platform.faults
    start, end = plan.revocations_in(0, 0.0, 1e5)[0]
    host = platform.host(0)
    flops = host.speed * 20.0  # 20 dedicated seconds
    plain = host.compute_finish(start - 10.0, flops)
    paused = compute_finish(platform, 0, start - 10.0, flops)
    assert paused == pytest.approx(plain + (end - start))
