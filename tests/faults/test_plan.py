"""Tests for FaultModel / FaultPlan: validation, determinism, queries."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import FaultError
from repro.faults import recovery
from repro.faults.plan import FaultModel, FaultPlan
from repro.load.base import ConstantLoadModel, LoadTrace
from repro.load.kernels import HostBatch
from repro.load.onoff import OnOffLoadModel
from repro.platform.cluster import make_platform
from repro.simkernel.rng import RngRegistry
from repro.units import HOUR


def make_plan(seed=7, n_hosts=4, **model_kwargs) -> FaultPlan:
    defaults = dict(revocation_rate=2.0, mean_downtime=120.0)
    defaults.update(model_kwargs)
    return FaultModel(**defaults).build(RngRegistry(seed), n_hosts)


def flat_trace(horizon=1e7, value=0) -> LoadTrace:
    return ConstantLoadModel(value).build(None, horizon)


# -- model validation ---------------------------------------------------------

def test_negative_revocation_rate_rejected():
    with pytest.raises(FaultError):
        FaultModel(revocation_rate=-1.0)


def test_nonpositive_downtime_rejected():
    with pytest.raises(FaultError):
        FaultModel(mean_downtime=0.0)
    with pytest.raises(FaultError):
        FaultModel(min_downtime=-1.0)


def test_transfer_failure_prob_range():
    with pytest.raises(FaultError):
        FaultModel(transfer_failure_prob=1.0)
    with pytest.raises(FaultError):
        FaultModel(transfer_failure_prob=-0.1)
    FaultModel(transfer_failure_prob=0.0)  # boundary is valid


def test_store_outage_validation():
    with pytest.raises(FaultError):
        FaultModel(store_outage_rate=-0.5)
    with pytest.raises(FaultError):
        FaultModel(store_outage_rate=1.0, mean_store_outage=0.0)


def test_negative_retries_rejected():
    with pytest.raises(FaultError):
        FaultModel(max_transfer_retries=-1)


def test_build_needs_hosts():
    with pytest.raises(FaultError):
        FaultModel().build(RngRegistry(1), 0)


# -- determinism and lazy extension ------------------------------------------

def test_same_seed_same_realization():
    a, b = make_plan(seed=13), make_plan(seed=13)
    probes = [10.0, 500.0, 3333.3, 7200.0, 20000.0]
    for h in range(4):
        for t in probes:
            assert a.is_revoked(h, t) == b.is_revoked(h, t)
            assert a.return_time(h, t) == b.return_time(h, t)


def test_different_seeds_differ():
    a, b = make_plan(seed=1, revocation_rate=8.0), \
        make_plan(seed=2, revocation_rate=8.0)
    probes = [t * 50.0 for t in range(1, 400)]
    assert any(a.is_revoked(0, t) != b.is_revoked(0, t) for t in probes)


def test_query_order_does_not_change_realization():
    # Realized intervals are a pure function of the stream: probing far
    # ahead first, or probing one host and not another, must not shift
    # what a later query observes.
    early = make_plan(seed=42)
    late = make_plan(seed=42)
    late.is_revoked(0, 1e6)  # materialize host 0 far ahead first
    late.revocations_in(2, 0.0, 5e5)  # and host 2 partway
    for h in range(4):
        assert (early.revocations_in(h, 0.0, 1e5)
                == late.revocations_in(h, 0.0, 1e5))


def test_zero_rate_plan_is_fault_free():
    plan = make_plan(revocation_rate=0.0)
    assert not plan.is_revoked(0, 1e5)
    assert plan.return_time(0, 1e5) == 1e5
    assert plan.next_onset(0, 0.0, 1e6) is None
    assert plan.earliest_onset(range(4), 0.0, 1e6) is None
    assert plan.revocations_in(0, 0.0, 1e6) == []
    assert plan.revoked_seconds(0, 0.0, 1e6) == 0.0
    assert plan.store_available(123.0)
    assert not plan.transfer_fails(0)


# -- interval queries ---------------------------------------------------------

def test_intervals_are_half_open():
    plan = make_plan(seed=3, revocation_rate=6.0)
    start, end = plan.revocations_in(0, 0.0, 1e5)[0]
    assert plan.is_revoked(0, start)          # revoked at onset
    assert not plan.is_revoked(0, end)        # back at return time
    assert plan.return_time(0, start) == end
    assert plan.return_time(0, (start + end) / 2) == end


def test_next_onset_excludes_t0_includes_t1():
    plan = make_plan(seed=3, revocation_rate=6.0)
    start, _end = plan.revocations_in(0, 0.0, 1e5)[0]
    assert plan.next_onset(0, start, start + 1.0) is None  # (t0, t1]
    assert plan.next_onset(0, start - 1.0, start) == start
    assert plan.next_onset(0, 0.0, start) == start


def test_earliest_onset_picks_minimum_and_ties():
    plan = make_plan(seed=9, revocation_rate=6.0, n_hosts=8)
    onsets = {h: plan.next_onset(h, 0.0, 1e5) for h in range(8)}
    best = min(v for v in onsets.values() if v is not None)
    got = plan.earliest_onset(range(8), 0.0, 1e5)
    assert got is not None
    t, victims = got
    assert t == best
    assert victims == [h for h in range(8) if onsets[h] == best]



def test_membership_queries_match_per_host_chain():
    """earliest_onset, revoked_at and alive walk the streams' lists in
    one loop; they must answer exactly what the per-host methods do,
    in any query order, including windows that start on an onset."""
    plan = make_plan(seed=21, revocation_rate=20.0, n_hosts=6)
    hosts = [4, 0, 5, 2, 1, 3, 9]  # 9 is outside the plan: never revoked
    onsets = [s for h in range(6) for s, _e in plan.revocations_in(h, 0.0,
                                                                   2e4)]
    for t0 in [5000.0, 0.0, 12000.0, 300.0] + onsets[:8]:
        for span in (10.0, 600.0, 5000.0):
            t1 = t0 + span
            per_host = {h: plan.next_onset(h, t0, t1) for h in hosts}
            found = [v for v in per_host.values() if v is not None]
            got = plan.earliest_onset(hosts, t0, t1)
            if not found:
                assert got is None
            else:
                best = min(found)
                assert got == (best, [h for h in hosts
                                      if per_host[h] == best])
        revoked = [h for h in hosts if plan.is_revoked(h, t0)]
        assert plan.revoked_at(t0, hosts) == revoked
        assert plan.alive(hosts, t0) == [h for h in hosts
                                         if h not in revoked]


def _oracle_intervals(plan, host, horizon):
    """``host``'s revocation intervals with an onset up to ``horizon``,
    found by the per-host oracle alone (next_onset, return_time)."""
    out = []
    t = -1.0
    while (onset := plan.next_onset(host, t, horizon)) is not None:
        out.append((onset, plan.return_time(host, onset)))
        t = onset
    return out


QUERIES = ("alive", "revoked_at", "earliest_onset", "revocations_in",
           "compute_end")


@given(seed=st.integers(0, 2**32 - 1), n_hosts=st.integers(1, 5),
       rate=st.floats(0.5, 20.0), mean_down=st.floats(1.0, 900.0),
       data=st.data())
@settings(max_examples=100, deadline=None)
def test_state_windows_match_the_per_host_oracle(seed, n_hosts, rate,
                                                 mean_down, data):
    """The windowed readers answer what the per-host oracle does for any
    query order, with hosts outside the plan, and at interval edges;
    ``compute_end`` on the same plan equals ``max(compute_finish)`` on
    an identically seeded twin."""
    model = FaultModel(revocation_rate=rate, mean_downtime=mean_down)
    fast, ref = [make_platform(n_hosts, OnOffLoadModel(0.3, 0.3), seed=seed,
                               horizon=50.0, fault_model=model)
                 for _ in range(2)]
    plan, oracle = fast.faults, ref.faults
    batch = HostBatch(fast.hosts, plan)
    span = 2 * HOUR
    intervals = {h: _oracle_intervals(oracle, h, 2 * span)
                 for h in range(n_hosts)}
    # Every interval edge up to ``span`` and a point between each two:
    # walking them in order puts a query in a window, then one on its
    # edge.
    edges = sorted({0.0, span, *(t for ivs in intervals.values()
                                 for iv in ivs for t in iv if t <= span)})
    points = sorted({*edges, *((a + b) / 2 for a, b in zip(edges,
                                                             edges[1:]))})
    hosts = [*range(n_hosts), n_hosts, n_hosts + 7]  # two outside the plan
    # Runs of consecutive points, the runs in any order, each query's
    # ``t1`` one to three points ahead; then a few random times.
    runs = data.draw(st.lists(st.tuples(
        st.integers(0, len(points) - 1), st.integers(1, 8),
        st.integers(1, 3)), min_size=1, max_size=6))
    times = [(points[i], points[min(i + ahead, len(points) - 1)])
             for first, length, ahead in runs
             for i in range(first, min(first + length, len(points)))]
    times += data.draw(st.lists(st.tuples(st.floats(0.0, span),
                                          st.floats(0.0, span)),
                                max_size=4))
    queries = [(data.draw(st.sampled_from(QUERIES)), a, b,
                data.draw(st.permutations(hosts))) for a, b in times]
    for query, a, b, order in queries:
        t0, t1 = min(a, b), max(a, b)
        revoked = [h for h in order if oracle.is_revoked(h, t0)]
        if query == "alive":
            assert plan.alive(order, t0) == [h for h in order
                                             if h not in revoked]
        elif query == "revoked_at":
            assert plan.revoked_at(t0, order) == revoked
        elif query == "earliest_onset":
            onsets = {h: oracle.next_onset(h, t0, t1) for h in order}
            found = [t for t in onsets.values() if t is not None]
            want = None if not found else (
                min(found), [h for h in order if onsets[h] == min(found)])
            assert plan.earliest_onset(order, t0, t1) == want
        elif query == "revocations_in":
            for h in order:
                assert plan.revocations_in(h, t0, t1) == [
                    (s, e) for s, e in intervals.get(h, ())
                    if s <= t1 and e >= t0]
        else:
            flops = data.draw(st.lists(st.floats(0.0, 5e10),
                                       min_size=n_hosts, max_size=n_hosts))
            chunks = dict(enumerate(flops))
            assert batch.compute_end(chunks, t0) == max(
                recovery.compute_finish(ref, h, t0, f)
                for h, f in chunks.items())


def test_revoked_seconds_matches_intervals():
    plan = make_plan(seed=5, revocation_rate=8.0)
    t0, t1 = 100.0, 50000.0
    expected = sum(min(e, t1) - max(s, t0)
                   for s, e in plan.revocations_in(0, t0, t1)
                   if min(e, t1) > max(s, t0))
    assert plan.revoked_seconds(0, t0, t1) == pytest.approx(expected)


def test_empty_windows_rejected():
    plan = make_plan()
    with pytest.raises(FaultError):
        plan.revocations_in(0, 10.0, 5.0)
    with pytest.raises(FaultError):
        plan.revoked_seconds(0, 10.0, 5.0)


# -- advance_paused -----------------------------------------------------------

def test_advance_paused_no_stream_is_plain_walk():
    plan = make_plan(revocation_rate=0.0)
    trace = flat_trace()
    assert plan.advance_paused(0, trace, 5.0, 100.0) \
        == trace.advance_work(5.0, 100.0)


def test_advance_paused_validation():
    plan = make_plan()
    trace = flat_trace()
    with pytest.raises(FaultError):
        plan.advance_paused(0, trace, 0.0, -1.0)
    assert plan.advance_paused(0, trace, 7.0, 0.0) == 7.0


def test_advance_paused_adds_exactly_the_downtime():
    # On an unloaded host, work started just before a revocation finishes
    # exactly one downtime later than the fault-free walk.
    plan = make_plan(seed=3, revocation_rate=6.0)
    start, end = plan.revocations_in(0, 0.0, 1e5)[0]
    nxt = plan.next_onset(0, end, 1e7)
    trace = flat_trace()
    t0, demand = start - 10.0, 20.0  # spans the revocation, ends before nxt
    finish = plan.advance_paused(0, trace, t0, demand)
    assert finish == pytest.approx(t0 + demand + (end - start))
    assert nxt is None or finish <= nxt


def test_advance_paused_started_inside_downtime_waits():
    plan = make_plan(seed=3, revocation_rate=6.0)
    start, end = plan.revocations_in(0, 0.0, 1e5)[0]
    trace = flat_trace()
    mid = (start + end) / 2
    finish = plan.advance_paused(0, trace, mid, 5.0)
    assert finish >= end + 5.0 - 1e-9


def test_advance_paused_matches_manual_two_phase_split():
    # demand split at the onset by integrate_availability must agree with
    # the one-shot walk, including under external load.
    plan = make_plan(seed=11, revocation_rate=4.0)
    trace = ConstantLoadModel(1).build(None, 1e7)  # availability 1/2
    start, end = plan.revocations_in(0, 0.0, 1e6)[0]
    t0 = max(0.0, start - 30.0)
    demand = trace.integrate_availability(t0, start) + 8.0
    finish = plan.advance_paused(0, trace, t0, demand)
    manual = trace.advance_work(end, 8.0)
    assert finish == pytest.approx(manual)


# -- checkpoint store ---------------------------------------------------------

def test_store_outages_realized():
    plan = make_plan(revocation_rate=0.0, store_outage_rate=10.0,
                     mean_store_outage=60.0)
    probes = [t * 30.0 for t in range(1, 2000)]
    down = [t for t in probes if not plan.store_available(t)]
    assert down, "expected at least one outage over ~16 hours at 10/h"
    t = down[0]
    ready = plan.store_ready_time(t)
    assert ready > t
    assert plan.store_available(ready)


# -- transfer failures --------------------------------------------------------

def test_transfer_failures_keyed_by_sequence():
    a = make_plan(seed=17, transfer_failure_prob=0.3)
    b = make_plan(seed=17, transfer_failure_prob=0.3)
    pattern_a = [a.transfer_fails(i) for i in range(200)]
    # Query order must not matter: read b's pattern backwards.
    pattern_b = [b.transfer_fails(i) for i in reversed(range(200))][::-1]
    assert pattern_a == pattern_b
    frac = sum(pattern_a) / len(pattern_a)
    assert 0.15 < frac < 0.45  # loose two-sided check around p=0.3
