"""The lowered fault compute path against its per-host oracle.

:meth:`HostBatch.compute_end` inlines :meth:`FaultPlan.advance_paused`
for revocable hosts.  It must equal ``max(recovery.compute_finish(...))``
exactly -- ``==`` on raw floats -- over arbitrary query orders, on twin
platforms built from the same seed (lazy trace extension mutates state,
so the oracle runs on its own twin).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults import recovery
from repro.faults.plan import FaultModel
from repro.load.base import LoadTrace
from repro.load.kernels import HostBatch
from repro.load.onoff import OnOffLoadModel
from repro.platform.cluster import make_platform


def twins(n_hosts, seed, fault_model, horizon=50.0, p=0.3, q=0.3):
    """Two identically seeded faulted platforms: batch side, oracle side."""
    def build():
        return make_platform(n_hosts, OnOffLoadModel(p, q), seed=seed,
                             horizon=horizon, fault_model=fault_model)
    return build(), build()


def oracle(platform, chunks, t0):
    return max(recovery.compute_finish(platform, h, t0, flops)
               for h, flops in chunks.items())


def batch_of(platform):
    return HostBatch(platform.hosts, platform.faults)


fault_models = st.builds(
    FaultModel,
    revocation_rate=st.sampled_from([0.0, 2.0, 20.0, 120.0]),
    mean_downtime=st.floats(min_value=1.0, max_value=600.0),
    min_downtime=st.floats(min_value=0.0, max_value=5.0))


@given(st.integers(min_value=0, max_value=2**32 - 1),
       st.integers(min_value=1, max_value=4),
       fault_models,
       st.lists(st.tuples(st.floats(min_value=0.0, max_value=3000.0),
                          st.lists(st.floats(min_value=0.0, max_value=5e10),
                                   min_size=4, max_size=4)),
                min_size=1, max_size=8))
@settings(max_examples=60, deadline=None)
def test_compute_end_matches_compute_finish(seed, n_hosts, model, queries):
    fast, ref = twins(n_hosts, seed, model)
    batch = batch_of(fast)
    for t0, flops in queries:  # non-monotonic start times
        chunks = {h: flops[h] for h in range(n_hosts)}
        assert batch.compute_end(chunks, t0) == oracle(ref, chunks, t0)


def _first_revocation(platform, host=0):
    return platform.faults.revocations_in(host, 0.0, 1e6)[0]


MODEL = FaultModel(revocation_rate=30.0, mean_downtime=200.0)


def test_host_revoked_at_start_waits_for_return():
    fast, ref = twins(3, 11, MODEL)
    start, end = _first_revocation(ref)
    t0 = (start + end) / 2
    chunks = {0: 1e9, 1: 2e9, 2: 5e8}
    got = batch_of(fast).compute_end(chunks, t0)
    assert got == oracle(ref, chunks, t0)
    assert got > end


def test_onset_exactly_at_start():
    fast, ref = twins(3, 12, MODEL)
    start, end = _first_revocation(ref)
    chunks = {0: 1e9, 1: 1e9, 2: 1e9}
    got = batch_of(fast).compute_end(chunks, start)
    assert got == oracle(ref, chunks, start)
    assert got > end


def test_zero_flop_chunk():
    fast, ref = twins(3, 13, MODEL)
    start, end = _first_revocation(ref)
    t0 = (start + end) / 2
    batch = batch_of(fast)
    only_zero = {0: 0.0}
    assert batch.compute_end(only_zero, t0) == oracle(ref, only_zero, t0) \
        == t0
    chunks = {0: 0.0, 1: 1e9, 2: 0.0}
    assert batch.compute_end(chunks, t0) == oracle(ref, chunks, t0)


def test_long_downtime_extends_the_trace_mid_walk(monkeypatch):
    # A 20 s initial horizon and ~1 h downtimes: the walk resumes past
    # the materialized trace, and the demand left outruns even the
    # resume-time extension, so _extend_for_integral runs mid-loop.
    model = FaultModel(revocation_rate=20.0, mean_downtime=3600.0,
                       min_downtime=600.0)
    fast, ref = twins(2, 14, model, horizon=20.0)
    start, end = _first_revocation(ref)
    host = fast.host(0)
    t0 = max(0.0, start - 5.0)
    flops = host.speed * 10.0 * end  # far more than I(1.5 * end)
    chunks = {0: flops}

    calls = []
    extend = LoadTrace._extend_for_integral

    def counting(trace, remaining):
        calls.append(trace.horizon)
        extend(trace, remaining)

    batch = batch_of(fast)
    monkeypatch.setattr(LoadTrace, "_extend_for_integral", counting)
    got = batch.compute_end(chunks, t0)
    monkeypatch.undo()
    assert calls and max(calls) > end
    assert got == oracle(ref, chunks, t0)
    # And the cursor hints still serve later and earlier queries.
    for t in (got, t0, end + 1.0, 3.0):
        assert batch.compute_end(chunks, t) == oracle(ref, chunks, t)


def test_no_revocation_streams_is_the_plain_walk():
    model = FaultModel(revocation_rate=0.0, store_outage_rate=5.0)
    fast, ref = twins(3, 15, model)
    assert fast.faults.revocation_streams() is None
    chunks = {0: 1e9, 1: 2e9, 2: 0.0}
    for t0 in (10.0, 0.0, 400.0):
        got = batch_of(fast).compute_end(chunks, t0)
        assert got == oracle(ref, chunks, t0)
        assert got == max(ref.host(h).compute_finish(t0, f)
                          for h, f in chunks.items())


def test_tiny_demand_after_a_wait_never_finishes_before_the_return():
    # A demand below the ulp of I(return) inverts to a hair before the
    # return time; advance_work clamps it to the return.
    fast, ref = twins(4, 16, MODEL)
    batch = batch_of(fast)
    for host in range(4):
        for start, end in ref.faults.revocations_in(host, 0.0, 5e4)[:6]:
            t0 = (start + end) / 2
            for flops in (1e-9, 1e-6, 1e-3):
                chunks = {host: flops}
                got = batch.compute_end(chunks, t0)
                assert got == oracle(ref, chunks, t0)
                assert got >= end
