"""Kernel vs. scalar-reference cross-checks (the float-identity contract).

The compiled :class:`~repro.load.kernels.TraceKernel` path must be
**bit-for-bit** identical to the pure-Python scalar reference kept in the
same module -- not approximately equal.  Every comparison here is ``==``
on raw floats, over randomized lazily-extended traces, including
``beyond_horizon="hold"`` growth and extender appends that merge into the
final segment (the edge cases around ``_ensure``).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import LoadModelError
from repro.load.base import ConstantExtender, LoadTrace
from repro.load.kernels import (
    HostBatch,
    advance_work_scalar,
    compile_trace,
    extend_kernel,
    integrate_availability_scalar,
    value_at_scalar,
)
from repro.platform.host import Host, HostSpec


def make_trace(segments, **kwargs):
    """Build a trace from (duration, value) pairs."""
    times = [0.0]
    values = []
    for duration, value in segments:
        times.append(times[-1] + duration)
        values.append(value)
    return LoadTrace(times, values, **kwargs)


class CyclingExtender:
    """Deterministic extender cycling through a value pattern.

    Patterns that repeat the trace's final value exercise the
    equal-value *merge* path of ``append_segment`` (the final breakpoint
    moves instead of a segment being added), which is the subtle case
    for incremental kernel extension.
    """

    def __init__(self, pattern, step=3.0):
        self.pattern = list(pattern)
        self.step = step
        self._i = 0

    def __call__(self, trace, new_horizon):
        while trace.horizon < new_horizon:
            trace.append_segment(trace.horizon + self.step,
                                 self.pattern[self._i % len(self.pattern)])
            self._i += 1


segment_lists = st.lists(
    st.tuples(st.floats(min_value=0.1, max_value=50.0),
              st.integers(min_value=0, max_value=4)),
    min_size=1, max_size=10)

patterns = st.lists(st.integers(min_value=0, max_value=3),
                    min_size=1, max_size=4)


def twin_traces(segments, extension):
    """Two identically-configured traces (kernel path vs. scalar ref).

    Both must materialize the same segments under lazy extension, so
    the scalar reference runs on its own twin rather than sharing state.
    """
    if extension == "hold":
        kwargs_a = kwargs_b = {"beyond_horizon": "hold"}
    else:
        kwargs_a = {"extender": CyclingExtender(extension)}
        kwargs_b = {"extender": CyclingExtender(extension)}
    return make_trace(segments, **kwargs_a), make_trace(segments, **kwargs_b)


extensions = st.one_of(st.just("hold"), patterns)


# -- bit-identity of the query operations ------------------------------------

@given(segment_lists, extensions,
       st.floats(min_value=0.0, max_value=400.0),
       st.floats(min_value=0.0, max_value=400.0))
@settings(max_examples=150, deadline=None)
def test_integrate_availability_matches_scalar_bitwise(segments, extension,
                                                       a, b):
    t0, t1 = min(a, b), max(a, b)
    fast, ref = twin_traces(segments, extension)
    expected = integrate_availability_scalar(ref, t0, t1)
    got = fast.integrate_availability(t0, t1)
    assert got == expected  # exact: no approx
    # Both paths must also materialize identical trace states.
    assert fast._times == ref._times
    assert fast._values == ref._values


@given(segment_lists, extensions,
       st.floats(min_value=0.0, max_value=100.0),
       st.floats(min_value=0.0, max_value=300.0))
@settings(max_examples=150, deadline=None)
def test_advance_work_matches_scalar_bitwise(segments, extension, t0, demand):
    fast, ref = twin_traces(segments, extension)
    expected = advance_work_scalar(ref, t0, demand)
    got = fast.advance_work(t0, demand)
    assert got == expected
    assert fast._times == ref._times
    assert fast._values == ref._values


@given(segment_lists, extensions, st.floats(min_value=0.0, max_value=500.0))
@settings(max_examples=100, deadline=None)
def test_value_at_matches_scalar(segments, extension, t):
    fast, ref = twin_traces(segments, extension)
    assert fast.value_at(t) == value_at_scalar(ref, t)


@given(segment_lists, extensions,
       st.lists(st.tuples(st.floats(min_value=0.0, max_value=80.0),
                          st.floats(min_value=0.0, max_value=40.0)),
                min_size=1, max_size=8))
@settings(max_examples=100, deadline=None)
def test_interleaved_query_sequence_matches_scalar(segments, extension,
                                                   queries):
    """Mixed integrate/advance sequences keep the twin states in lockstep
    (each query may trigger lazy extension visible to the next one)."""
    fast, ref = twin_traces(segments, extension)
    for i, (a, b) in enumerate(queries):
        if i % 2 == 0:
            t0, t1 = min(a, a + b), max(a, a + b)
            assert (fast.integrate_availability(t0, t1)
                    == integrate_availability_scalar(ref, t0, t1))
        else:
            assert fast.advance_work(a, b) == advance_work_scalar(ref, a, b)
        assert fast._times == ref._times


# -- incremental kernel extension --------------------------------------------

@given(segment_lists,
       st.lists(st.tuples(st.floats(min_value=0.1, max_value=20.0),
                          st.integers(min_value=0, max_value=3)),
                min_size=1, max_size=6))
@settings(max_examples=100, deadline=None)
def test_extend_kernel_bit_identical_to_full_recompile(segments, growth):
    """Tail extension resumes the prefix sum exactly where a full
    recompile would arrive -- including equal-value merges that *move*
    the old final breakpoint instead of appending."""
    trace = make_trace(segments, beyond_horizon="hold")
    old = trace.kernel()
    for duration, value in growth:
        trace.append_segment(trace.horizon + duration, value)
    incremental = extend_kernel(old, trace._epoch, trace._times,
                                trace._values)
    full = compile_trace(trace._epoch, trace._times, trace._values)
    assert incremental.times_list == full.times_list
    assert incremental.den_list == full.den_list
    assert incremental.cum_list == full.cum_list
    # The trace's own cached-kernel path must take the incremental route
    # and agree too.
    cached = trace.kernel()
    assert cached.cum_list == full.cum_list


def test_long_trace_numpy_compile_matches_list_compile():
    """Traces past the 256-segment threshold compile through numpy;
    np.cumsum must reproduce the sequential fold bit-for-bit."""
    times = [0.0]
    values = []
    for i in range(600):
        times.append(times[-1] + 0.1 + (i % 7) * 0.31)
        values.append(i % 5)
    long_kernel = compile_trace(0, times, values)
    acc = 0.0
    expected = [0.0]
    for i, v in enumerate(values):
        acc += (times[i + 1] - times[i]) / (1.0 + v)
        expected.append(acc)
    assert long_kernel.cum_list == expected


# -- HostBatch ----------------------------------------------------------------

@given(st.lists(segment_lists, min_size=1, max_size=3),
       st.lists(st.tuples(st.floats(min_value=0.0, max_value=50.0),
                          st.floats(min_value=0.0, max_value=20.0)),
                min_size=1, max_size=6))
@settings(max_examples=60, deadline=None)
def test_host_batch_matches_host_methods(trace_segments, queries):
    """HostBatch's cursor-hinted loops == Host.effective_rate /
    compute_finish, over arbitrary (non-monotonic) query sequences."""
    def build(segs_list):
        hosts = []
        for i, segs in enumerate(segs_list):
            spec = HostSpec(name=f"h{i}", speed=1e6 * (i + 1))
            host = Host(spec, rng=None, index=i)
            host.trace = make_trace(segs, beyond_horizon="hold")
            hosts.append(host)
        return hosts

    fast_hosts = build(trace_segments)
    ref_hosts = build(trace_segments)
    batch = HostBatch(fast_hosts)
    for qi, (t, extra) in enumerate(queries):
        window = extra if qi % 2 == 0 else 0.0
        rates = batch.rates_map(t, window)
        for i, host in enumerate(ref_hosts):
            assert rates[i] == host.effective_rate(t, window)
        chunks = {i: 1e5 * (qi + 1) for i in range(len(ref_hosts))}
        end = batch.compute_end(chunks, t)
        expected = max(host.compute_finish(t, chunks[i])
                       for i, host in enumerate(ref_hosts))
        assert end == expected


def test_host_batch_survives_external_trace_mutation():
    """The mutation-counter coherence check: a trace mutated *outside*
    the batch (another strategy's lazy extension) must invalidate the
    cached kernel table, not serve stale rates."""
    spec = HostSpec(name="h0", speed=1e6)
    host = Host(spec, rng=None)
    host.trace = make_trace([(10.0, 0)], beyond_horizon="hold")
    batch = HostBatch([host])
    assert batch.rates_map(5.0)[0] == 1e6
    host.trace.append_segment(20.0, 3)
    assert batch.rates_map(12.0)[0] == host.effective_rate(12.0)
    assert batch.rates_map(12.0)[0] == 0.25e6


# -- failed-extension regression (LoadModelError, not a silent hold) ---------

class BrokenExtender:
    """Claims to extend but appends nothing (a buggy load model)."""

    def __call__(self, trace, new_horizon):
        pass


def test_value_at_raises_on_failed_extension():
    trace = make_trace([(10.0, 1)], extender=BrokenExtender())
    with pytest.raises(LoadModelError):
        trace.value_at(50.0)


def test_integrate_availability_raises_on_failed_extension():
    trace = make_trace([(10.0, 1)], extender=BrokenExtender())
    with pytest.raises(LoadModelError):
        trace.integrate_availability(0.0, 50.0)


def test_advance_work_raises_on_failed_extension():
    trace = make_trace([(10.0, 1)], extender=BrokenExtender())
    with pytest.raises(LoadModelError):
        trace.advance_work(50.0, 1.0)


def test_kernel_index_of_out_of_range_raises():
    kernel = make_trace([(10.0, 1)]).kernel()
    with pytest.raises(LoadModelError):
        kernel.index_of(10.0)
    with pytest.raises(LoadModelError):
        kernel.index_of(-0.5)


def test_constant_extender_merge_keeps_one_segment():
    trace = make_trace([(10.0, 2)], extender=ConstantExtender(2))
    trace.integrate_availability(0.0, 1000.0)
    assert trace.n_segments == 1
    kernel = trace.kernel()
    assert kernel.cum_list[-1] == trace._times[-1] / 3.0


# -- bounded decision views (HostBatch.rate_view / RateView) -----------------

def _hosts(speeds, traces):
    hosts = []
    for i, (speed, trace) in enumerate(zip(speeds, traces)):
        host = Host(HostSpec(name=f"h{i}", speed=speed), rng=None, index=i)
        host.trace = trace
        hosts.append(host)
    return hosts


def _dense_trace(rng, t, window, n_dense, max_value):
    """A long quiet prefix, then ``n_dense`` short segments straddling
    ``[t - window, t]``: the window spans hundreds of prefix-sum terms
    far from the origin, where the rate formula's rounding is largest."""
    times = [0.0]
    values = []
    start = max(0.0, t - 2.0 * window)
    if start > 0.0:
        times.append(start)
        values.append(rng.randint(0, max_value))
    step = 3.0 * window / n_dense
    for _ in range(n_dense):
        times.append(times[-1] + step * rng.uniform(0.2, 1.8))
        values.append(rng.randint(0, max_value))
    times.append(max(times[-1], t) + 1.0)
    values.append(0)
    return LoadTrace(times, values, beyond_horizon="hold")


@given(st.integers(min_value=0, max_value=2**32),
       st.sampled_from([1e3, 5e4, 1e6]),
       st.sampled_from([1e-3, 0.1, 2.0]),
       st.integers(min_value=100, max_value=400),
       st.sampled_from([0, 1, 3]))
@settings(max_examples=40, deadline=None)
def test_rate_view_bound_is_sound_for_dense_windows(seed, t, window,
                                                    n_dense, max_value):
    """No rate exceeds its bound ``speed * scale``, so no spare the walk
    pruned could have won: a window far smaller than ``t``, hundreds of
    segments inside it, and (max_value 0) unloaded hosts whose rates sit
    within rounding of their speeds, in both directions."""
    import random

    rng = random.Random(seed)
    n = 8
    # Equal or ulp-close speeds make every bound a near-tie.
    speeds = [3e8 * (1.0 + rng.choice([0.0, 0.0, 1e-15, 1e-12]))
              for _ in range(n)]
    traces = [_dense_trace(rng, t, window, n_dense, max_value)
              for _ in range(n)]
    twins = [LoadTrace(trace._times, trace._values, beyond_horizon="hold")
             for trace in traces]
    exact = HostBatch(_hosts(speeds, twins)).rates_map(t, window)
    view = HostBatch(_hosts(speeds, traces)).rate_view(t, window, [])
    for host, rate in exact.items():
        assert rate <= speeds[host] * view.scale
    candidates = list(range(n))
    rng.shuffle(candidates)
    ranking = view.ranked(candidates)
    first = next(ranking)
    assert first == max(candidates, key=exact.__getitem__)
    # Every candidate left unevaluated loses to the answer outright or
    # ties with it from a later position.
    order = candidates.index
    for host in candidates:
        if host not in view:
            assert (exact[host] < exact[first]
                    or (exact[host] == exact[first]
                        and order(host) > order(first)))
    assert [first, *ranking] == sorted(candidates, key=exact.__getitem__,
                                       reverse=True)
    assert all(view[h] == exact[h] for h in candidates)


@given(st.lists(segment_lists, min_size=2, max_size=6),
       st.floats(min_value=0.5, max_value=300.0),
       st.sampled_from([0.0, 1.0, 30.0, 1000.0]))
@settings(max_examples=80, deadline=None)
def test_rate_view_reads_equal_rates_map(trace_segments, t, window):
    """Lazy reads (seeded actives, ``__missing__``, ranked spares) are
    exactly the eager map's values; instantaneous epochs get the eager
    map itself."""
    speeds = [1e6 * (1 + i % 3) for i in range(len(trace_segments))]
    def build():
        return HostBatch(_hosts(speeds, [
            make_trace(segs, beyond_horizon="hold")
            for segs in trace_segments]))

    exact = build().rates_map(t, window)
    view = build().rate_view(t, window, [0])
    if window == 0.0:
        assert type(view) is dict and view == exact
        return
    assert set(view) == {0}
    others = list(range(1, len(speeds)))
    assert list(view.ranked(others)) == sorted(
        others, key=exact.__getitem__, reverse=True)
    for host in range(len(speeds)):
        assert view[host] == exact[host]


def test_rate_view_out_of_range_reads_raise_policy_error():
    from repro.errors import PolicyError

    traces = [make_trace([(50.0, 1)], beyond_horizon="hold")
              for _ in range(3)]
    batch = HostBatch(_hosts([1e6, 2e6, 3e6], traces))
    with pytest.raises(PolicyError):
        batch.rate_view(20.0, 5.0, [0, 3])
    with pytest.raises(PolicyError):
        batch.rate_view(20.0, 5.0, [-1])
    view = batch.rate_view(20.0, 5.0, [0])
    for host in (3, -1, 99):
        with pytest.raises(PolicyError):
            view[host]
    with pytest.raises(PolicyError):
        list(view.ranked([1, 3]))


def test_rate_view_non_positive_rates_raise_policy_error():
    from types import SimpleNamespace

    from repro.errors import PolicyError

    def batch():
        # HostSpec rejects speed <= 0; a duck-typed host slips it past to
        # exercise the view's own guard.
        hosts = [SimpleNamespace(
                     trace=make_trace([(50.0, 0)], beyond_horizon="hold"),
                     spec=SimpleNamespace(speed=speed))
                 for speed in (2e6, 0.0)]
        return HostBatch(hosts)

    with pytest.raises(PolicyError):
        batch().rate_view(20.0, 5.0, [1])
    with pytest.raises(PolicyError):
        batch().rate_view(20.0, 5.0, [0])[1]
    with pytest.raises(PolicyError):
        list(batch().rate_view(20.0, 5.0, [0]).ranked([1]))
