"""Property-based tests over randomly drawn platforms and workloads."""

from contextlib import nullcontext

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.app.iterative import ApplicationSpec
from repro.app.workloads import paper_application
from repro.core.policy import greedy_policy, safe_policy
from repro.load.onoff import OnOffLoadModel
from repro.experiments.scenarios import DYNAMISM, EVALUATION_SPEED_RANGE
from repro.platform.cluster import make_platform
from repro.simkernel.plan import disable_lowering
from repro.strategies.cr import CrStrategy
from repro.strategies.dlb import DlbStrategy
from repro.strategies.nothing import NothingStrategy
from repro.strategies.swapstrat import SwapStrategy
from repro.units import GB, KB, MB

probabilities = st.floats(min_value=0.0, max_value=1.0)
platform_params = st.tuples(
    probabilities, probabilities,
    st.integers(min_value=2, max_value=8),   # hosts
    st.integers(min_value=0, max_value=99),  # seed
)


def build(params, n_active):
    p, q, n_hosts, seed = params
    platform = make_platform(n_hosts, OnOffLoadModel(p=p, q=q), seed=seed,
                             speed_range=(100e6, 400e6))
    app = ApplicationSpec(n_processes=min(n_active, n_hosts), iterations=4,
                          flops_per_iteration=2e9, bytes_per_process=1e4,
                          state_bytes=1 * MB)
    return platform, app


@given(platform_params, st.integers(min_value=1, max_value=4))
@settings(max_examples=40, deadline=None)
def test_accounting_identity_holds_everywhere(params, n_active):
    platform, app = build(params, n_active)
    for strategy in (NothingStrategy(), SwapStrategy(greedy_policy()),
                     SwapStrategy(safe_policy()), DlbStrategy(),
                     CrStrategy()):
        result = strategy.run(platform, app)
        assert result.makespan == pytest.approx(
            result.startup_time
            + sum(r.duration for r in result.records)
            + result.overhead_time)
        assert result.iteration_count == app.iterations
        assert all(r.compute_end <= r.end + 1e-9 for r in result.records)
        assert all(r.duration > 0 for r in result.records)
        assert len(set(result.final_active)) == app.n_processes


@given(platform_params, st.integers(min_value=1, max_value=4))
@settings(max_examples=30, deadline=None)
def test_determinism_everywhere(params, n_active):
    first_platform, app = build(params, n_active)
    second_platform, _ = build(params, n_active)
    strategy = SwapStrategy(greedy_policy())
    a = strategy.run(first_platform, app)
    b = strategy.run(second_platform, app)
    assert a.makespan == b.makespan
    assert a.swap_count == b.swap_count
    assert a.final_active == b.final_active


@given(platform_params)
@settings(max_examples=30, deadline=None)
def test_dlb_never_slower_than_nothing_on_its_predictions(params):
    """DLB can lose to NOTHING only through mispredicted mid-iteration
    changes; with 4 iterations of ~10-20 s against >=10 s dwell steps the
    loss is bounded -- it must never be catastrophic."""
    platform, app = build(params, 2)
    nothing = NothingStrategy().run(platform, app)
    dlb = DlbStrategy().run(platform, app)
    assert dlb.makespan < 2.0 * nothing.makespan


@given(platform_params)
@settings(max_examples=30, deadline=None)
def test_swap_overhead_matches_event_log(params):
    platform, app = build(params, 2)
    result = SwapStrategy(greedy_policy()).run(platform, app)
    logged = sum(r.overhead_after for r in result.records)
    assert result.overhead_time == pytest.approx(logged)
    n_pauses = sum(1 for r in result.records if r.event == "swap")
    assert (result.swap_count == 0) == (n_pauses == 0)


@given(st.integers(min_value=2, max_value=16),     # hosts
       st.floats(min_value=0.0, max_value=1.0),    # dynamism
       st.integers(min_value=0, max_value=99))     # seed
@settings(max_examples=150, deadline=None)
def test_state_size_does_not_touch_nothing_or_dlb(n_hosts, d, seed):
    """Neither NOTHING nor DLB moves process state (DLB redistributes
    work for free), so the state size changes neither makespan nor
    iteration count by a single bit, lowered or not."""
    platform = make_platform(n_hosts, DYNAMISM.model(d), seed=seed,
                             speed_range=EVALUATION_SPEED_RANGE)
    for lowered in (True, False):
        for strategy in (NothingStrategy(), DlbStrategy()):
            runs = set()
            for state in (1 * KB, 1 * MB, 1 * GB):
                app = paper_application(n_processes=min(4, n_hosts),
                                        iterations=20, state_bytes=state)
                with nullcontext() if lowered else disable_lowering():
                    result = strategy.run(platform, app)
                runs.add((result.makespan, result.iteration_count))
            assert len(runs) == 1, (strategy.name, lowered, runs)
