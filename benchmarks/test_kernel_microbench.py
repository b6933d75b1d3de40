"""Micro-benchmarks of the simulation substrate itself.

Not a paper figure: these track the throughput of the hot paths that
every experiment sweep exercises -- the event loop, trace-segment
walking, fair-share flow completion, and the decision engine -- so
regressions in the substrate show up before they distort study runtimes.
"""

import numpy as np

from repro.app.iterative import ApplicationSpec
from repro.core.decision import decide_swaps
from repro.core.policy import greedy_policy
from repro.load.onoff import OnOffLoadModel
from repro.platform.cluster import make_platform
from repro.platform.network import FairShareLink, LinkSpec
from repro.simkernel.engine import Simulator
from repro.simkernel.plan import disable_lowering
from repro.strategies.swapstrat import SwapStrategy
from repro.units import MB


def test_event_loop_throughput(benchmark):
    """Chained timeouts: pure heap push/pop plus callback dispatch."""

    def run():
        sim = Simulator()
        count = 0

        def chain(_event):
            nonlocal count
            count += 1
            if count < 10_000:
                sim.timeout(1.0).add_callback(chain)

        sim.timeout(1.0).add_callback(chain)
        sim.run()
        return count

    assert benchmark(run) == 10_000


def test_coroutine_process_throughput(benchmark):
    """Generator processes yielding timeouts."""

    def run():
        sim = Simulator()

        def worker():
            for _ in range(2_000):
                yield sim.timeout(0.5)
            return True

        processes = [sim.process(worker()) for _ in range(5)]
        sim.run()
        return all(p.value for p in processes)

    assert benchmark(run)


def test_trace_advance_work_throughput(benchmark):
    """The strategy simulators' innermost loop: trace-segment walking."""
    trace = OnOffLoadModel(p=0.3, q=0.2).build(
        np.random.default_rng(0), 500_000.0)

    def run():
        t = 0.0
        for _ in range(2_000):
            t = trace.advance_work(t, 60.0)
        return t

    final = benchmark(run)
    assert final > 2_000 * 60.0 - 1.0


def test_fair_share_link_throughput(benchmark):
    """Many overlapping flows joining and completing."""

    def run():
        sim = Simulator()
        link = FairShareLink(sim, LinkSpec(latency=1e-4, bandwidth=6e6))

        def producer():
            for _ in range(200):
                done = link.transfer(100_000.0)
                yield done

        processes = [sim.process(producer()) for _ in range(4)]
        sim.run()
        return all(p.processed for p in processes)

    assert benchmark(run)


def test_decision_engine_throughput(benchmark):
    """decide_swaps over a 32-host pool, the per-iteration policy cost."""
    rng = np.random.default_rng(7)
    rates = {i: float(r) for i, r in
             enumerate(rng.uniform(100e6, 500e6, size=32))}
    active = list(range(8))
    spares = list(range(8, 32))
    chunks = {h: 1.8e10 for h in active}
    params = greedy_policy()

    def run():
        decisions = 0
        for _ in range(500):
            decision = decide_swaps(active, spares, rates, chunks,
                                    comm_time=0.1, swap_cost=0.3,
                                    params=params)
            decisions += len(decision.moves)
        return decisions

    benchmark(run)


# -- the vectorized kernels (docs/PERFORMANCE.md "numpy load-trace
# kernels" section gets its numbers from the benches below) -----------------


def test_prefix_sum_invalidation_cost(benchmark):
    """append_segment + kernel() recompile: the mutation side of the
    cache.  Incremental tail extension keeps this O(appended segments),
    not O(trace length) -- the number to watch here."""
    base = OnOffLoadModel(p=0.3, q=0.2).build(
        np.random.default_rng(3), 500_000.0)
    times = list(base._times)
    values = list(base._values)

    def run():
        from repro.load.base import LoadTrace

        trace = LoadTrace([0.0] + times[1:1000],
                          values[:999], beyond_horizon="hold")
        trace.kernel()  # compile once; the loop pays only extension
        total = 0.0
        for i in range(2_000):
            trace.append_segment(trace.horizon + 5.0, i % 3)
            total += trace.kernel().cum_list[-1]
        return total

    assert benchmark(run) > 0.0


def _lowering_workload():
    platform = make_platform(10, OnOffLoadModel(p=0.3, q=0.3), seed=5)
    app = ApplicationSpec(n_processes=4, iterations=400,
                          flops_per_iteration=4e8, state_bytes=1 * MB)
    return platform, app


def test_lowered_scenario_throughput(benchmark):
    """Full SWAP run with the lowering pipeline on (the production path;
    compare against test_unlowered_scenario_throughput)."""

    def run():
        platform, app = _lowering_workload()
        return SwapStrategy(greedy_policy()).run(platform, app).makespan

    lowered = benchmark(run)
    with disable_lowering():
        platform, app = _lowering_workload()
        reference = SwapStrategy(greedy_policy()).run(platform, app).makespan
    assert lowered == reference  # float-identity contract


def test_unlowered_scenario_throughput(benchmark):
    """The same run with every binding on the generic per-host chain."""

    def run():
        with disable_lowering():
            platform, app = _lowering_workload()
            return SwapStrategy(greedy_policy()).run(platform, app).makespan

    assert benchmark(run) > 0.0
