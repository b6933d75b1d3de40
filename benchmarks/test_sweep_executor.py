"""Benchmarks of the sweep executor itself (not a paper figure).

Tracks the three execution modes of :mod:`repro.experiments.executor` on
the fig4 sweep: the serial reference path, the fan-out over fabric
worker processes, and a warm content-addressed cache.  On a multi-core runner the parallel
bench should approach ``1/jobs`` of the serial wall time; the warm-cache
bench must compute zero cells regardless of core count.  All three land
in ``benchmarks/BENCH_sweeps.json`` via the conftest session hook.
"""

import json

from repro.experiments.executor import execute_sweep
from repro.experiments.scenarios import get_scenario

SEEDS = 3


def test_fig4_sweep_serial(run_figure):
    run_figure("fig4", seeds=SEEDS, jobs=1)


def test_fig4_sweep_parallel_4_workers(run_figure):
    result = run_figure("fig4", seeds=SEEDS, jobs=4)
    serial = execute_sweep(get_scenario("fig4"), seeds=SEEDS, jobs=1)[0]
    assert (json.dumps(result.to_dict(), sort_keys=True)
            == json.dumps(serial.to_dict(), sort_keys=True))


def test_fig4_sweep_warm_cache(benchmark, tmp_path):
    spec = get_scenario("fig4")
    cold, cold_timing = execute_sweep(spec, seeds=SEEDS, cache_dir=tmp_path)
    assert cold_timing.cells_computed == cold_timing.cells_total

    def warm():
        result, timing = execute_sweep(spec, seeds=SEEDS, cache_dir=tmp_path)
        assert timing.cells_computed == 0
        assert timing.cache_hits == timing.cells_total
        return result

    result = benchmark.pedantic(warm, rounds=1, iterations=1)
    assert (json.dumps(result.to_dict(), sort_keys=True)
            == json.dumps(cold.to_dict(), sort_keys=True))
