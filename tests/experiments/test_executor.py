"""Tests for the parallel sweep executor and its cell cache.

The load-bearing guarantees:

* serial (`jobs=1`), parallel (`jobs>1`) and cache-assisted executions
  produce **byte-identical** `SweepResult.to_dict()` payloads;
* a warm cache computes zero cells; extending the seed list computes
  only the new cells;
* corrupted or mismatched cache entries are recomputed, never trusted.
"""

import dataclasses
import json

import pytest

from repro.app.iterative import ApplicationSpec
from repro.errors import ExperimentError
from repro.experiments.executor import (
    CellCache,
    CellResult,
    append_bench_record,
    cell_digest,
    compute_cell,
    execute_sweep,
)
from repro.experiments.runner import run_sweep
from repro.experiments.scenarios import ExperimentSpec, get_scenario
from repro.load.base import ConstantLoadModel
from repro.platform.cluster import make_platform
from repro.strategies.nothing import NothingStrategy
from repro.strategies.swapstrat import SwapStrategy


def _tiny_build(x, seed):
    # Module-level so the spec is picklable into pool workers.
    platform = make_platform(3, ConstantLoadModel(int(x)), seed=seed,
                             speed_range=(100e6, 200e6))
    app = ApplicationSpec(n_processes=2, iterations=3,
                          flops_per_iteration=2e8)
    return platform, [("nothing", app, NothingStrategy()),
                      ("swap-greedy", app, SwapStrategy())]


TINY = ExperimentSpec(name="tiny-exec", title="tiny sweep", xlabel="n",
                      x_values=(0.0, 1.0, 2.0), build=_tiny_build,
                      paper_claim="toy", default_seeds=2)


def _canon(result) -> str:
    return json.dumps(result.to_dict(), sort_keys=True)


# -- serial/parallel equivalence --------------------------------------------


@pytest.mark.parametrize("scenario", ["fig4", "fig7"])
def test_parallel_matches_serial_byte_identical(scenario):
    spec = get_scenario(scenario)
    serial, serial_timing = execute_sweep(spec, seeds=2, jobs=1)
    parallel, parallel_timing = execute_sweep(spec, seeds=2, jobs=4)
    assert _canon(serial) == _canon(parallel)
    assert serial_timing.cells_total == parallel_timing.cells_total
    assert parallel_timing.jobs == 4
    assert (serial_timing.mode, parallel_timing.mode) == ("pool", "fabric")


def test_run_sweep_jobs_parameter_delegates():
    serial = run_sweep(TINY, seeds=2)
    parallel = run_sweep(TINY, seeds=2, jobs=3)
    assert _canon(serial) == _canon(parallel)


def test_jobs_below_one_rejected():
    with pytest.raises(ExperimentError):
        execute_sweep(TINY, seeds=1, jobs=0)


# -- cell cache --------------------------------------------------------------


def test_warm_cache_computes_zero_cells(tmp_path):
    cold, cold_timing = execute_sweep(TINY, seeds=2, cache_dir=tmp_path)
    assert cold_timing.cells_computed == 6  # 3 x values * 2 seeds
    assert cold_timing.cache_hits == 0

    warm, warm_timing = execute_sweep(TINY, seeds=2, cache_dir=tmp_path)
    assert warm_timing.cells_computed == 0
    assert warm_timing.cache_hits == 6
    assert _canon(cold) == _canon(warm)
    # Cache hits did no simulation work this run.
    assert warm_timing.iterations == 0

    uncached = execute_sweep(TINY, seeds=2)[0]
    assert _canon(uncached) == _canon(warm)


def test_extending_seeds_computes_only_new_cells(tmp_path):
    execute_sweep(TINY, seeds=1, cache_dir=tmp_path)
    more, timing = execute_sweep(TINY, seeds=3, cache_dir=tmp_path)
    assert timing.cache_hits == 3       # the seed-0 column
    assert timing.cells_computed == 6   # seeds 1 and 2
    assert _canon(more) == _canon(execute_sweep(TINY, seeds=3)[0])


def test_parallel_run_populates_cache_for_serial_reader(tmp_path):
    execute_sweep(TINY, seeds=2, jobs=3, cache_dir=tmp_path)
    _result, timing = execute_sweep(TINY, seeds=2, jobs=1,
                                    cache_dir=tmp_path)
    assert timing.cells_computed == 0


def _segment_lines(root):
    """The one segment a serial sweep leaves, and its entry lines."""
    [segment] = root.rglob("*.seg")
    return segment, segment.read_bytes().splitlines(keepends=True)


def test_corrupted_cache_entry_is_recomputed(tmp_path):
    execute_sweep(TINY, seeds=2, cache_dir=tmp_path)
    segment, lines = _segment_lines(tmp_path)
    assert len(lines) == 6
    digest = lines[0].split(b" ", 1)[0]
    lines[0] = digest + b" { not json\n"
    segment.write_bytes(b"".join(lines))

    result, timing = execute_sweep(TINY, seeds=2, cache_dir=tmp_path)
    assert timing.cells_computed == 1
    assert timing.cache_hits == 5
    assert _canon(result) == _canon(execute_sweep(TINY, seeds=2)[0])


def test_tampered_digest_is_a_miss(tmp_path):
    execute_sweep(TINY, seeds=1, cache_dir=tmp_path)
    segment, lines = _segment_lines(tmp_path)
    digest, body = lines[0].split(b" ", 1)
    payload = json.loads(body)
    payload["digest"] = "0" * 64
    lines[0] = digest + b" " + json.dumps(payload).encode() + b"\n"
    segment.write_bytes(b"".join(lines))

    _result, timing = execute_sweep(TINY, seeds=1, cache_dir=tmp_path)
    assert timing.cells_computed == 1


def test_cache_roundtrip_preserves_exact_floats(tmp_path):
    cell = compute_cell(TINY, 1.0, seed=0)
    cache = CellCache(tmp_path)
    digest = cell_digest("tiny-exec", TINY.fingerprint(), 1.0, 0)
    cache.store(digest, cell, scenario="tiny-exec", x=1.0, seed=0)
    cache.close()
    for reader in (cache, CellCache(tmp_path)):
        loaded = reader.load(digest, scenario="tiny-exec")
        assert loaded is not None
        assert loaded.makespans == cell.makespans  # bit-exact via repr
        assert loaded.labels == cell.labels
        assert loaded.events == cell.events
    # Partitioned by scenario: another scenario's reader never sees it.
    assert CellCache(tmp_path).load(digest, scenario="other") is None


def test_cache_load_missing_entry_returns_none(tmp_path):
    assert CellCache(tmp_path).load("ab" * 32, scenario="tiny-exec") is None


def test_store_after_load_is_visible_to_the_same_cache(tmp_path):
    cell = compute_cell(TINY, 1.0, seed=0)
    cache = CellCache(tmp_path)
    digest = cell_digest("tiny-exec", TINY.fingerprint(), 1.0, 0)
    assert cache.load(digest, scenario="tiny-exec") is None  # index built
    cache.store(digest, cell, scenario="tiny-exec", x=1.0, seed=0)
    assert cache.load(digest, scenario="tiny-exec").makespans \
        == cell.makespans
    cache.close()


def test_scenario_names_cannot_leave_the_cache_root(tmp_path):
    cell = compute_cell(TINY, 1.0, seed=0)
    root = tmp_path / "cache"
    for name in ("..", "../escape", "a/b", ""):
        cache = CellCache(root)
        cache.store("ab" * 32, cell, scenario=name, x=1.0, seed=0)
        cache.close()
        assert CellCache(root).load("ab" * 32, scenario=name) is not None
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cache"]
    assert len(list(root.iterdir())) == 4


def test_payload_label_mismatch_rejected():
    with pytest.raises(ValueError):
        CellResult.from_payload({
            "labels": ["a"], "makespans": {"b": 1.0}, "events": {"a": 0.0},
            "iterations": 1, "engine_events": 0})


# -- content addressing ------------------------------------------------------


def test_cell_digest_varies_with_coordinates_and_spec():
    fp = TINY.fingerprint()
    base = cell_digest("tiny-exec", fp, 1.0, 0)
    assert cell_digest("tiny-exec", fp, 2.0, 0) != base
    assert cell_digest("tiny-exec", fp, 1.0, 1) != base
    assert cell_digest("other", fp, 1.0, 0) != base
    assert cell_digest("tiny-exec", "different-fingerprint", 1.0, 0) != base
    assert base == cell_digest("tiny-exec", fp, 1.0, 0)  # stable


def test_fingerprint_changes_with_grid_and_is_stable():
    assert TINY.fingerprint() == TINY.fingerprint()
    narrowed = dataclasses.replace(TINY, x_values=(0.0, 1.0))
    assert narrowed.fingerprint() != TINY.fingerprint()
    assert get_scenario("fig4").fingerprint() != TINY.fingerprint()


def test_digest_handles_non_finite_x():
    fp = "fp"
    assert (cell_digest("s", fp, float("inf"), 0)
            != cell_digest("s", fp, 0.0, 0))


# -- timing / bench records --------------------------------------------------


def test_timing_record_fields():
    _result, timing = execute_sweep(TINY, seeds=2)
    record = timing.to_dict()
    for key in ("scenario", "jobs", "wall_time_s", "cells_total",
                "cells_computed", "cache_hits", "events_per_sec",
                "cells_per_sec", "iterations", "engine_events"):
        assert key in record
    assert record["scenario"] == "tiny-exec"
    assert record["cells_total"] == 6
    assert record["wall_time_s"] > 0
    assert timing.iterations > 0  # the tiny app simulates 3 iterations/run


def test_append_bench_record_merges_by_scenario_and_jobs(tmp_path):
    path = tmp_path / "BENCH_sweeps.json"
    _result, timing = execute_sweep(TINY, seeds=1)
    doc = append_bench_record(path, timing)
    assert len(doc["records"]) == 1

    _result, timing2 = execute_sweep(TINY, seeds=1, jobs=2)
    doc = append_bench_record(path, timing2)
    assert len(doc["records"]) == 2  # same scenario, different jobs

    doc = append_bench_record(path, timing)
    assert len(doc["records"]) == 2  # (scenario, jobs=1) overwritten
    on_disk = json.loads(path.read_text())
    # jobs=2 is a fabric run, so it is keyed (and sorted) by that mode.
    assert [(r["mode"], r["jobs"]) for r in on_disk["records"]] == [
        ("fabric", 2), ("pool", 1)]


def test_append_bench_record_survives_corrupt_file(tmp_path):
    path = tmp_path / "BENCH_sweeps.json"
    path.write_text("not json at all")
    _result, timing = execute_sweep(TINY, seeds=1)
    doc = append_bench_record(path, timing)
    assert len(doc["records"]) == 1


# -- progress callback -------------------------------------------------------


def test_on_point_called_once_per_cell_in_grid_order(tmp_path):
    execute_sweep(TINY, seeds=2, cache_dir=tmp_path)  # prime the cache
    calls = []
    execute_sweep(TINY, seeds=2, cache_dir=tmp_path,
                  on_point=lambda x, s: calls.append((x, s)))
    assert calls == [(x, s) for x in (0.0, 1.0, 2.0) for s in (0, 1)]
