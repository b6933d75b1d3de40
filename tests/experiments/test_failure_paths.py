"""Regression tests for the executor's failure paths.

Three bugfixes are locked in here:

* a cell raising inside a fabric worker process (``jobs > 1``) surfaces
  as an :class:`ExperimentError` carrying ``(scenario, x, seed)`` -- not
  a bare exception with no context -- with the worker's
  ``"Type: message"`` chained as a :class:`FabricError` cause;
* ``append_bench_record`` writes atomically (tmp + ``os.replace``) so
  concurrent sweep invocations can never leave a half-written perf file,
  and an unparseable existing file is preserved (``.corrupt``) rather
  than silently clobbered or crashed on;
* every flavor of cache-entry corruption -- emptied entry, truncated JSON,
  an unfinished tail line, binary garbage, digest mismatch, wrong
  ``CACHE_FORMAT``, mismatched payload structure, another entry's line
  in its place -- is a silent recompute, never an exception.
"""

import json
import os
import sys
import threading

import pytest

from repro.app.iterative import ApplicationSpec
from repro.errors import ExperimentError, FabricError
from repro.experiments.executor import (
    CACHE_FORMAT,
    CellCache,
    append_bench_record,
    cell_digest,
    compute_cell,
    execute_sweep,
)
from repro.experiments.scenarios import ExperimentSpec
from repro.load.base import ConstantLoadModel
from repro.platform.cluster import make_platform
from repro.strategies.nothing import NothingStrategy


def _ok_build(x, seed):
    platform = make_platform(2, ConstantLoadModel(int(x)), seed=seed,
                             speed_range=(100e6, 200e6))
    app = ApplicationSpec(n_processes=2, iterations=2,
                          flops_per_iteration=1e8)
    return platform, [("nothing", app, NothingStrategy())]


def _failing_build(x, seed):
    # Module-level so it pickles into worker processes; poisons one x.
    if x == 1.0:
        raise ValueError("spec builder exploded")
    return _ok_build(x, seed)


OK = ExperimentSpec(name="ok-exec", title="ok", xlabel="n",
                    x_values=(0.0, 1.0, 2.0), build=_ok_build,
                    paper_claim="toy", default_seeds=1)

POISONED = ExperimentSpec(name="poisoned-exec", title="poisoned", xlabel="n",
                          x_values=(0.0, 1.0, 2.0), build=_failing_build,
                          paper_claim="toy", default_seeds=1)


# -- worker failures carry cell context --------------------------------------


def test_parallel_failure_carries_cell_context():
    with pytest.raises(ExperimentError) as excinfo:
        execute_sweep(POISONED, seeds=2, jobs=3)
    message = str(excinfo.value)
    assert "poisoned-exec" in message
    assert "x=1.0" in message
    assert "seed=" in message
    assert "spec builder exploded" in message
    # The wire carries plain data only, so the worker's exception comes
    # back as its "Type: message" text, chained for debugging.
    cause = excinfo.value.__cause__
    assert isinstance(cause, FabricError)
    assert str(cause) == "ValueError: spec builder exploded"


def test_serial_failure_carries_cell_context():
    with pytest.raises(ExperimentError) as excinfo:
        execute_sweep(POISONED, seeds=1, jobs=1)
    assert "poisoned-exec" in str(excinfo.value)
    assert "x=1.0" in str(excinfo.value)
    assert "seed=0" in str(excinfo.value)


def test_parallel_failure_does_not_poison_cache_with_partial_grid(tmp_path):
    with pytest.raises(ExperimentError):
        execute_sweep(POISONED, seeds=1, jobs=2, cache_dir=tmp_path)
    # Whatever healthy cells landed in the cache before the failure are
    # legitimate: a fixed spec (different fingerprint) ignores them, and
    # re-running the broken spec fails again rather than trusting them.
    with pytest.raises(ExperimentError):
        execute_sweep(POISONED, seeds=1, jobs=2, cache_dir=tmp_path)


# -- bench record atomicity ---------------------------------------------------


def _timing(scenario="bench-test", jobs=1):
    _result, timing = execute_sweep(OK, seeds=1, jobs=jobs)
    return timing


def test_bench_write_is_atomic_no_tmp_left_behind(tmp_path):
    path = tmp_path / "BENCH_sweeps.json"
    append_bench_record(path, _timing())
    leftovers = [p for p in tmp_path.iterdir() if p.name != path.name]
    assert leftovers == []
    assert json.loads(path.read_text())["version"] == 4


def test_corrupt_bench_file_preserved_not_clobbered(tmp_path):
    path = tmp_path / "BENCH_sweeps.json"
    path.write_text("{ definitely not json")
    doc = append_bench_record(path, _timing())
    assert len(doc["records"]) == 1
    corrupt = tmp_path / "BENCH_sweeps.json.corrupt"
    assert corrupt.read_text() == "{ definitely not json"
    assert json.loads(path.read_text()) == doc


def test_bench_records_keyed_by_mode_too(tmp_path):
    path = tmp_path / "BENCH_sweeps.json"
    timing = _timing()
    append_bench_record(path, timing)
    import dataclasses

    fabric_timing = dataclasses.replace(timing, mode="fabric")
    doc = append_bench_record(path, fabric_timing)
    assert len(doc["records"]) == 2  # same scenario+jobs, different mode
    modes = [r["mode"] for r in doc["records"]]
    assert modes == ["fabric", "pool"]


def test_bench_reader_defaults_legacy_records_to_pool_mode(tmp_path):
    path = tmp_path / "BENCH_sweeps.json"
    legacy = {"version": 2, "tool": "sweep-bench",
              "records": [{"scenario": "ok-exec", "jobs": 1,
                           "wall_time_s": 1.0}]}
    path.write_text(json.dumps(legacy))
    doc = append_bench_record(path, _timing())
    # The legacy record was re-keyed as pool-mode and overwritten by the
    # fresh pool-mode record for the same (scenario, jobs).
    assert len(doc["records"]) == 1
    assert doc["records"][0]["mode"] == "pool"


def test_concurrent_bench_appends_never_corrupt_the_file(tmp_path):
    path = tmp_path / "BENCH_sweeps.json"
    timing = _timing()
    import dataclasses

    def hammer(worker):
        for i in range(10):
            record = dataclasses.replace(
                timing, scenario=f"hammer-{worker}", jobs=i % 3 + 1)
            append_bench_record(path, record)

    threads = [threading.Thread(target=hammer, args=(w,)) for w in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    # Interleaved read-modify-write cycles may drop records, but the
    # file itself must always parse: every observable state is some
    # complete, valid document (tmp + os.replace).
    doc = json.loads(path.read_text())
    assert doc["version"] == 4
    assert len(doc["records"]) >= 1
    assert not list(tmp_path.glob("*.tmp*"))


# -- cache corruption corpus --------------------------------------------------
#
# A cache entry is one ``<digest> <json>`` line of a writer's segment.
# Each corruption rewrites the segment's *last* line -- the victim --
# given that line and the segment's first entry (another cell's).


def _rewrite(line, change):
    """The line with its JSON payload passed through ``change``."""
    digest, body = line.rstrip(b"\n").split(b" ", 1)
    return digest + b" " + json.dumps(change(json.loads(body))).encode() \
        + b"\n"


CORRUPTIONS = {
    "empty-file": lambda line, other: b"\n",  # the entry's bytes are gone
    "truncated-json": lambda line, other: line[: len(line) // 2] + b"\n",
    "truncated-tail": lambda line, other: line[:-1],  # the newline never landed
    "binary-garbage": lambda line, other: b"\x00\xff\x01 not even text\n",
    "json-scalar": lambda line, other: line.split(b" ", 1)[0] + b" 42\n",
    "json-array": lambda line, other: line.split(b" ", 1)[0] + b" [1, 2, 3]\n",
    "digest-mismatch": lambda line, other: _rewrite(
        line, lambda p: {**p, "digest": "0" * 64}),
    "wrong-format": lambda line, other: _rewrite(
        line, lambda p: {**p, "format": CACHE_FORMAT + 1}),
    "missing-cell-key": lambda line, other: _rewrite(
        line, lambda p: {k: v for k, v in p.items() if k != "cell"}),
    "label-series-mismatch": lambda line, other: _rewrite(
        line, lambda p: {**p, "cell": {**p["cell"],
                                       "labels": ["somebody-else"]}}),
    # Another cell's entry written twice, where the victim's line was.
    "duplicate-digest": lambda line, other: other,
}


def _corrupt_last_line(root, corruption):
    [segment] = root.rglob("*.seg")
    lines = segment.read_bytes().splitlines(keepends=True)
    lines[-1] = CORRUPTIONS[corruption](lines[-1], lines[0])
    segment.write_bytes(b"".join(lines))


def _store_two(tmp_path):
    """A neighbour cell, then the victim (the segment's last line)."""
    cache = CellCache(tmp_path)
    digests = []
    for x in (1.0, 0.0):
        digest = cell_digest(OK.name, OK.fingerprint(), x, 0)
        cache.store(digest, compute_cell(OK, x, seed=0), scenario=OK.name,
                    x=x, seed=0)
        digests.append(digest)
    cache.close()
    return digests


@pytest.mark.parametrize("corruption", sorted(CORRUPTIONS))
def test_corrupted_cache_entry_is_a_silent_miss(tmp_path, corruption):
    neighbour, victim = _store_two(tmp_path)
    _corrupt_last_line(tmp_path, corruption)
    cache = CellCache(tmp_path)
    assert cache.load(victim, scenario=OK.name) is None  # never an exception
    assert cache.load(neighbour, scenario=OK.name) is not None


@pytest.mark.parametrize("corruption", sorted(CORRUPTIONS))
def test_corrupted_cache_entry_is_recomputed_in_a_sweep(tmp_path, corruption):
    _result, cold = execute_sweep(OK, seeds=1, cache_dir=tmp_path)
    assert cold.cells_computed == 3
    _corrupt_last_line(tmp_path, corruption)

    result, timing = execute_sweep(OK, seeds=1, cache_dir=tmp_path)
    assert timing.cells_computed == 1
    assert timing.cache_hits == 2
    reference = execute_sweep(OK, seeds=1)[0]
    assert (json.dumps(result.to_dict(), sort_keys=True)
            == json.dumps(reference.to_dict(), sort_keys=True))
    # The recomputed entry, appended to a new segment, outranks the
    # corrupt line that still shares its digest.
    _result, warm = execute_sweep(OK, seeds=1, cache_dir=tmp_path)
    assert warm.cells_computed == 0


def test_failed_append_leaves_no_torn_line_in_front_of_the_next(
        tmp_path, monkeypatch):
    cell = compute_cell(OK, 0.0, seed=0)
    torn, whole = (cell_digest(OK.name, OK.fingerprint(), x, 0)
                   for x in (0.0, 1.0))
    real_write = os.write

    def disk_full(fd, data):
        real_write(fd, bytes(data[:10]))
        raise OSError(28, "No space left on device")

    cache = CellCache(tmp_path)
    monkeypatch.setattr(os, "write", disk_full)
    with pytest.raises(OSError):
        cache.store(torn, cell, scenario=OK.name, x=0.0, seed=0)
    monkeypatch.undo()
    cache.store(whole, cell, scenario=OK.name, x=1.0, seed=0)
    cache.close()
    assert len(list(tmp_path.rglob("*.seg"))) == 2
    reader = CellCache(tmp_path)
    assert reader.load(torn, scenario=OK.name) is None
    assert reader.load(whole, scenario=OK.name) is not None


# -- concurrent writers ---------------------------------------------------------


def test_concurrent_writers_share_a_cache_and_a_fresh_reader_sees_all(
        tmp_path):
    # More writers than cores, switching threads as often as possible:
    # a lost or torn append would show as a missing entry.
    cells = {x: compute_cell(OK, x, seed=0) for x in OK.x_values}
    writers, seeds_each = 4, 6
    start = threading.Barrier(writers)

    def write(first_seed):
        cache = CellCache(tmp_path)
        start.wait(timeout=10)
        for seed in range(first_seed, first_seed + seeds_each):
            for x in OK.x_values:
                cache.store(cell_digest(OK.name, OK.fingerprint(), x, seed),
                            cells[x], scenario=OK.name, x=x, seed=seed)
        cache.close()

    threads = [threading.Thread(target=write, args=(w * seeds_each,))
               for w in range(writers)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert len(list(tmp_path.rglob("*.seg"))) == writers  # one per writer
    reader = CellCache(tmp_path)
    for seed in range(writers * seeds_each):
        for x in OK.x_values:
            got = reader.load(cell_digest(OK.name, OK.fingerprint(), x, seed),
                              scenario=OK.name)
            assert got is not None and got.makespans == cells[x].makespans
