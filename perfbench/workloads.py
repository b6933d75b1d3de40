"""The three workloads of the sweep benchmark, their set-up, timing and checks.

Every workload is a closed loop: one benchmark process runs one sweep at a
time, and the fabric workload adds two worker processes.

Timing is built to survive host-speed drift on a small shared VM (see
README.md).  Times are reported in reference seconds: measured seconds
scaled by how fast a fixed calibration kernel ran around them
(:class:`HostClock`).  The serial workloads run their whole cell set in
round-robin passes and score each cell by its median over the passes;
the fabric workload repeats its sweep from the same half-warm cache and
reports the median sweep.  ``setup_s`` is the median of several
fresh-interpreter set-ups.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import layers

ROOT = Path(__file__).resolve().parent.parent
GOLDENS = ROOT / "tests" / "experiments" / "goldens"

#: Fewest timed passes (serial) or sweeps (fabric) in one measurement.
MIN_PASSES = 3
#: Fresh-interpreter set-ups per run, whose median is ``setup_s``: at
#: least SETUP_PROBES, and more, up to twice as many, while they have
#: taken under SETUP_SECONDS (a fresh interpreter varies by +-15 %).
SETUP_PROBES = 7
SETUP_SECONDS = 5.0
FABRIC_WORKERS = 2

END_TO_END = (
    ("cells_per_s", "1/s"),
    ("cell_p50_ms", "ms"),
    ("cell_tail_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("cells_ok_frac", "ratio"),
)

PER_LAYER = (
    ("platform.build_ms", "ms/cell"),
    ("load.rates_map_calls", "calls/cell"),
    ("load.rates_map_ms", "ms/cell"),
    ("load.compute_end_ms", "ms/cell"),
    ("load.kernel_compile_ms", "ms/cell"),
    ("simkernel.lower_ms", "ms/cell"),
    ("core.decide_calls", "calls/cell"),
    ("core.decide_ms", "ms/cell"),
    ("core.swap_accept_frac", "ratio"),
    ("strategies.nothing.run_ms", "ms/cell"),
    ("strategies.swap.run_ms", "ms/cell"),
    ("strategies.dlb.run_ms", "ms/cell"),
    ("strategies.cr.run_ms", "ms/cell"),
    ("faults.compute_finish_calls", "calls/cell"),
    ("faults.compute_finish_ms", "ms/cell"),
    ("faults.recover_ms", "ms/cell"),
    ("obs.records_per_cell", "records/cell"),
    ("obs.fold_ms", "ms/cell"),
    ("executor.compute_cell_ms", "ms/cell"),
    ("executor.plan_cells_ms", "ms/cell"),
    ("executor.cache_load_ms", "ms/cell"),
    ("executor.cache_store_ms", "ms/cell"),
    ("executor.cache_hit_frac", "ratio"),
    ("executor.merge_ms", "ms/cell"),
    ("fabric.coordinator_ms", "ms/cell"),
    ("fabric.fleet_start_ms", "ms/sweep"),
    ("fabric.lease_wait_ms", "ms/lease"),
    ("fabric.frames", "frames/cell"),
    ("fabric.requeues", "cells/sweep"),
    ("fabric.idle_frac", "ratio"),
    ("trace.overhead_frac", "ratio"),
)


@dataclass(frozen=True)
class Workload:
    name: str
    scenario: str
    seeds: int
    """Seeds per run: the grid is the scenario's x values times these."""
    instrument: bool = False
    """Run every cell under its own ``ObsSession`` and fold the records."""
    fabric: bool = False
    golden: "str | None" = None
    """Committed ``seeds=2`` golden this workload re-checks byte for byte."""


#: Why each exists: perfbench/README.md and BENCHMARK.json.
WORKLOADS = {w.name: w for w in (
    Workload("fig7-serial", "fig7", seeds=20, golden="fig7"),
    Workload("fig4-fabric-resume", "fig4", seeds=40, fabric=True,
             golden="fig4"),
    Workload("faults-traced", "ext-faults", seeds=34, instrument=True),
)}


def seed_list(workload: Workload, seed: int, offset: int,
              count: "int | None" = None) -> "list[int]":
    """The run's cell seeds: disjoint blocks per ``seed``, shifted by
    ``offset``; ``count`` takes a prefix of the block (reduced runs)."""
    first = offset + seed * workload.seeds
    return list(range(first, first + (count or workload.seeds)))


@dataclass
class Tally:
    """Cells attempted versus cells that failed a check, plus the traced
    run's sanity checks, which fail the run without naming cells."""

    attempted: int = 0
    failed: int = 0
    notes: "list[str]" = field(default_factory=list)
    insane: int = 0

    def check(self, cells: int, ok: bool, what: str) -> None:
        self.attempted += cells
        if not ok:
            self.failed += cells
            self.notes.append(f"MISMATCH {what} ({cells} cells)")

    def sane(self, ok: bool, what: str) -> None:
        if not ok:
            self.insane += 1
            self.notes.append(f"TRACE CHANGED THE PROGRAM: {what}")

    @property
    def correct(self) -> bool:
        return self.failed == 0 and self.insane == 0


def _digest(obj) -> str:
    return hashlib.sha256(
        json.dumps(obj, sort_keys=True).encode("utf-8")).hexdigest()


def tail(values: "list[float]") -> "tuple[float, float, int]":
    """``(value, percentile, samples)`` of the highest nearest-rank
    percentile that has at least ten samples above it (the maximum when
    there are fewer than eleven samples)."""
    ordered = sorted(values)
    n = len(ordered)
    index = n - 11 if n >= 11 else n - 1
    return ordered[index], 100.0 * (index + 1) / n, n


# -- host-speed calibration -------------------------------------------------

#: Seconds one :func:`_kernel` run takes on the reference host (a 2-vCPU
#: Firecracker VM, Python 3.11).  Serial cell times and set-up times are
#: reported in reference seconds: measured seconds scaled by
#: ``KERNEL_REF_S`` over the kernel time measured around them.
KERNEL_REF_S = 0.0004

_KERNEL_ARRAY = np.arange(256, dtype=float)
_KERNEL_OUT = np.empty(256)
_KERNEL_SLOTS = [0.0] * 64


def _kernel() -> float:
    """A fixed mix of interpreted arithmetic, list indexing and small
    NumPy calls, like a cell's, that allocates no object the garbage
    collector tracks (so the program's heap cannot slow it down)."""
    slots = _KERNEL_SLOTS
    acc = 0.0
    for i in range(1500):
        slots[i & 63] = acc
        acc += (i * 0.5) % 7.0 + slots[(i * 7) & 63] * 1e-9
    for _ in range(20):
        np.cumsum(_KERNEL_ARRAY, out=_KERNEL_OUT)
        acc += float(_KERNEL_OUT.searchsorted(100.0))
    return acc


def kernel_seconds() -> float:
    """Wall seconds of one :func:`_kernel` run."""
    started = time.perf_counter()
    _kernel()
    return time.perf_counter() - started


class HostClock:
    """Converts measured seconds into reference seconds.

    The VM's speed drifts by tens of percent within seconds.  Timing the
    fixed kernel between consecutive measured intervals tells how fast
    the host ran around each one; the interval's scale factor uses the
    kernel times on both sides of it.
    """

    def __init__(self) -> None:
        self._last = kernel_seconds()

    def scale(self) -> float:
        """Reference seconds per measured second since the last call."""
        now = kernel_seconds()
        factor = 2.0 * KERNEL_REF_S / (self._last + now)
        self._last = now
        return factor


# -- set-up ---------------------------------------------------------------


def prepare(workload: Workload, seeds: "list[int]", workdir: Path,
            sample=lambda: None):
    """Everything before the first timed cell: imports, the scenario
    build, and (fabric) the half-warm cell cache under ``workdir``.

    ``sample`` is called between the steps and after every prefilled
    cell, so a set-up probe can gauge the host's speed while it works.
    """
    from repro.experiments import executor
    from repro.experiments import fabric  # noqa: F401  (timed import)
    from repro.experiments.scenarios import get_scenario

    sample()
    spec = get_scenario(workload.scenario)
    spec.fingerprint()
    sample()
    if workload.fabric:
        # What a first, interrupted run of the sweep leaves behind: the
        # cells of every other seed, stored under their cache digests.
        cache = executor.CellCache(workdir / "cache")
        _hits, pending = executor.plan_cells(spec, seeds[::2], cache)
        for _xi, _si, x, seed, digest in pending:
            cache.store(digest, executor.compute_cell(spec, x, seed),
                        scenario=spec.name, x=x, seed=seed)
            sample()
    return spec


def measure_setup(workload: Workload, seeds: "list[int]",
                  workdir: Path) -> "list[tuple[float, float]]":
    """Run fresh-interpreter set-ups and return each one's
    ``(wall, reference)`` seconds; the last one's ``workdir`` is
    left in place for the timed run to use.

    A probe runs the calibration kernel between its steps and reports
    the kernels' total and median time; the set-up is its wall time less
    the kernels, scaled to reference seconds by that median.
    """
    probe = Path(__file__).with_name("setup_probe.py")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), TMPDIR=str(workdir))
    times = []
    started_all = time.perf_counter()
    while len(times) < SETUP_PROBES or (
            len(times) < 2 * SETUP_PROBES
            and time.perf_counter() - started_all < SETUP_SECONDS):
        shutil.rmtree(workdir / "cache", ignore_errors=True)
        started = time.perf_counter()
        child = subprocess.Popen(
            [sys.executable, str(probe), workload.name, json.dumps(seeds),
             str(workdir)],
            stdout=subprocess.PIPE, env=env, cwd=ROOT, text=True)
        try:
            line = child.stdout.readline()
            spent = time.perf_counter() - started
        finally:
            child.stdout.close()
            try:
                code = child.wait(timeout=120)
            except subprocess.TimeoutExpired:
                child.kill()
                code = child.wait()
        word, *numbers = line.split() or [""]
        if word != "ready" or len(numbers) != 2 or code != 0:
            raise RuntimeError(f"set-up probe failed (exit {code})")
        kernels, kernel_median = (float(n) for n in numbers)
        net = spent - kernels
        times.append((net, net * KERNEL_REF_S / kernel_median))
    return times


# -- serial workloads -------------------------------------------------------


@dataclass
class SerialRun:
    """Per-cell times of every pass of one measurement."""

    raw: "list[list[float]]"
    """Wall seconds, per cell, one entry per pass."""
    ref: "list[list[float]]"
    """The same in reference seconds (see :class:`HostClock`)."""
    merge_ref: "list[float]"
    """Reference seconds of each pass's merge (plus obs fold)."""
    passes: int
    cells: dict
    """The last pass's cells, keyed by grid coordinates."""

    def scores(self) -> "list[float]":
        """Each cell's median reference time over the passes."""
        return [statistics.median(times) for times in self.ref]

    def cells_per_s(self) -> float:
        return len(self.ref) / (sum(self.scores())
                                + statistics.median(self.merge_ref))

    def raw_cells_per_s(self) -> float:
        """Wall-clock figure: every cell at its fastest pass."""
        return len(self.raw) / sum(min(times) for times in self.raw)


def _summary(cell) -> tuple:
    return (tuple(cell.makespans.items()), tuple(cell.events.items()),
            cell.iterations, cell.engine_events, len(cell.trace_events))


#: Layers whose wrapped call counts must repeat exactly, cell by cell.
COUNTED = ("core.decide", "load.rates_map", "faults.compute_finish")


def measure_serial(spec, grid: list, seeds: "list[int]", workload: Workload,
                   seconds: float, tally: Tally, expect: dict,
                   tracer: "layers.Tracer | None" = None) -> SerialRun:
    """Round-robin passes over every cell of ``grid`` until ``seconds``
    are used (at least :data:`MIN_PASSES`).

    ``expect`` maps a cell index to its full-payload digest and summary
    from the first pass ever run; every later pass, traced ones too, must
    reproduce them.  The full digest is recomputed on the first pass of
    each measurement only: hashing the obs records costs half a cell.
    """
    from repro import obs
    from repro.experiments import executor

    run = SerialRun(raw=[[] for _ in grid], ref=[[] for _ in grid],
                    merge_ref=[], passes=0, cells={})
    calls_seen: "dict[int, tuple]" = {}
    clock = HostClock()
    started = time.perf_counter()
    while True:
        pass_started = time.perf_counter()
        run.cells = cells = {}  # drop the previous pass before this one
        for index, (xi, si, x, seed) in enumerate(grid):
            if tracer is not None:
                before = [tracer.calls(name) for name in COUNTED]
            t0 = time.perf_counter()
            cell = executor.compute_cell(spec, x, seed,
                                         instrument=workload.instrument)
            spent = time.perf_counter() - t0
            run.raw[index].append(spent)
            run.ref[index].append(spent * clock.scale())
            cells[(xi, si)] = cell
            if tracer is not None:
                _check_calls(tracer, before, calls_seen, index, cell,
                             workload, tally)
            if index not in expect:
                expect[index] = (_digest(cell.to_payload()), _summary(cell))
                tally.check(1, True, "first computation")
            elif run.passes == 0:
                tally.check(1, expect[index][0] == _digest(cell.to_payload()),
                            f"cell {index} payload")
            else:
                tally.check(1, expect[index][1] == _summary(cell),
                            f"cell {index} summary")
        clock.scale()
        t0 = time.perf_counter()
        executor.merge_cells(spec, seeds, cells)
        if workload.instrument:
            executor.fold_obs(obs.ObsSession(), spec, seeds, cells)
        run.merge_ref.append((time.perf_counter() - t0) * clock.scale())
        run.passes += 1
        now = time.perf_counter()
        if run.passes >= MIN_PASSES and \
                (now - started) + (now - pass_started) > seconds:
            return run


def _check_calls(tracer, before, calls_seen, index, cell, workload,
                 tally) -> None:
    """Wrapped call counts must repeat exactly between traced passes, and
    (obs on) ``decide_swaps`` calls must equal the program's own count of
    ``decision`` records."""
    calls = tuple(tracer.calls(name) - b for name, b in zip(COUNTED, before))
    seen = calls_seen.setdefault(index, calls)
    tally.sane(seen == calls,
               f"cell {index} wrapped call counts {calls} vs {seen}")
    if workload.instrument:
        # Swap decisions carry "moves"; CR's whole-set checks do not.
        decisions = sum(1 for record in cell.trace_events
                        if record.get("kind") == "decision"
                        and "moves" in record)
        tally.sane(decisions == calls[0],
                   f"cell {index} decide_swaps calls {calls[0]} vs "
                   f"{decisions} decision records")


def check_scalar_reference(spec, grid: list, cells: dict,
                           tally: Tally) -> None:
    """Every cell against the scalar (unlowered, untraced) reference."""
    from repro.experiments import executor
    from repro.simkernel.plan import disable_lowering

    with disable_lowering():
        for xi, si, x, seed in grid:
            ref = executor.compute_cell(spec, x, seed)
            cell = cells[(xi, si)]
            tally.check(1, (ref.makespans, ref.events, ref.iterations)
                        == (cell.makespans, cell.events, cell.iterations),
                        f"scalar reference x={x!r} seed={seed}")


def check_golden(name: str, tally: Tally) -> None:
    """``seeds=2`` sweep of ``name`` against its committed golden bytes."""
    from repro.experiments import executor
    from repro.experiments.scenarios import get_scenario

    spec = get_scenario(name)
    result, _timing = executor.execute_sweep(spec, seeds=2)
    got = json.dumps(result.to_dict(), sort_keys=True, indent=2) + "\n"
    want = (GOLDENS / f"{name}-seeds2.json").read_text()
    tally.check(len(spec.x_values) * 2, got == want, f"{name} golden")


# -- fabric workload --------------------------------------------------------


#: Calibration kernels run before each fabric sweep.
SWEEP_KERNELS = 8


@dataclass
class FabricRun:
    """One measurement: repeated sweeps from the same half-warm cache."""

    walls: "list[float]" = field(default_factory=list)
    timings: list = field(default_factory=list)
    digests: "list[str]" = field(default_factory=list)
    kernels: "list[float]" = field(default_factory=list)

    def scale(self) -> float:
        """Reference seconds per measured second over the whole run.

        Sweeps last about a second, longer than the kernel can follow
        the host's second-to-second drift (and two workers plus the
        coordinator on two cores add scheduling noise of their own), so
        the fabric is scaled by the run's median kernel time: that
        removes the minute-to-minute drift, and the median over sweeps
        the rest.
        """
        return KERNEL_REF_S / statistics.median(self.kernels)

    def cells_per_s(self) -> float:
        return self.timings[0].cells_computed / (
            statistics.median(self.walls) * self.scale())

    def raw_cells_per_s(self) -> float:
        return self.timings[0].cells_computed / statistics.median(self.walls)

    def counts(self) -> "set[tuple]":
        return {(t.cells_computed, t.cache_hits, t.iterations,
                 t.engine_events) for t in self.timings}


def measure_fabric(spec, seeds: "list[int]", workdir: Path, seconds: float,
                   tracer: "layers.Tracer | None" = None) -> FabricRun:
    """Repeat the fabric sweep, each time from a fresh copy of the
    half-warm cache in ``workdir / "cache"``, until ``seconds`` are used."""
    from repro.experiments import fabric

    run = FabricRun()
    started = time.perf_counter()
    while True:
        rep_dir = workdir / f"sweep{len(run.walls)}"
        shutil.copytree(workdir / "cache", rep_dir / "cache")
        run.kernels.extend(kernel_seconds() for _ in range(SWEEP_KERNELS))
        if tracer is not None:
            layers.begin_sweep(tracer, FABRIC_WORKERS)
            tracer.worker_dir = str(rep_dir)
        t0 = time.perf_counter()
        result, timing, stats = fabric.execute_sweep_fabric(
            spec, seeds, workers=FABRIC_WORKERS, transport="process",
            cache_dir=rep_dir / "cache")
        wall = time.perf_counter() - t0
        if tracer is not None:
            layers.end_sweep(tracer, wall, stats, rep_dir)
        run.walls.append(wall)
        run.timings.append(timing)
        run.digests.append(_digest(result.to_dict()))
        shutil.rmtree(rep_dir)
        elapsed = time.perf_counter() - started
        if len(run.walls) >= MIN_PASSES and elapsed + wall > seconds:
            return run


# -- one run ----------------------------------------------------------------


@dataclass
class Report:
    tally: Tally
    metrics: "dict[str, tuple[float, str]]"
    lines: "list[str]"


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run(workload: Workload, *, seed: int, offset: int, seconds: float,
        trace: bool, count: "int | None", workdir: Path) -> Report:
    """Set up, measure and check one workload; ``trace`` selects the
    per-layer run (half the time untraced, half traced) over the
    end-to-end one."""
    from repro.experiments.scenarios import get_scenario

    seeds = seed_list(workload, seed, offset, count)
    tally = Tally()
    if trace:
        setup_times = None
        spec = prepare(workload, seeds, workdir)
    else:
        setup_times = measure_setup(workload, seeds, workdir)
        spec = get_scenario(workload.scenario)
    lines = [f"workload {workload.name}: {spec.name}, {len(spec.x_values)} "
             f"x values x {len(seeds)} seeds {seeds[0]}..{seeds[-1]}"]
    budget = seconds / 2 if trace else seconds
    if workload.fabric:
        plain, traced, tracer, rss = _fabric(spec, seeds, workdir, budget,
                                             trace, tally)
    else:
        plain, traced, tracer, rss = _serial(spec, seeds, workload, budget,
                                             trace, tally)
    if workload.golden is not None:
        check_golden(workload.golden, tally)

    if trace:
        metrics = layer_metrics(plain, traced, tracer)
        if tracer.fabric.workers_unreported:
            lines.append(f"{tracer.fabric.workers_unreported} fabric "
                         f"workers sent no compute-layer totals")
    else:
        metrics = end_to_end(plain, setup_times, rss, tally)
        lines.extend(_notes(plain, setup_times))
    return Report(tally=tally, metrics=metrics, lines=lines)


def _serial(spec, seeds, workload, budget, trace, tally):
    grid = [(xi, si, x, s) for xi, x in enumerate(spec.x_values)
            for si, s in enumerate(seeds)]
    expect: dict = {}
    plain = measure_serial(spec, grid, seeds, workload, budget, tally, expect)
    rss = peak_rss_mb()
    traced = tracer = None
    if trace:
        tracer = layers.Tracer()
        layers.install_compute(tracer)
        layers.install_sweep(tracer)
        try:
            traced = measure_serial(spec, grid, seeds, workload, budget,
                                    tally, expect, tracer)
        finally:
            tracer.uninstall()
    check_scalar_reference(spec, grid, plain.cells, tally)
    return plain, traced, tracer, rss


def _fabric(spec, seeds, workdir, budget, trace, tally):
    from repro.experiments import executor

    plain = measure_fabric(spec, seeds, workdir, budget)
    rss = peak_rss_mb()
    traced = tracer = None
    if trace:
        tracer = layers.Tracer()
        layers.install_sweep(tracer)
        try:
            traced = measure_fabric(spec, seeds, workdir, budget, tracer)
        finally:
            tracer.uninstall()
    serial, _timing = executor.execute_sweep(spec, seeds)
    want = _digest(serial.to_dict())
    for run_ in (plain, traced):
        if run_ is None:
            continue
        for timing, got in zip(run_.timings, run_.digests):
            tally.check(timing.cells_total, got == want,
                        "fabric merge vs serial merge")
    counts = plain.counts() | (traced.counts() if traced else set())
    tally.sane(len(counts) == 1,
               f"fabric cells/iterations/engine events differ between "
               f"sweeps: {sorted(counts)}")
    return plain, traced, tracer, rss


def _notes(plain, setup_times) -> "list[str]":
    raw_setup = statistics.median(raw for raw, _ref in setup_times)
    if isinstance(plain, SerialRun):
        _value, pct, n = tail(plain.scores())
        return [f"cell_tail_ms is p{pct:.1f} of {n} per-cell median "
                f"reference times over {plain.passes} passes",
                f"wall clock: {plain.raw_cells_per_s():.4g} cells/s with "
                f"every cell at its fastest pass; set-up {raw_setup:.4g} s"]
    computed = plain.timings[0].cells_computed
    return [f"cell_tail_ms is the median over {len(plain.walls)} sweeps of "
            f"p95 of {computed} worker-measured cell times",
            f"wall clock: {plain.raw_cells_per_s():.4g} cells/s in the "
            f"median sweep (x{plain.scale():.4f} to reference); "
            f"set-up {raw_setup:.4g} s"]


def end_to_end(plain, setup_times, rss, tally) -> dict:
    if isinstance(plain, SerialRun):
        scores = plain.scores()
        p50 = statistics.median(scores)
        tail_s = tail(scores)[0]
    else:
        p50 = statistics.median(t.cell_wall_p50 for t in plain.timings) \
            * plain.scale()
        tail_s = statistics.median(t.cell_wall_p95 for t in plain.timings) \
            * plain.scale()
    return {
        "cells_per_s": (plain.cells_per_s(), "1/s"),
        "cell_p50_ms": (p50 * 1000.0, "ms"),
        "cell_tail_ms": (tail_s * 1000.0, "ms"),
        "setup_s": (statistics.median(ref for _raw, ref in setup_times),
                    "s"),
        "peak_rss_mb": (rss, "MB"),
        "cells_ok_frac": ((tally.attempted - tally.failed) / tally.attempted
                          if tally.attempted else 0.0, "ratio"),
    }


def layer_metrics(plain, traced, tracer) -> dict:
    acc = tracer.acc
    if isinstance(traced, SerialRun):
        cells = len(traced.ref) * traced.passes
        records = sum(len(c.trace_events) for c in traced.cells.values())
        records_per_cell = records / len(traced.cells)
    else:
        cells = sum(t.cells_computed for t in traced.timings)
        records_per_cell = 0.0

    def ms(name):
        a = acc.get(name)
        return a.self_ns / 1e6 / cells if a is not None and cells else 0.0

    def per_cell(name):
        a = acc.get(name)
        return a.calls / cells if a is not None and cells else 0.0

    def frac(name):
        a = acc.get(name)
        return a.accepted / a.calls if a is not None and a.calls else 0.0

    watch = tracer.fabric
    values = {
        "platform.build_ms": ms("platform.build"),
        "load.rates_map_calls": per_cell("load.rates_map"),
        "load.rates_map_ms": ms("load.rates_map"),
        "load.compute_end_ms": ms("load.compute_end"),
        "load.kernel_compile_ms": ms("load.kernel_compile"),
        "simkernel.lower_ms": ms("simkernel.lower"),
        "core.decide_calls": per_cell("core.decide"),
        "core.decide_ms": ms("core.decide"),
        "core.swap_accept_frac": frac("core.decide"),
        "faults.compute_finish_calls": per_cell("faults.compute_finish"),
        "faults.compute_finish_ms": ms("faults.compute_finish"),
        "faults.recover_ms": ms("faults.recover"),
        "obs.records_per_cell": records_per_cell,
        "obs.fold_ms": ms("obs.fold"),
        "executor.compute_cell_ms": ms("executor.compute_cell"),
        "executor.plan_cells_ms": ms("executor.plan_cells"),
        "executor.cache_load_ms": ms("executor.cache_load"),
        "executor.cache_store_ms": ms("executor.cache_store"),
        "executor.cache_hit_frac": frac("executor.cache_load"),
        "executor.merge_ms": ms("executor.merge"),
        "fabric.coordinator_ms": ms("fabric.coordinator"),
        "fabric.fleet_start_ms": (watch.fleet_start_s * 1000.0 / watch.sweeps
                                  if watch.sweeps else 0.0),
        "fabric.lease_wait_ms": (watch.lease_wait_s * 1000.0 / watch.leases
                                 if watch.leases else 0.0),
        "fabric.frames": watch.frames / cells if watch.sweeps else 0.0,
        "fabric.requeues": (watch.requeues / watch.sweeps
                            if watch.sweeps else 0.0),
        "fabric.idle_frac": (1.0 - watch.worker_compute_s
                             / watch.worker_capacity_s
                             if watch.worker_capacity_s else 0.0),
        "trace.overhead_frac": plain.cells_per_s() / traced.cells_per_s()
        - 1.0,
    }
    for layer in ("nothing", "swap", "dlb", "cr"):
        values[f"strategies.{layer}.run_ms"] = ms(f"strategies.{layer}.run")
    return {name: (values[name], unit) for name, unit in PER_LAYER}
