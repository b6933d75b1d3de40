"""Sweep execution with a content-addressed cell cache.

A sweep is a grid of independent *cells*: one ``(x value, seed)`` pair,
inside which every variant runs back-to-back on one shared platform (the
paper's identical-environments methodology lives entirely *inside* a
cell).  Cells never communicate, so the executor can

* fan them out over worker processes (``jobs > 1``): that is a run of
  the coordinator/worker fabric (:mod:`repro.experiments.fabric`) over
  its ``process`` transport, with ``jobs`` workers.  The merged
  :class:`~repro.experiments.runner.SweepResult` stays **bit-identical**
  to the serial reference: a :class:`SweepFold` folds each cell in
  ``(x, seed)`` order as soon as its grid predecessors are in, so
  completion order is irrelevant, and floats cross process boundaries
  via pickle (exact) or JSON ``repr`` round-trips (also exact);
* skip cells whose results are already on disk.  The cache key
  (:func:`cell_digest`) is a SHA-256 over the scenario name, the spec
  fingerprint and the cell coordinates.  The fingerprint covers the
  model's source (:func:`code_digest`: every module of the package but
  the :data:`TOOLING`), so editing any code that can change a result
  -- a strategy, a load model, this module -- misses every cached cell,
  while editing a CLI, the fabric or an analyzer misses none.  The
  store is append-only: each writer appends its cells as ``<digest>
  <json>`` lines to a segment of its own, one per scenario
  (:class:`CellCache`), so storing a cell creates no file.  Entries that
  fail to parse or whose recorded digest does not match are treated as
  misses and recomputed, never trusted.

Both modes run through one envelope, :func:`sweep_envelope`; only the
*cell source* differs.  ``jobs=1`` executes ``compute_cell`` in-process,
in grid order -- the reference implementation the equivalence tests
compare against -- and the fabric's coordinator is the other source.
Every run also produces a :class:`SweepTiming` -- wall time, cells
computed vs. cache hits, simulated iterations, and kernel events per
second (via :func:`repro.simkernel.engine.events_processed_total`) --
which :func:`append_bench_record` folds into ``BENCH_sweeps.json``.
"""

from __future__ import annotations

import functools
import json
import os
import time
from dataclasses import dataclass, field
from hashlib import sha256
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Sequence
from urllib.parse import quote

import numpy as np

from repro import obs
from repro.errors import ExperimentError
from repro.experiments.runner import SeriesStats, SweepResult
from repro.experiments.scenarios import ExperimentSpec
from repro.obs.metrics import wall_stats
from repro.obs.trace import TraceRows
from repro.simkernel import engine as _engine
from repro.strategies.base import ExecutionResult

if TYPE_CHECKING:  # pragma: no cover - the runtime plane loads on demand
    from repro.obs.runtime import RunTelemetry

#: Cell payload schema tag, validated when an entry loads.  Cache keys
#: already cover this module's source, so a schema change needs no bump.
CACHE_FORMAT = 4

#: The context :func:`compute_cell` stamps onto each of a cell's trace
#: records; a loaded cell's rows hold it once per block.
CELL_CONTEXT = ("scenario", "x", "seed", "series")


# -- one cell ---------------------------------------------------------------


@dataclass
class CellResult:
    """Everything the deterministic merge needs from one ``(x, seed)`` cell."""

    labels: "list[str]"
    """Variant labels in builder order (the merge preserves this order)."""
    makespans: "dict[str, float]"
    events: "dict[str, float]"
    """Swaps + restarts per variant, as floats (matches the serial runner)."""
    iterations: int
    """Simulated iterations executed across all variants of the cell."""
    engine_events: int
    """Kernel events processed while computing the cell (0 for the purely
    analytic iteration-level simulators)."""
    trace_events: TraceRows = field(default_factory=TraceRows)
    """Structured :mod:`repro.obs` records, in execution order, held as
    rows (empty unless the cell was computed with ``instrument=True``).
    Iterating yields the record dicts."""
    metrics: dict = field(default_factory=dict)
    """The cell's :meth:`~repro.obs.MetricsRegistry.to_dict` payload
    (empty unless instrumented)."""

    def to_payload(self) -> dict:
        return {"labels": list(self.labels),
                "makespans": dict(self.makespans),
                "events": dict(self.events),
                "iterations": int(self.iterations),
                "engine_events": int(self.engine_events),
                "trace_events": list(self.trace_events),
                "metrics": dict(self.metrics)}

    @classmethod
    def from_payload(cls, payload: dict) -> "CellResult":
        labels = [str(label) for label in payload["labels"]]
        makespans = {str(k): float(v) for k, v in payload["makespans"].items()}
        events = {str(k): float(v) for k, v in payload["events"].items()}
        if set(labels) != set(makespans) or set(labels) != set(events):
            raise ValueError("cell payload labels disagree with its series")
        return cls(labels=labels, makespans=makespans, events=events,
                   iterations=int(payload["iterations"]),
                   engine_events=int(payload["engine_events"]),
                   trace_events=TraceRows.from_records(
                       payload.get("trace_events", ()), CELL_CONTEXT),
                   metrics=dict(payload.get("metrics", {})))


def compute_cell(spec: ExperimentSpec, x: float, seed: int, *,
                 instrument: bool = False) -> CellResult:
    """Run every variant of one cell (the serial reference, and the
    function worker processes execute).

    With ``instrument=True`` the cell runs under its own
    :class:`~repro.obs.ObsSession`: every record is stamped with the
    cell's coordinates and variant label, and the session's records and
    metrics ride back in the :class:`CellResult` (picklable, cacheable),
    so the executor can merge them deterministically in grid order.
    """
    events_before = _engine.events_processed_total()
    platform, variants = spec.build(x, seed)
    labels = [label for label, _app, _strategy in variants]
    if len(set(labels)) != len(labels):
        raise ExperimentError(
            f"{spec.name}: duplicate variant labels {labels}")
    makespans: "dict[str, float]" = {}
    events: "dict[str, float]" = {}
    iterations = 0
    session = obs.ObsSession() if instrument else None
    for label, app, strategy in variants:
        if session is not None:
            session.trace.set_context(**dict(zip(
                CELL_CONTEXT, (spec.name, float(x), int(seed), label))))
            with obs.observing(session):
                result: ExecutionResult = strategy.run(platform, app)
        else:
            result = strategy.run(platform, app)
        makespans[label] = result.makespan
        events[label] = float(result.swap_count + result.restart_count)
        iterations += result.iteration_count
    return CellResult(labels=labels, makespans=makespans, events=events,
                      iterations=iterations,
                      engine_events=(_engine.events_processed_total()
                                     - events_before),
                      trace_events=(session.trace.take()
                                    if session is not None else TraceRows()),
                      metrics=(session.metrics.to_dict()
                               if session is not None else {}))


# -- content addressing -----------------------------------------------------


#: The modules and subpackages that computing a cell never loads: the
#: analyzers, the fabric, the CLIs, the report writers and the runtime
#: plane.  The rest of the package is the model.
TOOLING = ("repro.analysis", "repro.experiments.__main__",
           "repro.experiments.cli", "repro.experiments.fabric",
           "repro.experiments.illustrations", "repro.experiments.report",
           "repro.experiments.svgplot", "repro.experiments.timeline",
           "repro.obs.__main__", "repro.obs.analyze", "repro.obs.report",
           "repro.obs.runtime")

_PACKAGE = Path(__file__).resolve().parents[1]


def _model_sources() -> "dict[str, str]":
    """Module name -> package-relative source path, for the model."""
    sources = {}
    for path in _PACKAGE.rglob("*.py"):
        parts = path.relative_to(_PACKAGE.parent).with_suffix("").parts
        name = ".".join(parts[:-1] if parts[-1] == "__init__" else parts)
        if not any(name == tool or name.startswith(tool + ".")
                   for tool in TOOLING):
            sources[name] = path.relative_to(_PACKAGE).as_posix()
    if not sources:
        raise ExperimentError(f"no model sources under {_PACKAGE}")
    return sources


def model_modules() -> "tuple[str, ...]":
    """The model, sorted: every ``repro`` module but the :data:`TOOLING`.

    Everything that can change a simulated number or a traced byte is in
    it (``tests/simkernel/test_rng.py`` checks it is exactly what
    computing cells loads).  The static analyzers judge this set, and
    :func:`code_digest` hashes it.
    """
    return tuple(sorted(_model_sources()))


@functools.lru_cache(maxsize=None)
def code_digest() -> str:
    """SHA-256 over each model module's package-relative path and
    bytes, in path order, once per process.  A source file that cannot
    be read raises: the digest never covers less than the model."""
    hasher = sha256()
    for path in sorted(_model_sources().values()):
        source = (_PACKAGE / path).read_bytes()
        hasher.update(b"%s\x00%d\x00" % (path.encode(), len(source)))
        hasher.update(source)
    return hasher.hexdigest()


def cell_digest(scenario: str, fingerprint: str, x: float, seed: int, *,
                instrumented: bool = False) -> str:
    """The cache key of one cell.

    ``repr(float(x))`` is the shortest round-tripping spelling, so the key
    is stable across processes and handles non-finite grids (``inf`` in
    the payback ablation).  Instrumented cells carry trace/metrics
    payloads that plain cells lack, so the flag participates in the key --
    a traced run never "hits" an untraced entry (which would silently
    drop its records) and vice versa.  The fingerprint carries the
    model's :func:`code_digest`, so the key changes with any model code.
    """
    hasher = sha256()
    for part in (scenario, fingerprint, repr(float(x)), str(int(seed)),
                 "obs" if instrumented else ""):
        hasher.update(part.encode("utf-8"))
        hasher.update(b"\x00")
    return hasher.hexdigest()


class CellCache:
    """Content-addressed on-disk store of computed sweep cells.

    Layout: ``<root>/<scenario>.cells/<pid>-<random>.seg``.  Each writer
    (one ``CellCache`` object) appends to its own *segment* per
    scenario, created ``O_EXCL`` on its first :meth:`store` and kept
    open until :meth:`close`; an entry is one line, ``<digest> <json>``,
    written by one ``os.write``.  Writers never share a file, so
    concurrent sweeps over one root need no locking, and storing a cell
    costs an append, not a new file.

    :meth:`load` reads a scenario's segments once per cache object into
    a digest -> raw-line index and parses JSON only on a hit.  Entries
    embed their own digest and schema version, which :meth:`load`
    re-validates with the payload structure, so a truncated, garbled or
    foreign line is a cache miss, not a wrong answer.  A line counts
    only once its newline is written: an unfinished tail (a writer that
    died mid-append) is skipped.  Since the digest covers the model's
    source, an entry computed by since-edited model code is never hit.
    """

    def __init__(self, root: "str | os.PathLike", *,
                 telemetry=None) -> None:
        self.root = Path(root)
        #: Optional :class:`repro.obs.runtime.RunTelemetry`; when set,
        #: every load/store is logged as a wall-clock ``cache.*`` span.
        #: Telemetry never changes what the cache returns.
        self.telemetry = telemetry
        #: Per scenario: digest -> candidate entry bodies, in segment
        #: order (a digest stored twice, or once garbled, has several).
        self._index: "dict[str, dict[bytes, list[bytes]]]" = {}
        #: Per scenario: this writer's open segment.
        self._segments: "dict[str, int]" = {}

    def _partition(self, scenario: str) -> Path:
        # Percent-quoted, so no scenario name reaches outside the root.
        return self.root / f"{quote(scenario, safe='')}.cells"

    def load(self, digest: str, *, scenario: str) -> "CellResult | None":
        if self.telemetry is None:
            return self._load(digest, scenario)
        started = self.telemetry.now()
        cell = self._load(digest, scenario)
        self.telemetry.event("cache.load", t=started,
                             dur=self.telemetry.now() - started,
                             digest=digest[:12], hit=cell is not None)
        return cell

    def _load(self, digest: str, scenario: str) -> "CellResult | None":
        index = self._index.get(scenario)
        if index is None:
            index = self._index[scenario] = self._read_index(scenario)
        for body in index.get(digest.encode(), ()):
            try:
                payload = json.loads(body)
                if (payload["digest"] == digest
                        and payload["format"] == CACHE_FORMAT):
                    return CellResult.from_payload(payload["cell"])
            except (KeyError, TypeError, ValueError, AttributeError):
                pass
        return None

    def _read_index(self, scenario: str) -> "dict[bytes, list[bytes]]":
        index: "dict[bytes, list[bytes]]" = {}
        partition = self._partition(scenario)
        try:
            names = sorted(os.listdir(partition))
        except OSError:
            return index
        for name in names:
            if not name.endswith(".seg"):
                continue
            try:
                data = (partition / name).read_bytes()
            except OSError:
                continue
            # The last piece has no newline: empty, or an unfinished append.
            for line in data.split(b"\n")[:-1]:
                key, _sep, body = line.partition(b" ")
                index.setdefault(key, []).append(body)
        return index

    def store(self, digest: str, cell: CellResult, *, scenario: str,
              x: float, seed: int) -> None:
        """Append one cell to this writer's segment for ``scenario``."""
        if self.telemetry is None:
            self._store(digest, cell, scenario=scenario, x=x, seed=seed)
            return
        with self.telemetry.span("cache.store", digest=digest[:12],
                                 x=x, seed=seed):
            self._store(digest, cell, scenario=scenario, x=x, seed=seed)

    def _store(self, digest: str, cell: CellResult, *, scenario: str,
               x: float, seed: int) -> None:
        payload = {"format": CACHE_FORMAT, "digest": digest,
                   "scenario": scenario, "x": x, "seed": seed,
                   "cell": cell.to_payload()}
        key = digest.encode()
        body = json.dumps(payload, sort_keys=True).encode()
        fd = self._segments.get(scenario)
        if fd is None:
            fd = self._segments[scenario] = self._open_segment(scenario)
        line = memoryview(b"%s %s\n" % (key, body))
        try:
            while line:  # one write; a short one (disk full) finishes it
                line = line[os.write(fd, line):]
        except OSError:
            # A torn line must not swallow the next entry: the next
            # store starts a fresh segment.
            del self._segments[scenario]
            os.close(fd)
            raise
        index = self._index.get(scenario)
        if index is not None:
            index.setdefault(key, []).append(body)

    def _open_segment(self, scenario: str) -> int:
        partition = self._partition(scenario)
        partition.mkdir(parents=True, exist_ok=True)
        while True:
            name = f"{os.getpid()}-{os.urandom(4).hex()}.seg"
            try:
                return os.open(partition / name,
                               os.O_WRONLY | os.O_CREAT | os.O_EXCL
                               | os.O_APPEND, 0o644)
            except FileExistsError:
                continue

    def close(self) -> None:
        """Close this writer's segments; a later :meth:`store` opens a
        fresh one."""
        for fd in self._segments.values():
            os.close(fd)
        self._segments.clear()


# -- timing record ----------------------------------------------------------


@dataclass(frozen=True)
class SweepTiming:
    """Machine-readable performance record of one sweep execution.

    ``iterations`` and ``engine_events`` count only the cells *computed*
    in this run -- cache hits did no simulation work.
    """

    scenario: str
    jobs: int
    wall_time: float
    cells_total: int
    cells_computed: int
    cache_hits: int
    iterations: int
    engine_events: int
    x_points: int
    seeds: int
    mode: str = "pool"
    """Execution backend: ``"pool"`` (the in-process ``jobs=1`` run; the
    name predates the fabric) or ``"fabric"`` (coordinator + workers,
    :mod:`.fabric`, every ``jobs > 1`` run)."""
    cell_wall_p50: float = 0.0
    """Median wall seconds per *computed* cell (0.0 when every cell was
    a cache hit).  Measured inside the computing process."""
    cell_wall_p95: float = 0.0
    cell_wall_max: float = 0.0

    @property
    def cells_per_sec(self) -> float:
        return self.cells_computed / self.wall_time if self.wall_time > 0 else 0.0

    @property
    def events_per_sec(self) -> float:
        """Kernel event throughput (``Simulator.processed_events`` deltas)."""
        return self.engine_events / self.wall_time if self.wall_time > 0 else 0.0

    @property
    def iterations_per_sec(self) -> float:
        return self.iterations / self.wall_time if self.wall_time > 0 else 0.0

    def to_dict(self) -> dict:
        return {
            "scenario": self.scenario,
            "mode": self.mode,
            "jobs": self.jobs,
            "wall_time_s": self.wall_time,
            "cells_total": self.cells_total,
            "cells_computed": self.cells_computed,
            "cache_hits": self.cache_hits,
            "iterations": self.iterations,
            "engine_events": self.engine_events,
            "x_points": self.x_points,
            "seeds": self.seeds,
            "cells_per_sec": self.cells_per_sec,
            "events_per_sec": self.events_per_sec,
            "iterations_per_sec": self.iterations_per_sec,
            "cell_wall_p50_s": self.cell_wall_p50,
            "cell_wall_p95_s": self.cell_wall_p95,
            "cell_wall_max_s": self.cell_wall_max,
        }


#: Distinguishes concurrent same-process writers of one bench file.
_BENCH_TMP_SEQ = iter(range(1, 1 << 62))


def append_bench_record(path: "str | os.PathLike",
                        timing: SweepTiming) -> dict:
    """Fold one timing record into a ``BENCH_sweeps.json`` file.

    Records are keyed by ``(scenario, mode, jobs)``; the latest run wins,
    and the file stays sorted so diffs across commits read as a
    trajectory.  Document version 4 added the per-cell wall-time
    percentile columns (``cell_wall_p50_s``/``p95``/``max``); legacy
    version-2/3 records still parse (they simply lack those keys, and
    pre-version-3 records default to mode ``"pool"``).  The write is
    atomic (temp file + ``os.replace``), so a reader -- or a concurrent
    sweep invocation -- never observes a half-written file; an existing file
    that fails to parse is preserved next to the new one (``.corrupt``
    suffix) rather than silently destroyed.  Returns the document
    written.
    """
    path = Path(path)
    records: "dict[tuple[str, str, int], dict]" = {}
    try:
        text = path.read_text()
    except OSError:
        text = None
    if text is not None:
        try:
            for record in json.loads(text)["records"]:
                record.setdefault("mode", "pool")
                records[(str(record["scenario"]), str(record["mode"]),
                         int(record["jobs"]))] = record
        except (ValueError, TypeError, KeyError, AttributeError):
            # Unparseable perf file: keep the evidence, start fresh.
            path.with_name(f"{path.name}.corrupt").write_text(text)
            records = {}
    record = timing.to_dict()
    records[(record["scenario"], record["mode"], record["jobs"])] = record
    doc = {"version": 4, "tool": "sweep-bench",
           "records": [records[key] for key in sorted(records)]}
    path.parent.mkdir(parents=True, exist_ok=True)
    # Unique per process *and* per call: concurrent appenders (processes
    # or threads) each replace a complete document, never share a temp.
    tmp = path.with_name(
        f"{path.name}.tmp{os.getpid()}-{next(_BENCH_TMP_SEQ)}")
    tmp.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    os.replace(tmp, path)
    return doc


# -- the executor -----------------------------------------------------------


#: One not-yet-computed cell: grid coordinates, values, and cache digest
#: (``""`` when caching is off).
PendingCell = "tuple[int, int, float, int, str]"


def plan_cells(spec: ExperimentSpec, seed_list: "list[int]",
               cache: "CellCache | None", *, instrument: bool = False,
               on_point: "Callable[[float, int], None] | None" = None,
               ) -> "tuple[dict[tuple[int, int], CellResult], list[PendingCell]]":
    """Grid-order cache scan of a sweep (:func:`sweep_envelope` runs it).

    Returns ``(cells, pending)``: the cache hits keyed by ``(xi, si)``
    and the grid-ordered list of cells still to compute (with the digest
    each result should be stored under).  ``on_point`` fires once per
    cell -- hit or miss -- in grid order.
    """
    fingerprint = spec.fingerprint() if cache is not None else ""
    cells: "dict[tuple[int, int], CellResult]" = {}
    pending: "list[PendingCell]" = []
    for xi, x in enumerate(spec.x_values):
        for si, seed in enumerate(seed_list):
            if on_point is not None:
                on_point(x, seed)
            digest = ""
            if cache is not None:
                digest = cell_digest(spec.name, fingerprint, x, seed,
                                     instrumented=instrument)
                cached = cache.load(digest, scenario=spec.name)
                if cached is not None:
                    cells[(xi, si)] = cached
                    continue
            pending.append((xi, si, x, seed, digest))
    return cells, pending


def cell_failure(spec: ExperimentSpec, x: float, seed: int,
                 exc: BaseException) -> ExperimentError:
    """The error raised when one cell's computation fails.

    Always carries the cell's full coordinates -- ``(scenario, x, seed)``
    -- so a failure deep inside a worker process (or a fabric worker on
    another machine) is attributable without re-running the sweep.
    """
    return ExperimentError(
        f"{spec.name}: cell (x={x!r}, seed={seed}) failed: "
        f"{type(exc).__name__}: {exc}")


class SweepFold:
    """Folds a sweep's cells into its result in grid order, as they arrive.

    :meth:`add` takes cells in any order, each once: a cell that arrives
    ahead of a grid predecessor waits in ``buffer``, and every cell is
    folded, then dropped, once the cells before it are in.  Folding is
    the serial runner's aggregation loop (per x, makespans in seed
    order; series in first-encounter order) plus, with an
    ``obs_session``, each cell's records and metrics, so every export is
    byte-identical however the cells arrive.  For :class:`SweepTiming`,
    the fold also sums the cells computed in this run.
    """

    def __init__(self, spec: ExperimentSpec, seed_list: "list[int]",
                 obs_session: "obs.ObsSession | None" = None) -> None:
        self.spec = spec
        self.seed_list = seed_list
        self.obs_session = obs_session
        self.total = len(spec.x_values) * len(seed_list)
        #: Cells folded: the grid index (``xi * seeds + si``) of the next.
        self.folded = 0
        #: Cells that arrived ahead of a grid predecessor, by grid index.
        self.buffer: "dict[int, CellResult]" = {}
        self._series: "dict[str, SeriesStats]" = {}
        #: The open x value's makespans and events, per label.
        self._makespans: "dict[str, list[float]]" = {}
        self._events: "dict[str, list[float]]" = {}
        self.computed = self.iterations = self.engine_events = 0
        self.walls: "list[float]" = []

    def add(self, xi: int, si: int, cell: CellResult, *,
            computed: bool = True, wall: "float | None" = None) -> bool:
        """Take cell ``(xi, si)``; False if taken before (the first copy
        wins).  ``computed=False`` marks a cell this run did not compute;
        ``wall`` is the compute seconds, when known."""
        index = xi * len(self.seed_list) + si
        if index < self.folded or index in self.buffer:
            return False
        if computed:
            self.computed += 1
            self.iterations += cell.iterations
            self.engine_events += cell.engine_events
            if wall is not None:
                self.walls.append(wall)
        self.buffer[index] = cell
        while self.folded in self.buffer:
            self._fold(self.buffer.pop(self.folded))
            self.folded += 1
        return True

    def _fold(self, cell: CellResult) -> None:
        for label in cell.labels:
            self._makespans.setdefault(label, []).append(
                cell.makespans[label])
            self._events.setdefault(label, []).append(cell.events[label])
        if self.obs_session is not None:
            if self.obs_session.trace is not None:
                self.obs_session.trace.extend(cell.trace_events)
            self.obs_session.metrics.merge_dict(cell.metrics)
        if (self.folded + 1) % len(self.seed_list):
            return
        # The x value's last seed: close its statistics.
        for label, makespans in self._makespans.items():
            stats = self._series.setdefault(label, SeriesStats())
            stats.mean.append(float(np.mean(makespans)))
            stats.std.append(float(np.std(makespans)))
            stats.raw.append(makespans)
            stats.swap_counts.append(float(np.mean(self._events[label])))
        self._makespans, self._events = {}, {}

    def result(self) -> SweepResult:
        """The merged :class:`SweepResult`, once every cell is folded."""
        spec = self.spec
        if self.folded < self.total:
            raise ExperimentError(
                f"{spec.name}: {self.total - self.folded} of {self.total} "
                f"cells never reached the merge")
        lengths = {label: len(s.mean) for label, s in self._series.items()}
        if len(set(lengths.values())) != 1:
            raise ExperimentError(
                f"{spec.name}: ragged series lengths {lengths} -- a variant "
                f"was not produced at every x value")
        return SweepResult(name=spec.name, title=spec.title,
                           xlabel=spec.xlabel, x_values=list(spec.x_values),
                           series=self._series, seeds=self.seed_list,
                           paper_claim=spec.paper_claim)


def _fold_grid(fold: SweepFold,
               cells: "dict[tuple[int, int], CellResult]") -> SweepFold:
    for xi in range(len(fold.spec.x_values)):
        for si in range(len(fold.seed_list)):
            fold.add(xi, si, cells[(xi, si)], computed=False)
    return fold


def merge_cells(spec: ExperimentSpec, seed_list: "list[int]",
                cells: "dict[tuple[int, int], CellResult]") -> SweepResult:
    """:class:`SweepFold`'s result for a dict of cells keyed ``(xi, si)``."""
    return _fold_grid(SweepFold(spec, seed_list), cells).result()


def fold_obs(obs_session: "obs.ObsSession", spec: ExperimentSpec,
             seed_list: "list[int]",
             cells: "dict[tuple[int, int], CellResult]") -> None:
    """Fold a dict of cells' records and metrics into ``obs_session``,
    as :class:`SweepFold` does."""
    _fold_grid(SweepFold(spec, seed_list, obs_session), cells)


def sweep_envelope(spec: ExperimentSpec,
                   seeds: "Sequence[int] | int | None",
                   source: "Callable[..., None]", *, jobs: int, mode: str,
                   cache_dir: "str | os.PathLike | None",
                   on_point: "Callable[[float, int], None] | None",
                   obs_session: "obs.ObsSession | None",
                   runtime_dir: "str | os.PathLike | None",
                   progress: bool, progress_stream=None,
                   ) -> "tuple[SweepResult, SweepTiming]":
    """Run one sweep around a cell source: the in-process loop
    (``mode="pool"``) or the fabric's coordinator (``"fabric"``).
    ``source(fold, pending, cache, telemetry)`` computes every pending
    cell and hands each to the :class:`SweepFold` after storing it in
    ``cache`` (when set).

    Normalises the seeds, sets up the runtime plane and finalises it
    (on success and on failure), opens and closes the cache, plans the
    cells (hits go straight to the :class:`SweepFold`), and builds the
    :class:`SweepTiming` and the ``runtime.*`` cell counters.
    """
    if seeds is None:
        seeds = range(spec.default_seeds)
    elif isinstance(seeds, int):
        seeds = range(seeds)
    seed_list = list(seeds)
    if not seed_list:
        raise ExperimentError("need at least one seed")
    cells_total = len(spec.x_values) * len(seed_list)
    telemetry = None
    if runtime_dir is not None or progress:
        # The runtime plane is tooling: a plain sweep never imports it.
        from repro.obs.runtime import RunTelemetry

        telemetry = RunTelemetry(
            runtime_dir, progress=progress, total_cells=cells_total,
            role="executor" if mode == "pool" else "coordinator",
            progress_stream=progress_stream)
    started = time.perf_counter()
    fold = SweepFold(spec, seed_list, obs_session)
    cache = (CellCache(cache_dir, telemetry=telemetry)
             if cache_dir is not None else None)
    try:
        hits, pending = plan_cells(spec, seed_list, cache,
                                   instrument=obs_session is not None,
                                   on_point=on_point)
        for key in list(hits):  # handed over, not kept
            fold.add(*key, hits.pop(key), computed=False)
        cache_hits = cells_total - len(pending)
        if telemetry is not None:
            telemetry.progress.cache_hits = cache_hits
            telemetry.event("run.start", scenario=spec.name, jobs=jobs,
                            cells_total=cells_total, pending=len(pending),
                            cache_hits=cache_hits)
            telemetry.tick(cache_hits, force=True)
        source(fold, pending, cache, telemetry)
        result = fold.result()
    except BaseException:
        if telemetry is not None:
            telemetry.finalize(state="failed")
        raise
    finally:
        if cache is not None:
            cache.close()
    wall = time.perf_counter() - started
    stats = wall_stats(fold.walls)
    timing = SweepTiming(
        scenario=spec.name, jobs=jobs, wall_time=wall,
        cells_total=cells_total, cells_computed=fold.computed,
        cache_hits=cache_hits, iterations=fold.iterations,
        engine_events=fold.engine_events, x_points=len(spec.x_values),
        seeds=len(seed_list), mode=mode, cell_wall_p50=stats["p50"],
        cell_wall_p95=stats["p95"], cell_wall_max=stats["max"])
    if telemetry is not None:
        telemetry.finalize(done=cells_total)
    return result, timing


def _compute_in_process(fold: SweepFold, pending: "list[PendingCell]",
                        cache: "CellCache | None",
                        telemetry: "RunTelemetry | None") -> None:
    """The reference cell source: every pending cell, in grid order, in
    this process.  Each is folded at once and dropped, so one computed
    cell is alive at a time."""
    spec, instrument = fold.spec, fold.obs_session is not None
    for done, (xi, si, x, seed, digest) in enumerate(
            pending, start=fold.total - len(pending) + 1):
        # Wall time feeds the per-cell percentiles of SweepTiming and
        # the runtime plane, never the deterministic CellResult.
        cell_started = time.perf_counter()
        try:
            cell = compute_cell(spec, x, seed, instrument=instrument)
        except Exception as exc:
            raise cell_failure(spec, x, seed, exc) from exc
        wall = time.perf_counter() - cell_started
        if telemetry is not None:
            telemetry.event("cell.compute", t=telemetry.now() - wall,
                            dur=wall, xi=xi, si=si, x=x, seed=seed)
        if cache is not None:
            cache.store(digest, cell, scenario=spec.name, x=x, seed=seed)
        fold.add(xi, si, cell, wall=wall)
        del cell
        if telemetry is not None:
            telemetry.tick(done, active_workers=1)


def execute_sweep(spec: ExperimentSpec,
                  seeds: "Sequence[int] | int | None" = None,
                  *,
                  jobs: int = 1,
                  cache_dir: "str | os.PathLike | None" = None,
                  on_point: "Callable[[float, int], None] | None" = None,
                  obs_session: "obs.ObsSession | None" = None,
                  runtime_dir: "str | os.PathLike | None" = None,
                  progress: bool = False,
                  ) -> "tuple[SweepResult, SweepTiming]":
    """Run a sweep over its ``(x, seed)`` cells and merge deterministically.

    Parameters
    ----------
    spec:
        The scenario to run.
    seeds:
        An iterable of seeds, an int (``range(seeds)``), or None
        (``range(spec.default_seeds)``).
    jobs:
        Worker processes.  ``1`` (the default) runs every cell in-process
        in grid order -- the reference implementation.  ``jobs > 1`` is
        a fabric run (:func:`~repro.experiments.fabric.
        execute_sweep_fabric`) over ``jobs`` process-transport workers,
        and requires the spec's builder to be picklable (a module-level
        function, as all registered scenarios are).
    cache_dir:
        Root of the content-addressed cell cache, or None to disable
        caching.  Only cells missing from the cache are computed.
    on_point:
        Progress callback invoked as ``on_point(x, seed)`` once per cell
        (including cache hits), in grid order, before any cell executes.
    obs_session:
        Observation sink (:class:`repro.obs.ObsSession`), or None (the
        default: zero instrumentation).  When given, every cell runs
        instrumented and its trace records / metrics are folded into the
        session **in grid order**, so the merged trace and registry are
        byte-identical for any ``jobs`` / cache configuration.
    runtime_dir:
        Run directory for the *runtime* telemetry plane
        (:mod:`repro.obs.runtime`): wall-clock span log, progress
        file, and the derived Chrome timeline.  None (the default)
        records nothing.  The deterministic outputs above are
        byte-identical either way.
    progress:
        Print a live progress ticker (cells done/total, cache hits,
        ETA) to stderr while the sweep runs.

    Returns
    -------
    (result, timing):
        The merged sweep result -- bit-identical to the serial run for
        any ``jobs`` / cache state -- and its performance record.
    """
    if jobs < 1:
        raise ExperimentError(f"jobs must be >= 1, got {jobs}")
    if jobs > 1:
        from repro.experiments.fabric import execute_sweep_fabric

        return execute_sweep_fabric(
            spec, seeds, workers=jobs, transport="process",
            cache_dir=cache_dir, on_point=on_point, obs_session=obs_session,
            runtime_dir=runtime_dir, progress=progress)[:2]
    return sweep_envelope(spec, seeds, _compute_in_process, jobs=1,
                          mode="pool", cache_dir=cache_dir,
                          on_point=on_point, obs_session=obs_session,
                          runtime_dir=runtime_dir, progress=progress)
