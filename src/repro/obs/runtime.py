"""The runtime telemetry plane: wall-clock spans, fleet timelines, progress.

:mod:`repro.obs` has **two planes** (docs/OBSERVABILITY.md, "Two
planes"):

* the *sim-time plane* (:mod:`repro.obs.trace`, :mod:`repro.obs.metrics`)
  -- every timestamp is simulated seconds, exports are byte-stable, and
  CI compares them byte-for-byte across reruns, worker counts, and cache
  states;
* the *runtime plane* (this module) -- explicitly **nondeterministic**
  wall-clock telemetry of the sweep machinery itself: where host time
  goes, which fabric worker is straggling, why a lease expired.  Nothing
  here may ever feed back into a simulation result; the sim-time plane
  stays digest-identical whether runtime telemetry is on or off
  (``ci/determinism.sh`` enforces exactly that).

The span file is the plane's one record: a lease, a revocation, a
launch, a worker's exit and a computed cell are each a span, so counts
and lifetimes are read from it (``runtime-summary``) rather than kept a
second time.  The plane has three parts:

* :class:`RuntimeRecorder` -- a structured wall-clock event log.  The
  run's own process -- the serial executor or the fabric coordinator --
  is its only writer: it appends JSONL records to ``spans.jsonl`` in the
  *run directory*, flushed per line so a follower sees them live.  A
  fabric worker writes nothing; the coordinator records each worker's
  cells from their ``CELL_RESULT`` messages.
* :func:`fleet_timeline` / :func:`wall_summary` -- render a run's span
  file as a Chrome trace-event document (one lane for the run, one per
  fabric worker) and nearest-rank wall-time percentiles per span kind.
* :class:`ProgressTicker` -- live progress: a run-side ticker (cells
  done/total, cache hits, active workers, stragglers, ETA) that also
  maintains an atomically-replaced ``progress.json`` so
  ``python -m repro.obs tail RUN_DIR`` can follow out-of-band.

Record schema (one JSON object per line, key-sorted)::

    {"kind": "<dotted.kind>",      # e.g. "lease.assign", "cell.compute"
     "seq": 3,                     # monotone sequence number
     "t": 12345.678,               # time.monotonic() seconds
     "dur": 0.012,                 # span duration (spans only)
     "pid": 4242, "role": "coordinator" | "executor",
     "worker_id": "w0",            # records about one fabric worker
     ...}                          # kind-specific fields

The first record is ``runtime.meta`` and additionally carries ``unix``
(``time.time()``) and ``schema``, anchoring the monotonic clock to the
wall clock.  One process writes every record, so all ``t`` share one
monotonic epoch.
"""

from __future__ import annotations

import json
import os
import sys
import time
from contextlib import nullcontext
from pathlib import Path
from typing import Any, Callable, TextIO

from repro.obs.analyze import TraceSet
from repro.obs.metrics import wall_stats
from repro.obs.trace import jsonable

#: Schema version stamped into every ``runtime.meta`` record.
RUNTIME_SCHEMA = 2

#: The span file inside a run directory.
SPAN_FILE = "spans.jsonl"


# -- the recorder -----------------------------------------------------------


class RuntimeRecorder:
    """Append wall-clock telemetry records to one JSONL span file.

    One recorder per run, owned by the run's process: the fabric
    coordinator or the serial ``jobs=1`` executor (``role``).  Records
    are flushed per line so a crash loses at most the record being
    written (the loader tolerates a torn final line) and a live follower
    sees events as they happen.
    """

    def __init__(self, path: "str | os.PathLike", *, role: str,
                 clock: "Callable[[], float]" = time.monotonic,
                 unix_clock: "Callable[[], float]" = time.time) -> None:
        self.path = Path(path)
        self.role = role
        self._clock = clock
        self._seq = 0
        self._fh: "TextIO | None" = open(self.path, "a", buffering=1,
                                         encoding="utf-8")
        self.event("runtime.meta", schema=RUNTIME_SCHEMA, unix=unix_clock())

    def now(self) -> float:
        return self._clock()

    def event(self, kind: str, *, t: "float | None" = None,
              dur: "float | None" = None, **fields: Any) -> None:
        """Append one record (an instant, or a span when ``dur`` given)."""
        if self._fh is None:
            return
        record = {key: jsonable(value) for key, value in fields.items()}
        # Structural keys win over same-named payload fields; a record
        # about one fabric worker names it in ``worker_id``.
        record.update(kind=str(kind), seq=self._seq,
                      t=float(t) if t is not None else self._clock(),
                      pid=os.getpid(), role=self.role)
        if dur is not None:
            record["dur"] = float(dur)
        self._seq += 1
        self._fh.write(json.dumps(record, sort_keys=True,
                                  separators=(",", ":")) + "\n")

    def span(self, kind: str, **fields: Any) -> "_Span":
        """Context manager measuring a wall-clock span::

            with recorder.span("cell.compute", x=2.0, seed=7):
                compute()
        """
        return _Span(self, kind, fields)

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None


class _Span:
    __slots__ = ("_recorder", "_kind", "_fields", "_start")

    def __init__(self, recorder: RuntimeRecorder, kind: str,
                 fields: dict) -> None:
        self._recorder = recorder
        self._kind = kind
        self._fields = fields

    def __enter__(self) -> "_Span":
        self._start = self._recorder.now()
        return self

    def __exit__(self, *exc_info) -> None:
        end = self._recorder.now()
        self._recorder.event(self._kind, t=self._start,
                             dur=end - self._start, **self._fields)


# -- reading the span file back -----------------------------------------------


def load_spans(run_dir: "str | os.PathLike") -> TraceSet:
    """A run directory's span records (empty when none were written).

    Unparseable lines -- a crash can tear the last one -- are collected
    in ``bad_lines`` rather than raised.
    """
    path = Path(run_dir) / SPAN_FILE
    return TraceSet.load(path) if path.exists() else TraceSet([])


def _lane(record: dict) -> "tuple[int, str]":
    """A record's timeline lane: the worker it names, else the run's."""
    worker = record.get("worker_id")
    if isinstance(worker, str):
        return (1, f"worker {worker}")
    return (0, str(record.get("role", "?")))


def lanes(spans: TraceSet) -> "list[str]":
    """Lane names, the run's lane first, then workers in id order."""
    return [name for _order, name in sorted({_lane(r) for r in spans})]


# -- fleet timeline (Chrome trace-event export) -----------------------------


def fleet_timeline(spans: TraceSet) -> dict:
    """Render runtime spans as a Chrome trace-event document.

    One ``pid`` (lane) for the run -- its start and end, cache I/O --
    and one per fabric worker, holding every record that names it in
    ``worker_id`` (its launch, leases, cells and exit), so
    chrome://tracing / ui.perfetto.dev shows the fleet as parallel
    swimlanes.  Records with ``dur`` become complete ("X") slices; the
    rest become instant events.
    """
    pids = {name: pid for pid, name in enumerate(lanes(spans))}
    timed = []
    for record in spans:
        try:
            timed.append((float(record["t"]), record))
        except (KeyError, TypeError, ValueError):
            continue
    base = min((t for t, _record in timed), default=0.0)

    events: "list[dict]" = [{"ph": "M", "name": "process_name", "pid": pid,
                             "tid": 0, "ts": 0, "args": {"name": name}}
                            for name, pid in pids.items()]
    for t, record in timed:
        if record.get("kind") == "runtime.meta":
            continue
        args = {k: v for k, v in record.items()
                if k not in ("kind", "t", "dur", "pid", "role", "seq")}
        common = {"name": str(record["kind"]), "cat": "runtime",
                  "pid": pids[_lane(record)[1]], "tid": 0,
                  "ts": (t - base) * 1e6, "args": args}
        dur = record.get("dur")
        if isinstance(dur, (int, float)):
            events.append({"ph": "X", "dur": float(dur) * 1e6, **common})
        else:
            events.append({"ph": "i", "s": "t", **common})
    return {"traceEvents": events, "displayTimeUnit": "ms",
            "otherData": {"tool": "repro.obs.runtime",
                          "clock": "host-wall-seconds",
                          "schema": RUNTIME_SCHEMA}}


def write_fleet_timeline(run_dir: "str | os.PathLike",
                         out: "str | os.PathLike | None" = None) -> Path:
    """Export ``run_dir``'s span file as a Chrome trace; returns the path."""
    run_dir = Path(run_dir)
    out = Path(out) if out is not None else run_dir / "timeline.trace.json"
    doc = fleet_timeline(load_spans(run_dir))
    out.write_text(json.dumps(doc, sort_keys=True,
                              separators=(",", ":")) + "\n")
    return out


def wall_summary(spans: TraceSet) -> dict:
    """Per-kind wall-time percentiles over every span carrying ``dur``."""
    durations: "dict[str, list[float]]" = {}
    for record in spans:
        dur = record.get("dur")
        if isinstance(dur, (int, float)):
            durations.setdefault(str(record["kind"]), []).append(float(dur))
    return {kind: {"count": len(values), **wall_stats(values)}
            for kind, values in sorted(durations.items())}


# -- live progress ----------------------------------------------------------


class ProgressTicker:
    """Coordinator-side live progress: a stderr ticker plus an
    atomically-replaced ``progress.json`` for out-of-band followers.

    ETA is the naive rate estimate -- cells remaining over cells
    *computed* per elapsed second -- which is exactly what an operator
    watching a million-cell campaign wants first.  Cache hits count as
    done but not as computed, so a resumed sweep's ETA is not flattered
    by the cells it loaded.
    """

    def __init__(self, total: int, *, cache_hits: int = 0,
                 path: "str | os.PathLike | None" = None,
                 stream: "TextIO | None" = None,
                 interval: float = 0.5,
                 clock: "Callable[[], float]" = time.monotonic,
                 unix_clock: "Callable[[], float]" = time.time) -> None:
        self.total = int(total)
        self.cache_hits = int(cache_hits)
        self.path = Path(path) if path is not None else None
        self.stream = stream
        self.interval = float(interval)
        self._clock = clock
        self._unix_clock = unix_clock
        self._started = clock()
        self._last_emit: "float | None" = None
        self.done = 0
        self.active_workers = 0
        self.stragglers = 0
        self.state = "running"

    def eta_seconds(self, now: float) -> "float | None":
        computed = self.done - self.cache_hits
        elapsed = now - self._started
        if computed <= 0 or elapsed <= 0:
            return None
        rate = computed / elapsed
        return (self.total - self.done) / rate

    def update(self, done: int, *, active_workers: int = 0,
               stragglers: int = 0, force: bool = False) -> bool:
        """Record progress; emit a tick if the interval elapsed (or
        ``force``).  Returns whether a tick was emitted."""
        self.done = int(done)
        self.active_workers = int(active_workers)
        self.stragglers = int(stragglers)
        now = self._clock()
        if (not force and self._last_emit is not None
                and now - self._last_emit < self.interval):
            return False
        self._emit(now)
        return True

    def finish(self, done: "int | None" = None, *,
               state: str = "done") -> None:
        if done is not None:
            self.done = int(done)
        self.state = state
        self._emit(self._clock())

    def _emit(self, now: float) -> None:
        self._last_emit = now
        eta = self.eta_seconds(now)
        if self.path is not None:
            payload = self.snapshot(now, eta)
            tmp = self.path.with_name(f"{self.path.name}.tmp{os.getpid()}")
            tmp.write_text(json.dumps(payload, sort_keys=True, indent=2)
                           + "\n")
            os.replace(tmp, self.path)
        if self.stream is not None:
            self.stream.write(format_progress(
                self.snapshot(now, eta)) + "\n")
            self.stream.flush()

    def snapshot(self, now: "float | None" = None,
                 eta: "float | None" = None) -> dict:
        now = self._clock() if now is None else now
        if eta is None:
            eta = self.eta_seconds(now)
        return {"state": self.state, "done": self.done, "total": self.total,
                "cache_hits": self.cache_hits,
                "active_workers": self.active_workers,
                "stragglers": self.stragglers,
                "elapsed_s": now - self._started,
                "eta_s": eta, "unix": self._unix_clock()}


def format_progress(snapshot: dict) -> str:
    """One human-readable progress line from a ``progress.json`` payload."""
    total = snapshot.get("total", 0) or 0
    done = snapshot.get("done", 0) or 0
    pct = 100.0 * done / total if total else 0.0
    eta = snapshot.get("eta_s")
    eta_text = "eta --" if eta is None else f"eta {eta:.1f}s"
    if snapshot.get("state") == "done":
        eta_text = "done"
    elif snapshot.get("state") not in (None, "running"):
        eta_text = str(snapshot["state"])
    return (f"[progress] {done}/{total} cells ({pct:.0f}%), "
            f"{snapshot.get('cache_hits', 0)} cache hits, "
            f"{snapshot.get('active_workers', 0)} workers, "
            f"{snapshot.get('stragglers', 0)} stragglers, "
            f"{snapshot.get('elapsed_s', 0.0):.1f}s elapsed, {eta_text}")


def tail_run(run_dir: "str | os.PathLike", *, follow: bool = False,
             interval: float = 0.5, max_polls: "int | None" = None,
             stream: "TextIO | None" = None,
             sleep: "Callable[[float], None]" = time.sleep) -> int:
    """Follow a run directory's progress out-of-band.

    Prints the current progress line (and, with ``follow=True``, keeps
    polling until the run reports a terminal state or ``max_polls`` is
    exhausted).  Returns 0 if progress was found, 1 otherwise.
    """
    run_dir = Path(run_dir)
    stream = stream if stream is not None else sys.stdout
    path = run_dir / "progress.json"
    last_line: "str | None" = None
    polls = 0
    while True:
        polls += 1
        snapshot: "dict | None" = None
        try:
            snapshot = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            snapshot = None  # not written yet, or mid-replace
        if snapshot is not None:
            line = format_progress(snapshot)
            if line != last_line:
                stream.write(line + "\n")
                stream.flush()
                last_line = line
            if snapshot.get("state") != "running":
                return 0
        if not follow or (max_polls is not None and polls >= max_polls):
            return 0 if last_line is not None else 1
        sleep(interval)


# -- the run-level bundle ---------------------------------------------------


class RunTelemetry:
    """Everything one sweep run needs from the runtime plane.

    Bundles the run's :class:`RuntimeRecorder` and its
    :class:`ProgressTicker`.  Created by
    :func:`~repro.experiments.executor.sweep_envelope`, for serial and
    fabric runs alike, when the run asks for ``runtime_dir`` and/or
    ``progress``; everything degrades to cheap no-ops for the parts not
    enabled.
    """

    def __init__(self, run_dir: "str | os.PathLike | None", *,
                 role: str = "coordinator", total_cells: int = 0,
                 cache_hits: int = 0, progress: bool = False,
                 progress_stream: "TextIO | None" = None,
                 progress_interval: float = 0.5,
                 clock: "Callable[[], float]" = time.monotonic) -> None:
        self.run_dir = Path(run_dir) if run_dir is not None else None
        self.recorder: "RuntimeRecorder | None" = None
        progress_path = None
        if self.run_dir is not None:
            self.run_dir.mkdir(parents=True, exist_ok=True)
            self.recorder = RuntimeRecorder(
                self.run_dir / SPAN_FILE, role=role, clock=clock)
            progress_path = self.run_dir / "progress.json"
        stream = None
        if progress:
            stream = (progress_stream if progress_stream is not None
                      else sys.stderr)
        self.progress = ProgressTicker(
            total_cells, cache_hits=cache_hits, path=progress_path,
            stream=stream, interval=progress_interval, clock=clock)
        self._clock = clock

    # -- emission helpers (all safe when parts are disabled) ------------

    def now(self) -> float:
        return self._clock()

    def event(self, kind: str, **fields: Any) -> None:
        if self.recorder is not None:
            self.recorder.event(kind, **fields)

    def span(self, kind: str, **fields: Any):
        if self.recorder is not None:
            return self.recorder.span(kind, **fields)
        return nullcontext()

    def tick(self, done: int, *, active_workers: int = 0,
             stragglers: int = 0, force: bool = False) -> None:
        self.progress.update(done, active_workers=active_workers,
                             stragglers=stragglers, force=force)

    def finalize(self, *, done: "int | None" = None,
                 state: str = "done") -> None:
        """Close out the run: the final progress, the ``run.done``
        record, and the Chrome fleet timeline inside the run
        directory."""
        self.progress.finish(done, state=state)
        self.event("run.done", state=state)
        if self.recorder is not None:
            self.recorder.close()
        if self.run_dir is not None:
            write_fleet_timeline(self.run_dir)
