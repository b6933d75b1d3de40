"""Deterministic run traces: structured records, JSONL, Chrome trace JSON.

A :class:`TraceRecorder` accumulates plain-dict records in execution
order.  Every timestamp is *simulated* time, never wall clock, so two
identically-seeded runs produce byte-identical exports regardless of host
speed, worker count, or cache state (the executor merges per-cell records
in grid order; see :mod:`repro.experiments.executor`).

Two export formats:

* **JSONL** -- one compact, key-sorted JSON object per record.  The
  canonical machine-readable decision log; byte-stable by construction.
* **Chrome trace-event JSON** -- loadable in ``chrome://tracing`` (or
  https://ui.perfetto.dev).  Records with ``start``/``end`` fields become
  complete ("X") slices; everything else becomes an instant event.  Rows
  are grouped by cell (pid) and series (tid), with metadata name events
  so the UI shows human-readable labels.
"""

from __future__ import annotations

import json
import math
from typing import Any, Iterable

from repro.errors import ObservabilityError

#: Seconds -> Chrome trace microseconds (the trace-event format's unit).
_US = 1e6  # simlint: disable=SL005 (unit conversion factor, not a byte/flop quantity)


def jsonable(value: Any) -> Any:
    """Map a record value to something JSON can round-trip exactly.

    Non-finite floats are spelled as the strings ``"inf"``, ``"-inf"``
    and ``"nan"`` (strict JSON has no literal for them); containers are
    converted recursively; mapping keys become strings.
    """
    # Exact-type fast path for what records mostly carry: finite floats,
    # scalars and host-index lists.  Subclasses (numpy scalars,
    # NamedTuples) and non-finite floats take the general chain below.
    tp = type(value)
    if tp is float:
        if value - value == 0.0:
            return value
    elif tp is int or tp is str or tp is bool or value is None:
        return value
    elif tp is list or tp is tuple:
        for v in value:
            if type(v) is not int:
                break
        else:
            return list(value)
    if isinstance(value, float):
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        if math.isnan(value):
            return "nan"
        return value
    if isinstance(value, (str, int, bool)) or value is None:
        return value
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    raise ObservabilityError(f"cannot serialize trace value {value!r}")


def exact(values: "Iterable[Any]") -> bool:
    """Whether :func:`jsonable` would return every one of ``values``
    unchanged: each is a finite ``float``, an ``int``, a ``str``, a
    ``bool``, ``None``, or a ``list`` of such values (recursively).  A
    tuple, a dict, a subclass or a non-finite float is not exact."""
    for v in values:
        tp = type(v)
        if tp is float:
            if v - v != 0.0:
                return False
        elif not (tp is int or tp is str or tp is bool or v is None
                  or (tp is list and exact(v))):
            return False
    return True


class TraceRecorder:
    """Append-only store of structured trace records.

    ``context`` holds fields stamped onto every subsequent record (the
    executor sets ``scenario``/``x``/``seed``/``series`` per variant so
    strategies never need to know where they run).
    """

    def __init__(self) -> None:
        self.records: "list[dict]" = []
        self.context: "dict[str, Any]" = {}

    def __len__(self) -> int:
        return len(self.records)

    def set_context(self, **fields: Any) -> None:
        """Replace the ambient fields merged into every record."""
        self.context = {k: jsonable(v) for k, v in fields.items()}

    def emit(self, kind: str, t: float, **fields: Any) -> None:
        """Record one event of ``kind`` at simulated time ``t``."""
        record = {"kind": str(kind), "t": jsonable(float(t))}
        record.update(self.context)
        for key, value in fields.items():
            record[key] = jsonable(value)
        self.records.append(record)

    def emit_iteration(self, t: float, source: str, iteration: int,
                       start: float, compute_end: float,
                       active: "list[int]") -> None:
        """Record one BSP iteration ending at ``t``: the record
        ``emit("iteration", t, source=..., iteration=..., start=...,
        end=t, compute_end=..., active=...)`` would append, built as one
        dict display in the same key order.

        The strategy loop emits one per iteration, the bulk of a traced
        cell's records.  ``active`` must already be jsonable (a plain
        list of ints); the record keeps it as given, so the caller may
        share one list across the records of one active set.  As with
        the other one-pass builders, only finite ``float`` times are
        kept as given; any other time (non-finite, ``int``, a numpy
        scalar) takes :meth:`emit`, which converts it.
        """
        if type(t) is float and type(start) is float \
                and type(compute_end) is float and t - t == 0.0 \
                and start - start == 0.0 \
                and compute_end - compute_end == 0.0:
            self.records.append({
                "kind": "iteration", "t": t, **self.context,
                "source": source, "iteration": iteration, "start": start,
                "end": t, "compute_end": compute_end, "active": active})
        else:
            self.emit("iteration", t, source=source, iteration=iteration,
                      start=start, end=t, compute_end=compute_end,
                      active=active)

    def extend(self, records: "Iterable[dict]") -> None:
        """Append pre-built records (already jsonable dicts) verbatim."""
        self.records.extend(records)

    # -- exports ---------------------------------------------------------

    def to_jsonl(self) -> str:
        """One key-sorted compact JSON object per line (byte-stable)."""
        lines = [json.dumps(r, sort_keys=True, separators=(",", ":"))
                 for r in self.records]
        return "\n".join(lines) + ("\n" if lines else "")

    def write_jsonl(self, path) -> None:
        from pathlib import Path

        Path(path).write_text(self.to_jsonl())

    def to_chrome(self) -> dict:
        """The records as a Chrome trace-event document.

        Deterministic: pids/tids are assigned in order of first
        appearance, which is itself deterministic because the record list
        is.
        """
        events: "list[dict]" = []
        pids: "dict[str, int]" = {}
        tids: "dict[tuple[str, str], int]" = {}
        for record in self.records:
            cell = (f"{record.get('scenario', 'run')}"
                    f" x={record.get('x', '-')} seed={record.get('seed', '-')}")
            series = str(record.get("series", record.get("source", "trace")))
            if cell not in pids:
                pids[cell] = len(pids)
                events.append({"ph": "M", "name": "process_name",
                               "pid": pids[cell], "tid": 0, "ts": 0,
                               "args": {"name": cell}})
            pid = pids[cell]
            if (cell, series) not in tids:
                tids[(cell, series)] = len(tids)
                events.append({"ph": "M", "name": "thread_name",
                               "pid": pid, "tid": tids[(cell, series)],
                               "ts": 0, "args": {"name": series}})
            tid = tids[(cell, series)]
            args = {k: v for k, v in record.items()
                    if k not in ("kind", "t", "start", "end",
                                 "scenario", "x", "seed", "series")}
            name = record["kind"]
            if "iteration" in record:
                name = f"{record['kind']} {record['iteration']}"
            start = record.get("start")
            end = record.get("end")
            if (isinstance(start, (int, float))
                    and isinstance(end, (int, float))):
                events.append({"ph": "X", "name": name,
                               "cat": record["kind"], "pid": pid, "tid": tid,
                               "ts": start * _US,
                               "dur": (end - start) * _US, "args": args})
            else:
                events.append({"ph": "i", "s": "t", "name": name,
                               "cat": record["kind"], "pid": pid, "tid": tid,
                               "ts": record["t"] * _US, "args": args})
        return {"traceEvents": events, "displayTimeUnit": "ms",
                "otherData": {"tool": "repro.obs",
                              "clock": "simulated-seconds"}}

    def to_chrome_json(self) -> str:
        return json.dumps(self.to_chrome(), sort_keys=True,
                          separators=(",", ":")) + "\n"

    def write_chrome(self, path) -> None:
        from pathlib import Path

        Path(path).write_text(self.to_chrome_json())

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<TraceRecorder {len(self.records)} records>"
