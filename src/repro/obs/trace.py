"""Deterministic run traces: structured records, JSONL, Chrome trace JSON.

A :class:`TraceRecorder` accumulates records in execution order.  Every
timestamp is *simulated* time, never wall clock, so two
identically-seeded runs produce byte-identical exports regardless of host
speed, worker count, or cache state (the executor merges per-cell records
in grid order; see :mod:`repro.experiments.executor`).

Records are held as *rows* (:class:`TraceRows`), not dicts.  A row is a
tuple of the record's values in key order, whose first slot is the
interned key tuple (:func:`shape`) that every row of that shape shares.
The ambient context (the executor's ``scenario``/``x``/``seed``/
``series``) is stored once per block of rows that share it, an ``end``
equal to the record's ``t`` is not stored, and nested lists and dicts
are tuples too (:func:`frozen`).  A row thus holds nothing mutable.
Rows stay live tuples only while their block is open; a closed block is
held packed, as one pickle of its rows and their count, and packing is
where the values of the one-pass builders' rows are checked
(:func:`_packed`).  The record dict
is built only when something reads it: iterating the rows (which
unpacks one block at a time), :attr:`TraceRecorder.records` and the
exports below.

Two export formats, each written record by record through one
per-record encoder that the ``to_*`` strings join and the ``write_*``
methods stream to their file, so no whole document is built to write
it:

* **JSONL** -- one compact, key-sorted JSON object per record.  The
  canonical machine-readable decision log; byte-stable by construction.
* **Chrome trace-event JSON** -- loadable in ``chrome://tracing`` (or
  https://ui.perfetto.dev).  Records with ``start``/``end`` fields become
  complete ("X") slices; everything else becomes an instant event.  Rows
  are grouped by cell (pid) and series (tid), with metadata name events
  so the UI shows human-readable labels.
"""

from __future__ import annotations

import functools
import json
import math
import pickle
from typing import Any, Iterable, Iterator

from repro.errors import ObservabilityError

#: Seconds -> Chrome trace microseconds (the trace-event format's unit).
_US = 1e6  # simlint: disable=SL005 (unit conversion factor, not a byte/flop quantity)

#: First item of a key tuple (a frozen mapping's or a row's).  No record
#: value is ``bytes``, so a tuple led by a key tuple is never a frozen
#: list.  Readers test its type, not its identity: a packed block
#: unpacks to a new ``bytes`` object.
_MAPPING = b"mapping"
#: In a row's key tuple: where the block's context fields go.
CONTEXT = None
#: In a row's key tuple: ``end``, not stored, as it equals ``t``.
END_IS_T = ("end", "t")


#: Bound on the key tuples :func:`shape` keeps: a pass over the
#: ``ext-faults`` perfbench grid (204 cells) makes about 400, most of
#: them DLB member sets.
_SHAPES_KEPT = 4096


@functools.lru_cache(maxsize=_SHAPES_KEPT)
def shape(keys: "tuple[Any, ...]") -> tuple:
    """The key tuple of a mapping, or of a row, with ``keys``: one object
    shared by the values that use it.  Equal key tuples need not be the
    same object; rows compare by value."""
    return (_MAPPING, *keys)


def frozen(value: Any) -> Any:
    """A record value in the form rows hold it: every list a tuple and
    every dict a frozen mapping, a tuple of its key tuple and then its
    values.  A frozen value holds no list or dict.

    Dicts are frozen too, not kept, because CPython never untracks a
    tuple that holds a dict, even an untracked one: a row holding a dict
    would stay GC-tracked for as long as it lives.

    Non-finite floats are spelled as the strings ``"inf"``, ``"-inf"``
    and ``"nan"`` (strict JSON has no literal for them); float
    subclasses become floats; mapping keys become strings.
    """
    # Exact-type fast path for what records mostly carry: finite floats,
    # scalars and host-index lists.  Subclasses (numpy scalars,
    # NamedTuples) and non-finite floats take the general chain below.
    # A frozen value is returned as it is (frozen mappings included), so
    # a row can be frozen again.
    tp = type(value)
    if tp is float:
        if value - value == 0.0:
            return value
    elif tp is int or tp is str or tp is bool or value is None:
        return value
    elif tp is tuple or tp is list:
        for v in value:
            if type(v) is not int:
                break
        else:
            return value if tp is tuple else tuple(value)
    if isinstance(value, float):
        if not math.isfinite(value):
            return _spelled(value)
        return float(value)
    if isinstance(value, (str, int, bool)) or value is None:
        return value
    if isinstance(value, dict):
        return (shape(tuple(map(str, value))), *map(frozen, value.values()))
    if tp is tuple and _is_mapping(value):
        return (value[0], *map(frozen, value[1:]))
    if isinstance(value, (list, tuple)):
        return tuple(map(frozen, value))
    raise ObservabilityError(f"cannot serialize trace value {value!r}")


def _spelled(value: float) -> str:
    """The string a non-finite float is spelled as in a record."""
    if math.isnan(value):
        return "nan"
    return "inf" if value > 0 else "-inf"


def _is_mapping(value: tuple) -> bool:
    """Whether a tuple is a frozen mapping: led by a key tuple."""
    head = value[0] if value else None
    return type(head) is tuple and bool(head) and type(head[0]) is bytes


def exact(values: "Iterable[Any]") -> bool:
    """Whether :func:`frozen` would return every one of ``values``
    unchanged: each is a finite ``float``, an ``int``, a ``str``, a
    ``bool``, ``None``, or a ``tuple`` of such values (recursively).  A
    list, a dict, a subclass or a non-finite float is not exact: the
    one-pass :meth:`repro.obs.SessionSink.record` builder checks its
    values with this and hands any record that fails to
    :meth:`TraceRecorder.emit`."""
    for v in values:
        tp = type(v)
        if tp is float:
            if v - v != 0.0:
                return False
        elif not (tp is int or tp is str or tp is bool or v is None
                  or (tp is tuple and exact(v))):
            return False
    return True


def thawed(value: Any) -> Any:
    """The JSON form of a :func:`frozen` value: tuples back to lists,
    frozen mappings back to dicts.  A non-finite float, which a packed
    block may hold (see :func:`_packed`), is spelled as :func:`frozen`
    spells it."""
    tp = type(value)
    if tp is not tuple:
        if tp is float and value - value != 0.0:
            return _spelled(value)
        return value
    if _is_mapping(value):
        return dict(zip(value[0][1:], map(thawed, value[1:])))
    return list(map(thawed, value))


def jsonable(value: Any) -> Any:
    """Map a record value to something JSON can round-trip exactly:
    :func:`frozen`'s spelling, with lists and dicts."""
    return thawed(frozen(value))


def _same(end: Any, t: Any) -> bool:
    """Whether ``end`` exports as the same JSON as ``t`` (both frozen)."""
    return end is t or (type(end) is float and type(t) is float
                        and end == t and end != 0.0)


@functools.lru_cache(maxsize=_SHAPES_KEPT)
def _row_shapes(keys: "tuple[str, ...]") -> "tuple[tuple, tuple, int]":
    """The key tuples of a row with field ``keys``, as stored and with an
    ``end`` equal to ``t`` left out, and where ``end`` is (-1: none)."""
    stored = shape(("kind", "t", CONTEXT, *keys))
    if "end" not in keys:
        return stored, stored, -1
    at = keys.index("end")
    return stored, shape(("kind", "t", CONTEXT, *keys[:at], END_IS_T,
                          *keys[at + 1:])), at


def make_row(kind: str, t: Any, fields: "dict[str, Any]") -> tuple:
    """The row of the record ``{"kind": kind, "t": t, **context,
    **fields}``, with ``t`` and every field value already frozen.

    As in a dict update, a field that repeats a context key keeps that
    key's place.
    """
    stored, aliased, at = _row_shapes(tuple(fields))
    if at >= 0 and _same(fields["end"], t):
        values = list(fields.values())
        del values[at]
        return (aliased, kind, t, *values)
    return (stored, kind, t, *fields.values())


#: The row key tuple of the strategy loop's ``iteration`` records.
ITERATION = shape(("kind", "t", CONTEXT, "source", "iteration", "start",
                   END_IS_T, "compute_end", "active"))


def _layout(row_shape: tuple, context: tuple) -> "tuple[tuple, tuple]":
    """How to read a row of ``row_shape`` in a block with ``context``
    keys: the record's keys, and where each value sits in ``row +
    context values``."""
    keys: "list[str]" = []
    picks: "list[int]" = []
    stored = 0
    for entry in row_shape[1:]:
        if entry is CONTEXT:
            keys.extend(context)
            picks.extend(range(-len(context), 0))
        elif type(entry) is tuple:  # END_IS_T: another key's value
            keys.append(entry[0])
            picks.append(picks[keys.index(entry[1])])
        else:
            stored += 1
            keys.append(entry)
            picks.append(stored)
    return tuple(keys), tuple(picks)


class _Inexact(Exception):
    """A row value that is not of an exact builtin type."""


class _ExactPickler(pickle.Pickler):
    """Pickles rows whose values are all of exact builtin types, and
    raises :class:`_Inexact` on any other value.

    CPython consults :meth:`reducer_override` only for a value that is
    not ``None``, a ``bool``, or an exact ``int``, ``float``, ``bytes``,
    ``str``, ``tuple``, ``list``, ``dict``, ``set`` or ``frozenset``, so
    checking a block of exact rows costs nothing beyond pickling it.
    """

    def reducer_override(self, obj: Any) -> Any:
        raise _Inexact


class _Output(bytearray):
    """An in-memory file for :class:`_ExactPickler`."""

    write = bytearray.extend


def _normal(row: tuple) -> tuple:
    """A row with every value :func:`frozen`."""
    return (row[0], *map(frozen, row[1:]))


def _packed(context: dict, rows: "list[tuple]") -> "tuple[dict, int, bytes]":
    """A closed block: its context, its row count, and its rows as one
    pickle.

    This is where rows are checked.  The one-pass builders of
    :class:`repro.obs.SessionSink` append their values as given; a
    block whose values are all of exact builtin types is pickled as it
    is, and any other block is :func:`frozen` first (a value ``frozen``
    rejects raises :class:`~repro.errors.ObservabilityError` here).  So
    the pickle names no global and unpacks by plain opcodes.  A
    non-finite float is an exact ``float`` and stays one; readers spell
    it (see :func:`thawed`).
    """
    output = _Output()
    try:
        _ExactPickler(output, 5).dump(rows)
    except _Inexact:
        return context, len(rows), pickle.dumps(list(map(_normal, rows)), 5)
    return context, len(rows), bytes(output)


def _records(context: dict, rows: "Iterable[tuple]") -> "Iterator[dict]":
    """The record dicts of one block's rows."""
    keys = tuple(context)
    tail = tuple(context.values())
    seen: "dict[int, tuple[tuple, tuple]]" = {}
    for row in rows:
        layout = seen.get(id(row[0]))
        if layout is None:
            layout = seen[id(row[0])] = _layout(row[0], keys)
        record = dict(zip(layout[0],
                          map((row + tail).__getitem__, layout[1])))
        for key, value in record.items():
            tp = type(value)
            if tp is tuple:
                record[key] = thawed(value)
            elif tp is float and value - value != 0.0:
                record[key] = _spelled(value)
        yield record


class TraceRows:
    """Trace records held as rows, in blocks that share one context.

    ``blocks`` holds the closed blocks, each ``(context, count,
    packed)``: the context dict read into each of the block's records,
    its number of rows, and the rows as one pickle.  ``open`` is the
    block still taking rows, ``(context, rows)`` with ``rows`` a list,
    or ``None``; it always follows the closed blocks.  ``len`` reads the
    counts.  Iterating unpacks one block at a time and yields each
    record as the dict the reference :meth:`TraceRecorder.emit`
    describes (same keys, same order, lists as lists), built afresh on
    every read.  A row store equals another, or a list of dicts, when
    their records are equal.
    """

    __slots__ = ("blocks", "open")

    def __init__(self) -> None:
        self.blocks: "list[tuple[dict, int, bytes]]" = []
        self.open: "tuple[dict, list] | None" = None

    def __len__(self) -> int:
        held = sum(count for _context, count, _packed in self.blocks)
        return held + (len(self.open[1]) if self.open is not None else 0)

    def __iter__(self) -> "Iterator[dict]":
        for context, _count, packed in self.blocks:
            yield from _records(context, pickle.loads(packed))
        if self.open is not None:
            # Not yet checked (see _packed): frozen as it is read.
            context, rows = self.open
            yield from _records(context, map(_normal, rows))

    def __eq__(self, other: object) -> bool:
        if isinstance(other, TraceRows):
            other = list(other)
        elif not isinstance(other, list):
            return NotImplemented
        return list(self) == other

    def close(self) -> None:
        """Pack the open block into :attr:`blocks`; an empty one is
        dropped."""
        if self.open is not None and self.open[1]:
            self.blocks.append(_packed(*self.open))
        self.open = None

    def closed(self) -> "list[tuple[dict, int, bytes]]":
        """Every block, closed: :attr:`blocks`, then the open block
        packed (this store is left as it is)."""
        if self.open is None or not self.open[1]:
            return self.blocks
        return [*self.blocks, _packed(*self.open)]

    @classmethod
    def from_records(cls, records: "Iterable[dict]",
                     context: "tuple[str, ...]" = ()) -> "TraceRows":
        """Rows of record dicts, such as a cell payload's, every block
        closed.

        The ``context`` keys a record has are hoisted into its block;
        consecutive records whose context values are equal, of the same
        type and spelling, share one block.  A record without ``kind``
        or ``t`` raises ``KeyError``.
        """
        rows = cls()
        for record in records:
            ctx = {k: record[k] for k in context if k in record}
            block = rows.open
            if block is None or ctx != block[0] or not all(
                    map(_same_spelling, ctx.values(), block[0].values())):
                rows.close()
                block = rows.open = (ctx, [])
            block[1].append(make_row(
                record["kind"], frozen(record["t"]),
                {key: frozen(value) for key, value in record.items()
                 if key != "kind" and key != "t" and key not in ctx}))
        rows.close()
        return rows

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<TraceRows {len(self)} records, {len(self.blocks)} blocks>"


def _same_spelling(a: Any, b: Any) -> bool:
    return type(a) is type(b) and repr(a) == repr(b)


def _dumps(value: Any) -> str:
    """The one JSON spelling of every export: compact, keys sorted."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def _jsonl_chunks(records: "Iterable[dict]") -> "Iterator[str]":
    """The JSONL export, one line per record."""
    for record in records:
        yield _dumps(record) + "\n"


#: The Chrome document's ``otherData``.
_CHROME_OTHER = {"tool": "repro.obs", "clock": "simulated-seconds"}


def _chrome_events(records: "Iterable[dict]") -> "Iterator[dict]":
    """The Chrome trace events of ``records``, in order.

    Deterministic: pids/tids are assigned in order of first appearance,
    which is itself deterministic because the record order is.
    """
    pids: "dict[str, int]" = {}
    tids: "dict[tuple[str, str], int]" = {}
    for record in records:
        cell = (f"{record.get('scenario', 'run')}"
                f" x={record.get('x', '-')} seed={record.get('seed', '-')}")
        series = str(record.get("series", record.get("source", "trace")))
        if cell not in pids:
            pids[cell] = len(pids)
            yield {"ph": "M", "name": "process_name", "pid": pids[cell],
                   "tid": 0, "ts": 0, "args": {"name": cell}}
        pid = pids[cell]
        if (cell, series) not in tids:
            tids[(cell, series)] = len(tids)
            yield {"ph": "M", "name": "thread_name", "pid": pid,
                   "tid": tids[(cell, series)], "ts": 0,
                   "args": {"name": series}}
        tid = tids[(cell, series)]
        args = {k: v for k, v in record.items()
                if k not in ("kind", "t", "start", "end",
                             "scenario", "x", "seed", "series")}
        name = record["kind"]
        if "iteration" in record:
            name = f"{record['kind']} {record['iteration']}"
        start = record.get("start")
        end = record.get("end")
        if isinstance(start, (int, float)) and isinstance(end, (int, float)):
            yield {"ph": "X", "name": name, "cat": record["kind"],
                   "pid": pid, "tid": tid, "ts": start * _US,
                   "dur": (end - start) * _US, "args": args}
        else:
            yield {"ph": "i", "s": "t", "name": name, "cat": record["kind"],
                   "pid": pid, "tid": tid, "ts": record["t"] * _US,
                   "args": args}


def _chrome_chunks(records: "Iterable[dict]") -> "Iterator[str]":
    """The Chrome trace document, streamed: the document is key-sorted,
    so ``traceEvents`` comes last and everything before it is written
    first; then one event at a time."""
    head = _dumps({"displayTimeUnit": "ms", "otherData": _CHROME_OTHER})
    yield head[:-1] + ',"traceEvents":['
    sep = ""
    for event in _chrome_events(records):
        yield sep + _dumps(event)
        sep = ","
    yield "]}\n"


def _write(path, chunks: "Iterable[str]") -> None:
    with open(path, "w", encoding="utf-8") as out:
        out.writelines(chunks)


class TraceRecorder:
    """Append-only store of structured trace records, held as rows.

    ``context`` holds fields stamped onto every subsequent record (the
    executor sets ``scenario``/``x``/``seed``/``series`` per variant so
    strategies never need to know where they run).  New records go to
    the open block of :attr:`rows`; each :meth:`set_context` and
    :meth:`extend` closes it and opens a new one.
    """

    def __init__(self) -> None:
        self.rows = TraceRows()
        self.context: "dict[str, Any]" = {}
        #: The open block's rows, where new records are appended.
        self.block: "list[tuple]" = []
        self.rows.open = (self.context, self.block)

    def __len__(self) -> int:
        return len(self.rows)

    @property
    def records(self) -> "list[dict]":
        """Every record, as dicts built afresh (see :class:`TraceRows`)."""
        return list(self.rows)

    def _open(self, blocks: "Iterable[tuple[dict, int, bytes]]" = ()) -> None:
        """Close the open block, append the closed ``blocks``, then open
        a new block."""
        own = self.rows
        own.close()
        own.blocks.extend(blocks)
        self.block = []
        own.open = (self.context, self.block)

    def set_context(self, **fields: Any) -> None:
        """Replace the ambient fields merged into every record."""
        self.context = {k: frozen(v) for k, v in fields.items()}
        self._open()

    def emit(self, kind: str, t: float, **fields: Any) -> None:
        """Record one event of ``kind`` at simulated time ``t``: the
        record ``{"kind": kind, "t": t, **context, **fields}``, every
        value :func:`frozen`."""
        self.block.append(make_row(
            str(kind), frozen(float(t)),
            {key: frozen(value) for key, value in fields.items()}))

    def emit_iteration(self, t: float, source: str, iteration: int,
                       start: float, compute_end: float,
                       active: "tuple[int, ...]") -> None:
        """Record one BSP iteration ending at ``t``: the record
        ``emit("iteration", t, source=..., iteration=..., start=...,
        end=t, compute_end=..., active=...)`` would append, built as one
        row.

        The strategy loop emits one per iteration, the bulk of a traced
        cell's records.  ``active`` must already be frozen (a tuple of
        ints); the row keeps it as given, so the caller may share one
        tuple across the records of one active set.  Only finite
        ``float`` times are kept as given; any other time (non-finite,
        ``int``, a numpy scalar) takes :meth:`emit`, which converts it.
        """
        if type(t) is float and type(start) is float \
                and type(compute_end) is float and t - t == 0.0 \
                and start - start == 0.0 \
                and compute_end - compute_end == 0.0:
            self.block.append((ITERATION, "iteration", t, source, iteration,
                               start, compute_end, active))
        else:
            self.emit("iteration", t, source=source, iteration=iteration,
                      start=start, end=t, compute_end=compute_end,
                      active=active)

    def extend(self, rows: TraceRows) -> None:
        """Append another store's records by whole blocks: its closed
        blocks are shared, not copied, and its open block is packed
        (that store keeps it open, but must not grow afterwards)."""
        self._open(rows.closed())

    def take(self) -> TraceRows:
        """Hand over every record so far, every block closed; the
        recorder goes on, empty, in the same context."""
        rows = self.rows
        rows.close()
        self.rows = TraceRows()
        self._open()
        return rows

    # -- exports ---------------------------------------------------------

    def to_jsonl(self) -> str:
        """One key-sorted compact JSON object per line (byte-stable)."""
        return "".join(_jsonl_chunks(self.rows))

    def write_jsonl(self, path) -> None:
        """Write :meth:`to_jsonl`'s text, one record at a time."""
        _write(path, _jsonl_chunks(self.rows))

    def to_chrome(self) -> dict:
        """The records as a Chrome trace-event document."""
        return {"traceEvents": list(_chrome_events(self.rows)),
                "displayTimeUnit": "ms", "otherData": dict(_CHROME_OTHER)}

    def to_chrome_json(self) -> str:
        """:meth:`to_chrome` as key-sorted compact JSON (byte-stable)."""
        return "".join(_chrome_chunks(self.rows))

    def write_chrome(self, path) -> None:
        """Write :meth:`to_chrome_json`'s text, one event at a time."""
        _write(path, _chrome_chunks(self.rows))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<TraceRecorder {len(self)} records>"
