"""Trace consumption: parse, query, derive analytics, lint invariants.

:mod:`repro.obs.trace` is the *production* side of observability; this
module is the consumption side.  A :class:`TraceSet` loads a JSONL trace
(or wraps a live :class:`~repro.obs.trace.TraceRecorder`) back into the
record dicts the recorder's rows read as -- byte-for-byte the same
objects ``to_jsonl`` serialized, including the ``"inf"``/``"-inf"``/
``"nan"`` spellings :func:`~repro.obs.trace.jsonable` gives non-finite
floats -- and offers:

* a small **query API** (:meth:`TraceSet.filter`, :meth:`TraceSet.cells`,
  :meth:`TraceSet.series_names`) over kind / cell / series / time window;
* **derived analytics** -- per-host busy/idle utilization from iteration
  slices, the swap/checkpoint/rebalance timeline per series, the
  gate-rejection breakdown, the payback-distance distribution,
  time-to-first-swap, and adaptation-overhead fractions;
* a **trace invariant linter** (:func:`lint`, the codes of
  :data:`TRACE_RULES`) that checks the structural guarantees every later
  analysis relies on.

Everything here is deterministic: outputs depend only on record content
and order, never on wall clock, hashes of ids, or set iteration, so a
report rendered from these analytics is byte-stable whenever the trace
is (see :mod:`repro.obs.report`).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Any, Iterable, Iterator

from repro.errors import ObservabilityError
from repro.obs import PAYBACK_BUCKETS
from repro.obs.metrics import Histogram

#: TL rule codes and what each one guards.
TRACE_RULES = {
    "TL001": "timestamps are monotonic (non-decreasing) per cell row",
    "TL003": "no overlapping slices on one (cell, series) row "
             "(coincident batch-swap slices excepted)",
    "TL004": "decision records carry a complete, consistent gate trail",
    "TL005": "metrics registry agrees with the trace (epochs, moves, "
             "iterations, payback observations)",
    "TL006": "every trace line parses as one JSON record",
    "TL007": "every revocation of an active host is followed by a "
             "recovery or a declared stall for that host",
}

#: Float tolerance for slice-overlap comparisons (sim times are exact
#: float sums, but derived ends may differ in the last ulp).
_SLICE_TOL = 1e-9


def as_float(value: Any) -> float:
    """A trace field as a float, reviving the non-finite spellings.

    Inverse of :func:`~repro.obs.trace.jsonable` for numeric fields:
    ``"inf"``/``"-inf"``/``"nan"`` come back as the floats they encoded.
    """
    if isinstance(value, str):
        if value == "inf":
            return math.inf
        if value == "-inf":
            return -math.inf
        if value == "nan":
            return math.nan
        raise ObservabilityError(f"not a trace float: {value!r}")
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ObservabilityError(f"not a trace float: {value!r}")
    return float(value)


def _slice_bounds(record: dict) -> "tuple[float, float] | None":
    """(start, end) when the record is a complete slice, else None."""
    start, end = record.get("start"), record.get("end")
    if (isinstance(start, (int, float)) and not isinstance(start, bool)
            and isinstance(end, (int, float)) and not isinstance(end, bool)):
        return float(start), float(end)
    return None


@dataclass(frozen=True)
class BadLine:
    """One trace line that failed to parse (reported as TL006)."""

    number: int
    """1-based line number in the source file."""
    error: str
    text: str
    """The offending line, truncated to 120 characters."""


def cell_key(record: dict) -> tuple:
    """The (scenario, x, seed) coordinates stamped on a record.

    Missing fields become ``None`` (e.g. ad-hoc recorders without
    executor context); ``x`` keeps its recorded spelling, so an ``inf``
    grid point groups correctly.
    """
    return (record.get("scenario"), record.get("x"), record.get("seed"))


def format_cell(cell: tuple) -> str:
    """Human-readable label of a :func:`cell_key`."""
    scenario, x, seed = cell
    if scenario is None and x is None and seed is None:
        return "(no cell)"
    return f"{scenario} x={x} seed={seed}"


class TraceSet:
    """An ordered collection of trace records plus parse diagnostics.

    The record dicts are exactly what a :class:`~repro.obs.trace.
    TraceRecorder`'s rows read as (already ``jsonable``): loading a JSONL export
    reconstructs them verbatim, so ``TraceSet.load(p).records ==
    recorder.records`` round-trips including non-finite float spellings.
    """

    def __init__(self, records: "Iterable[dict]",
                 bad_lines: "Iterable[BadLine]" = ()) -> None:
        self.records = list(records)
        self.bad_lines = tuple(bad_lines)

    # -- construction ----------------------------------------------------

    @classmethod
    def from_jsonl(cls, text: str) -> "TraceSet":
        """Parse a JSONL export; unparseable lines become TL006 fodder."""
        records: "list[dict]" = []
        bad: "list[BadLine]" = []
        for number, line in enumerate(text.splitlines(), start=1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except ValueError as exc:
                bad.append(BadLine(number, str(exc), line[:120]))
                continue
            if not isinstance(record, dict) or "kind" not in record:
                bad.append(BadLine(number, "not a trace record object",
                                   line[:120]))
                continue
            records.append(record)
        return cls(records, bad)

    @classmethod
    def load(cls, path) -> "TraceSet":
        from pathlib import Path

        return cls.from_jsonl(Path(path).read_text())

    @classmethod
    def from_recorder(cls, recorder) -> "TraceSet":
        """Wrap a live :class:`~repro.obs.trace.TraceRecorder`."""
        return cls(recorder.records)

    # -- query -----------------------------------------------------------

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self) -> "Iterator[dict]":
        return iter(self.records)

    def filter(self, kind: "str | None" = None,
               cell: "tuple | None" = None,
               series: "str | None" = None,
               t_min: "float | None" = None,
               t_max: "float | None" = None,
               **fields: Any) -> "TraceSet":
        """A new TraceSet of the records matching every given criterion.

        ``fields`` match on equality of arbitrary record fields
        (``iteration=3``, ``accepted=True``, ...).  Time bounds are
        inclusive and compare the record's ``t``.
        """
        out = []
        for record in self.records:
            if kind is not None and record.get("kind") != kind:
                continue
            if cell is not None and cell_key(record) != tuple(cell):
                continue
            if series is not None and record.get("series") != series:
                continue
            if t_min is not None and as_float(record["t"]) < t_min:
                continue
            if t_max is not None and as_float(record["t"]) > t_max:
                continue
            if any(record.get(k) != v for k, v in fields.items()):
                continue
            out.append(record)
        return TraceSet(out)

    def kinds(self) -> "dict[str, int]":
        """Record count per kind, key-sorted."""
        counts: "dict[str, int]" = {}
        for record in self.records:
            kind = record.get("kind", "?")
            counts[kind] = counts.get(kind, 0) + 1
        return {kind: counts[kind] for kind in sorted(counts)}

    def cells(self) -> "list[tuple]":
        """Unique cell keys, in first-appearance (grid) order."""
        seen: "dict[tuple, None]" = {}
        for record in self.records:
            seen.setdefault(cell_key(record), None)
        return list(seen)

    def series_names(self) -> "list[str]":
        """Unique series labels, in first-appearance order."""
        seen: "dict[str, None]" = {}
        for record in self.records:
            series = record.get("series")
            if series is not None:
                seen.setdefault(str(series), None)
        return list(seen)

    def rows(self) -> "dict[tuple, list[dict]]":
        """Records grouped by (cell, series) row, preserving order.

        One row is one Chrome-export (pid, tid) pair: the unit both the
        analytics and the TL lints operate on.
        """
        grouped: "dict[tuple, list[dict]]" = {}
        for record in self.records:
            key = (cell_key(record), str(record.get("series")))
            grouped.setdefault(key, []).append(record)
        return grouped

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<TraceSet {len(self.records)} records, "
                f"{len(self.bad_lines)} bad lines>")


# -- derived analytics -------------------------------------------------------


def host_utilization(ts: TraceSet) -> "dict[tuple, dict[int, dict]]":
    """Per-host busy/idle time from iteration slices, per (cell, series).

    Busy time on a host is the sum of compute phases (``start`` ..
    ``compute_end``) of the iterations whose ``active`` set contained it;
    the row span is first slice start to last slice end, so ``idle``
    covers communication, adaptation overhead, and epochs spent in the
    spare pool.  Returns ``{(cell, series): {host: {"busy": s, "idle": s,
    "utilization": fraction}}}`` in row order, hosts sorted.
    """
    out: "dict[tuple, dict[int, dict]]" = {}
    for key, records in ts.rows().items():
        iterations = [r for r in records if r.get("kind") == "iteration"
                      and _slice_bounds(r) is not None]
        if not iterations:
            continue
        span_start = min(_slice_bounds(r)[0] for r in iterations)
        span_end = max(_slice_bounds(r)[1] for r in iterations)
        span = span_end - span_start
        busy: "dict[int, float]" = {}
        for record in iterations:
            start = float(record["start"])
            compute_end = float(record.get("compute_end", record["end"]))
            for host in record.get("active", ()):
                busy[host] = busy.get(host, 0.0) + (compute_end - start)
        out[key] = {
            host: {"busy": busy[host],
                   "idle": max(0.0, span - busy[host]),
                   "utilization": busy[host] / span if span > 0 else 0.0}
            for host in sorted(busy)}
    return out


#: Record kinds that constitute an adaptation event on the timeline.
ADAPTATION_KINDS = ("swap", "checkpoint", "rebalance")


def timeline(ts: TraceSet) -> "dict[tuple, list[dict]]":
    """The adaptation timeline per (cell, series) row.

    One entry per swap / checkpoint / rebalance record, in trace order:
    ``{"t", "kind", "iteration", "detail"}`` where ``detail`` is a short
    human label (``"h5->h9"``, ``"restart -> [9, 29]"``, ``"rebalance"``).
    """
    out: "dict[tuple, list[dict]]" = {}
    for key, records in ts.rows().items():
        events = []
        for record in records:
            kind = record.get("kind")
            if kind not in ADAPTATION_KINDS:
                continue
            if kind == "swap":
                detail = (f"h{record.get('out_host')}"
                          f"->h{record.get('in_host')}")
            elif kind == "checkpoint":
                detail = f"restart -> {record.get('new_active')}"
            else:
                detail = "rebalance"
            events.append({"t": as_float(record["t"]), "kind": kind,
                           "iteration": record.get("iteration"),
                           "detail": detail})
        out[key] = events
    return out


#: (prefix, canonical class) pairs for :func:`normalize_reason`; the
#: policy gates embed the offending numbers in their reason strings.
_REASON_CLASSES = (
    ("process improvement ", "process improvement below threshold"),
    ("application improvement ", "application improvement below threshold"),
    ("payback ", "payback exceeds threshold"),
)


def normalize_reason(reason: str) -> str:
    """A rejection reason reduced to its gate class.

    The gate reasons embed the measured numbers (``"payback 9.88
    iterations exceeds threshold 0.5"``), which is right for a single
    record but makes every rejection unique; the breakdown groups them by
    the gate that fired instead.  Unrecognized reasons pass through.
    """
    for prefix, label in _REASON_CLASSES:
        if reason.startswith(prefix):
            return label
    return reason


def rejection_breakdown(ts: TraceSet, *,
                        normalize: bool = True) -> "dict[str, int]":
    """Rejected decision epochs grouped by ``rejected_reason``.

    Sorted by descending count, then reason, so the mapping renders
    deterministically.  An empty reason (no viable proposal existed) is
    reported as ``"(no proposals)"``; ``normalize=False`` keeps the raw
    per-record reason strings instead of gate classes.
    """
    counts: "dict[str, int]" = {}
    for record in ts.records:
        if record.get("kind") != "decision" or record.get("accepted"):
            continue
        reason = record.get("rejected_reason") or "(no proposals)"
        if normalize:
            reason = normalize_reason(reason)
        counts[reason] = counts.get(reason, 0) + 1
    return dict(sorted(counts.items(), key=lambda kv: (-kv[1], kv[0])))


def payback_values(ts: TraceSet) -> "list[float]":
    """Payback distances of every accepted reconfiguration, trace order.

    Swap decisions contribute one value per accepted move; CR-style
    decisions (whole-set migration) contribute their single ``payback``.
    """
    values: "list[float]" = []
    for record in ts.records:
        if record.get("kind") != "decision" or not record.get("accepted"):
            continue
        if "moves" in record:
            values.extend(as_float(m["payback"]) for m in record["moves"])
        elif "payback" in record:
            values.append(as_float(record["payback"]))
    return values


def payback_distribution(ts: TraceSet, bounds=None):
    """The payback distances as an :class:`~repro.obs.metrics.Histogram`.

    Defaults to :data:`repro.obs.PAYBACK_BUCKETS`, matching the live
    ``decision.payback_iterations`` metric bucket for bucket.
    """
    histogram = Histogram(PAYBACK_BUCKETS if bounds is None else bounds)
    for value in payback_values(ts):
        histogram.observe(value)
    return histogram


def time_to_first_swap(ts: TraceSet) -> "dict[tuple, float | None]":
    """Sim-seconds from run start to the first swap/checkpoint, per row.

    Run start is the first iteration slice's ``start`` (i.e. after
    startup); rows that never adapted map to ``None``.  Rebalances do not
    count -- DLB adapts every iteration by construction.
    """
    out: "dict[tuple, float | None]" = {}
    for key, records in ts.rows().items():
        origin = None
        first = None
        for record in records:
            if (origin is None and record.get("kind") == "iteration"
                    and _slice_bounds(record) is not None):
                origin = float(record["start"])
            if (first is None
                    and record.get("kind") in ("swap", "checkpoint")):
                first = as_float(record["t"])
        if first is None or origin is None:
            out[key] = None
        else:
            out[key] = max(0.0, first - origin)
    return out


def adaptation_overhead(ts: TraceSet) -> "dict[tuple, dict]":
    """Time spent migrating state, per (cell, series) row.

    Sums the *unique* swap/checkpoint slice spans (a multi-move epoch
    emits one coincident slice per move covering the whole serialized
    transfer -- it is counted once) and divides by the row span.
    Returns ``{row: {"overhead": s, "span": s, "fraction": f}}``.
    """
    out: "dict[tuple, dict]" = {}
    for key, records in ts.rows().items():
        sliced = [(r, _slice_bounds(r)) for r in records
                  if _slice_bounds(r) is not None]
        if not sliced:
            continue
        span_start = min(bounds[0] for _r, bounds in sliced)
        span_end = max(bounds[1] for _r, bounds in sliced)
        span = span_end - span_start
        seen: "set[tuple]" = set()
        overhead = 0.0
        for record, (start, end) in sliced:
            if record.get("kind") not in ("swap", "checkpoint"):
                continue
            if (start, end) in seen:
                continue
            seen.add((start, end))
            overhead += end - start
        out[key] = {"overhead": overhead, "span": span,
                    "fraction": overhead / span if span > 0 else 0.0}
    return out


def decision_summary(ts: TraceSet) -> "dict[str, int]":
    """Epoch-level totals: evaluated, accepted, rejected, moves."""
    epochs = accepted = moves = 0
    for record in ts.records:
        if record.get("kind") != "decision":
            continue
        epochs += 1
        if record.get("accepted"):
            accepted += 1
            moves += len(record["moves"]) if "moves" in record else 1
    return {"epochs": epochs, "accepted": accepted,
            "rejected": epochs - accepted, "moves": moves}


# -- invariant linter --------------------------------------------------------


@dataclass(frozen=True)
class LintFinding:
    """One violated trace invariant."""

    code: str
    message: str
    cell: "tuple | None" = None
    series: "str | None" = None

    def __str__(self) -> str:
        where = ""
        if self.cell is not None:
            where = f" [{format_cell(self.cell)}"
            if self.series is not None:
                where += f" / {self.series}"
            where += "]"
        return f"{self.code}{where} {self.message}"


def _lint_row_times(key, records, findings) -> None:
    """TL001: ``t`` never decreases along one (cell, series) row."""
    cell, series = key
    previous = None
    for index, record in enumerate(records):
        t = as_float(record["t"])
        if math.isnan(t):
            findings.append(LintFinding(
                "TL001", f"record {index} has NaN timestamp", cell, series))
            continue
        if previous is not None and t < previous - _SLICE_TOL:
            findings.append(LintFinding(
                "TL001", f"record {index} ({record.get('kind')}) at "
                f"t={t:g} precedes t={previous:g}", cell, series))
        previous = t


def _lint_slice_overlap(key, records, findings) -> None:
    """TL003: slices on one row never overlap (batch duplicates aside)."""
    cell, series = key
    slices = sorted(bounds for bounds in map(_slice_bounds, records)
                    if bounds is not None)
    for (s0, e0), (s1, e1) in zip(slices, slices[1:]):
        if (s1, e1) == (s0, e0):  # coincident batch-swap slices
            continue
        if s1 < e0 - _SLICE_TOL:
            findings.append(LintFinding(
                "TL003", f"slice [{s1:g}, {e1:g}] overlaps "
                f"[{s0:g}, {e0:g}]", cell, series))


def _resolves_revocation(record: dict, host) -> bool:
    """Whether ``record`` accounts for a revocation of ``host``."""
    kind = record.get("kind")
    if kind == "fault.stall":
        return record.get("host") == host
    if kind == "fault.recovery":
        return (record.get("host") == host
                or record.get("out_host") == host
                or host in record.get("hosts", ()))
    return False


def _lint_fault_accounting(key, records, findings) -> None:
    """TL007: each revocation is recovered from or declared a stall.

    Strategies emit ``fault.revocation`` only when a revocation hits a
    host they are actively computing on, and resolve it before the host
    can be revoked again, so every such record must be followed -- in
    the same row, before the next revocation of the same host -- by a
    ``fault.recovery`` (promotion, restart, repartition, or a host
    return that resolved it) or a declared ``fault.stall`` naming that
    host.  A later revocation's recovery does not cover an earlier one.
    """
    cell, series = key
    pending: "dict" = {}  # host -> index of its unresolved revocation
    unresolved: "list[int]" = []
    for index, record in enumerate(records):
        if record.get("kind") == "fault.revocation":
            host = record.get("host")
            if host in pending:
                unresolved.append(pending[host])
            pending[host] = index
        elif pending:
            for host in [h for h in pending
                         if _resolves_revocation(record, h)]:
                del pending[host]
    for index in sorted([*unresolved, *pending.values()]):
        record = records[index]
        findings.append(LintFinding(
            "TL007", f"revocation of host {record.get('host')} at "
            f"t={as_float(record['t']):g} (record {index}) has no "
            f"recovery or declared stall of its own", cell, series))


_GATE_KEYS = ("gate", "accepted", "reason", "out_host", "in_host")


def _lint_gate_trail(record, index, findings) -> None:
    """TL004: decision records carry a complete, consistent gate trail.

    ``decide_swaps`` commits the longest *prefix* of proposed moves whose
    cumulative application gate passed, so a committed move may itself
    carry an ``application``-rejected gate entry -- the invariants are
    that the moves match the first ``len(moves)`` application-level gate
    entries pairwise, and that the committed prefix ends at an
    ``accepted`` gate.
    """
    cell = cell_key(record)
    series = record.get("series")
    accepted = record.get("accepted")
    if "gates" in record:  # batch swap decision
        moves = record.get("moves", [])
        if accepted != bool(moves):
            findings.append(LintFinding(
                "TL004", f"decision {index}: accepted={accepted!r} but "
                f"{len(moves)} moves", cell, series))
        for gate in record["gates"]:
            missing = [k for k in _GATE_KEYS if k not in gate]
            if missing:
                findings.append(LintFinding(
                    "TL004", f"decision {index}: gate entry missing "
                    f"{missing}", cell, series))
        candidate_gates = [g for g in record["gates"]
                           if g.get("gate") in ("application", "accepted")]
        if len(moves) > len(candidate_gates):
            findings.append(LintFinding(
                "TL004", f"decision {index}: {len(moves)} moves but only "
                f"{len(candidate_gates)} application-level gate entries",
                cell, series))
        else:
            for move, gate in zip(moves, candidate_gates):
                if (move.get("out_host"), move.get("in_host")) != \
                        (gate.get("out_host"), gate.get("in_host")):
                    findings.append(LintFinding(
                        "TL004", f"decision {index}: move "
                        f"h{move.get('out_host')}->h{move.get('in_host')} "
                        f"does not match its gate entry", cell, series))
            if moves and not candidate_gates[len(moves) - 1].get("accepted"):
                findings.append(LintFinding(
                    "TL004", f"decision {index}: committed prefix of "
                    f"{len(moves)} moves does not end at an accepting "
                    f"gate", cell, series))
        if not accepted and record["gates"] \
                and not record.get("rejected_reason"):
            findings.append(LintFinding(
                "TL004", f"decision {index}: rejected with gate trail but "
                f"empty rejected_reason", cell, series))
    else:  # CR-style whole-set check
        if not accepted and not record.get("rejected_reason"):
            findings.append(LintFinding(
                "TL004", f"decision {index}: rejected without a reason",
                cell, series))


def _counter_value(payload: dict, name: str) -> float:
    value = payload.get("counters", {}).get(name, 0.0)
    return float(value)


def _lint_metrics(ts: TraceSet, metrics, findings) -> None:
    """TL005: the metrics registry agrees with the trace itself."""
    payload = metrics.to_dict() if hasattr(metrics, "to_dict") else metrics
    summary = decision_summary(ts)
    checks = (
        ("decision.epochs_total", summary["epochs"]),
        ("decision.epochs_rejected_total", summary["rejected"]),
        ("decision.moves_total",
         sum(len(r["moves"]) for r in ts.records
             if r.get("kind") == "decision" and "moves" in r)),
        ("strategy.iterations_total",
         sum(1 for r in ts.records if r.get("kind") == "iteration")),
    )
    for name, expected in checks:
        got = _counter_value(payload, name)
        if got != float(expected):
            findings.append(LintFinding(
                "TL005", f"counter {name}={got:g} but the trace implies "
                f"{expected}"))
    histogram = payload.get("histograms", {}).get(
        "decision.payback_iterations")
    expected_observations = len(payback_values(ts))
    if histogram is not None and int(histogram["count"]) \
            != expected_observations:
        findings.append(LintFinding(
            "TL005", f"histogram decision.payback_iterations counts "
            f"{histogram['count']} observations but the trace has "
            f"{expected_observations} accepted paybacks"))


def lint(ts: TraceSet, metrics=None) -> "list[LintFinding]":
    """Check every TL invariant; an empty list means the trace is clean.

    ``metrics`` (a :class:`~repro.obs.metrics.MetricsRegistry` or its
    ``to_dict`` payload) enables the TL005 cross-consistency checks; it
    must come from the same run as the trace.
    """
    findings: "list[LintFinding]" = []
    for bad in ts.bad_lines:
        findings.append(LintFinding(
            "TL006", f"line {bad.number} unparseable ({bad.error}): "
            f"{bad.text!r}"))
    for key, records in ts.rows().items():
        _lint_row_times(key, records, findings)
        _lint_slice_overlap(key, records, findings)
        _lint_fault_accounting(key, records, findings)
    for index, record in enumerate(ts.records):
        if record.get("kind") == "decision":
            _lint_gate_trail(record, index, findings)
    if metrics is not None:
        _lint_metrics(ts, metrics, findings)
    return findings

