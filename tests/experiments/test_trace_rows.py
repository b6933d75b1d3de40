"""A traced cell holds its records as rows the cyclic GC stops walking,
and every way a cell travels -- the cache, a fabric worker's frame, the
unlowered reference -- gives back the same records and export bytes."""

import gc
import json
import pickle

import pytest

from repro.experiments.executor import CellCache, CellResult, compute_cell
from repro.experiments.fabric import CELL_RESULT, Envelope
from repro.experiments.fabric.wire import restricted_loads
from repro.experiments.scenarios import get_scenario
from repro.obs.trace import TraceRecorder
from repro.simkernel.plan import disable_lowering

SPEC = get_scenario("ext-faults")
#: The grid's most faulted point: every record kind the strategies emit.
X = SPEC.x_values[-1]


@pytest.fixture(scope="module")
def cell() -> CellResult:
    return compute_cell(SPEC, X, 0, instrument=True)


def _rows(cell: CellResult) -> list:
    return [row for _context, rows in cell.trace_events.blocks
            for row in rows]


def _exports(cell: CellResult) -> "tuple[str, str]":
    recorder = TraceRecorder()
    recorder.extend(cell.trace_events)
    return recorder.to_jsonl(), recorder.to_chrome_json()


def test_traced_cell_rows_are_untracked_by_the_gc():
    rows = _rows(compute_cell(SPEC, X, 0, instrument=True))
    kinds = {row[1] for row in rows}
    assert {"iteration", "decision", "rebalance", "fault.revocation",
            "fault.recovery"} <= kinds
    # A row holds scalars and tuples of scalars only, so one full
    # collection untracks everything a row holds.  CPython untracks a
    # tuple only once its items are untracked, and that collection may
    # reach a row before a tuple the row built last, so the row itself
    # goes at the next one; after that the GC never walks it again.
    gc.collect()
    assert not any(gc.is_tracked(value) for row in rows for value in row)
    gc.collect()
    assert not any(map(gc.is_tracked, rows))


def test_records_survive_the_cache_the_wire_and_the_reference(cell,
                                                              tmp_path):
    records = list(cell.trace_events)
    assert len(records) == len(cell.trace_events) > 500
    # The cache's JSON lines.
    cache = CellCache(tmp_path)
    cache.store("d" * 64, cell, scenario=SPEC.name, x=X, seed=0)
    cache.close()
    cached = CellCache(tmp_path).load("d" * 64, scenario=SPEC.name)
    # A fabric worker's result frame, decoded as the coordinator does.
    frame = pickle.dumps(Envelope(
        kind=CELL_RESULT, sender="w0",
        payload={"cell": cell.to_payload()}).to_wire())
    wired = CellResult.from_payload(
        Envelope.from_wire(restricted_loads(frame)).payload["cell"])
    # The unlowered, generic reference path.
    with disable_lowering():
        reference = compute_cell(SPEC, X, 0, instrument=True)
    for other in (CellResult.from_payload(
                      json.loads(json.dumps(cell.to_payload()))),
                  cached, wired):
        assert other == cell
        assert _exports(other) == _exports(cell)
    # The reference counts kernel events its own way; its records and
    # metrics are the same.
    assert (reference.makespans, reference.metrics) == (cell.makespans,
                                                        cell.metrics)
    assert list(reference.trace_events) == records
    assert _exports(reference) == _exports(cell)
    # Loaded rows hold the context once per block, as computed ones do.
    assert len(cached.trace_events.blocks) == len(
        [b for b in cell.trace_events.blocks if b[1]])
