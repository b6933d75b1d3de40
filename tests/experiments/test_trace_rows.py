"""A traced cell holds each finished block of its records as one packed
bytes object, and every way a cell travels -- the cache, a fabric
worker's frame, the unlowered reference -- gives back the same records
and export bytes."""

import json
import pickle
import pickletools

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
#: Packed bytes per record, at most.  A packed row of this cell takes
#: about 57 bytes; the live row it replaces, about 300.
PACKED_BYTES_PER_RECORD = 80
#: Opcodes that name or call an object: a packed block must need none.
IMPORTING_OPCODES = {"GLOBAL", "STACK_GLOBAL", "REDUCE", "INST", "OBJ",
                     "NEWOBJ", "NEWOBJ_EX", "BUILD"}


@pytest.fixture(scope="module")
def cell() -> CellResult:
    return compute_cell(SPEC, X, 0, instrument=True)


def _exports(cell: CellResult) -> "tuple[str, str]":
    recorder = TraceRecorder()
    recorder.extend(cell.trace_events)
    return recorder.to_jsonl(), recorder.to_chrome_json()


def test_traced_cell_blocks_are_packed():
    rows = compute_cell(SPEC, X, 0, instrument=True).trace_events
    # Every block is closed: its context, its count and one bytes
    # object; no block is open and no row tuple is held.
    assert rows.open is None and rows.blocks
    assert all([type(v) for v in block] == [dict, int, bytes]
               for block in rows.blocks)
    unpacked = [pickle.loads(packed) for _ctx, _n, packed in rows.blocks]
    assert [len(block) for block in unpacked] == [
        n for _ctx, n, _packed in rows.blocks]
    assert len(rows) == sum(map(len, unpacked))
    kinds = {row[1] for block in unpacked for row in block}
    assert {"iteration", "decision", "rebalance", "fault.revocation",
            "fault.recovery"} <= kinds
    # The pickles hold builtin values only: nothing is imported or
    # called to unpack them.
    for _ctx, _n, packed in rows.blocks:
        ops = {op.name for op, _arg, _pos in pickletools.genops(packed)}
        assert not ops & IMPORTING_OPCODES
    packed_bytes = sum(len(packed) for _ctx, _n, packed in rows.blocks)
    assert packed_bytes < PACKED_BYTES_PER_RECORD * len(rows)


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
    # Loaded rows hold the context once per block, as computed ones do,
    # every block packed.
    for other in (cached, wired, reference):
        assert other.trace_events.open is None
        assert [n for _ctx, n, _packed in other.trace_events.blocks] == [
            n for _ctx, n, _packed in cell.trace_events.blocks]
