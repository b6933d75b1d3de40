"""The grid-order fold: completion order, duplicates and retention.

A sweep's cells may arrive in any order, and a re-leased fabric cell
may arrive twice.  :class:`SweepFold` must produce the same result,
trace and metrics bytes as the dict-in :func:`merge_cells` /
:func:`fold_obs` for every such delivery, and must drop each cell once
it is folded: a serial sweep keeps one computed cell alive at a time.
"""

import functools
import weakref

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.experiments import executor
from repro.experiments.executor import (CellResult, SweepFold, compute_cell,
                                        execute_sweep, fold_obs, merge_cells)
from repro.experiments.scenarios import get_scenario

SEEDS = [0, 1]


@functools.lru_cache(maxsize=None)
def _traced_grid():
    """A traced ext-faults grid, computed once: ``{(xi, si): cell}``."""
    spec = get_scenario("ext-faults")
    cells = {(xi, si): compute_cell(spec, x, seed, instrument=True)
             for xi, x in enumerate(spec.x_values)
             for si, seed in enumerate(SEEDS)}
    return spec, cells


def _exports(result, session):
    return (result.to_dict(), session.trace.to_jsonl(),
            session.metrics.to_json())


@functools.lru_cache(maxsize=None)
def _reference():
    spec, cells = _traced_grid()
    session = obs.ObsSession()
    result = merge_cells(spec, SEEDS, cells)
    fold_obs(session, spec, SEEDS, cells)
    return _exports(result, session)


@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_any_completion_order_with_duplicates_folds_to_the_same_bytes(data):
    spec, cells = _traced_grid()
    keys = sorted(cells)
    deliveries = list(data.draw(st.permutations(keys)))
    for position, key in data.draw(st.lists(
            st.tuples(st.integers(0, len(keys)), st.sampled_from(keys)),
            max_size=len(keys))):
        deliveries.insert(position, key)
    session = obs.ObsSession()
    fold = SweepFold(spec, SEEDS, session)
    firsts = []
    for key in deliveries:
        # A duplicate is a deterministic recompute: an equal copy.
        cell = CellResult.from_payload(cells[key].to_payload())
        if fold.add(*key, cell, computed=False):
            firsts.append(key)
    assert sorted(firsts) == keys  # exactly one copy of each is taken
    assert len(fold.buffer) == 0
    assert _exports(fold.result(), session) == _reference()


def test_serial_sweep_keeps_one_computed_cell_alive(monkeypatch):
    computed = []
    alive_counts = []

    def alive() -> int:
        return sum(ref() is not None for ref in computed)

    def tracked(spec, x, seed, **kwargs):
        alive_counts.append(alive())
        cell = compute_cell(spec, x, seed, **kwargs)
        computed.append(weakref.ref(cell))
        alive_counts.append(alive())
        return cell

    monkeypatch.setattr(executor, "compute_cell", tracked)
    spec = get_scenario("ext-faults")
    session = obs.ObsSession()
    result, timing = execute_sweep(spec, seeds=SEEDS, obs_session=session)
    assert len(computed) == timing.cells_computed == len(spec.x_values) * 2
    assert max(alive_counts) == 1
    assert _exports(result, session) == _reference()
