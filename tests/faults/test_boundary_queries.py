"""Each fault-aware boundary asks for what it needs once.

* CR ranks its restart candidates from the ``(t, window)`` rate map it
  has just predicted after an iteration, instead of predicting the
  alive hosts' rates a second time: one ``rates_map`` call per
  post-iteration boundary.
* DLB's membership update asks the fault plan once per boundary (and per
  stall step) with :meth:`FaultPlan.revoked_at`, never host by host
  through :meth:`FaultPlan.is_revoked`.
* Neither shortcut moves a float: a traced ext-faults cell equals its
  ``disable_lowering()`` run, records included.
"""

import json

import pytest

from repro.experiments.executor import compute_cell
from repro.experiments.scenarios import get_scenario
from repro.faults.plan import FaultPlan
from repro.load.kernels import HostBatch
from repro.simkernel.plan import disable_lowering
from repro.strategies.cr import CrStrategy
from repro.strategies.dlb import DlbStrategy

from tests.faults.test_strategies import faulty_platform, small_app


@pytest.fixture
def rates_map_calls(monkeypatch):
    calls = [0]
    original = HostBatch.rates_map

    def counted(self, *args, **kwargs):
        calls[0] += 1
        return original(self, *args, **kwargs)

    monkeypatch.setattr(HostBatch, "rates_map", counted)
    return calls


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_cr_predicts_rates_once_per_post_iteration_boundary(
        seed, rates_map_calls, monkeypatch):
    per_boundary = []
    original = CrStrategy._after_iteration

    def after(self, i, start, t, active, chunks):
        before = rates_map_calls[0]
        out = original(self, i, start, t, active, chunks)
        per_boundary.append((i, rates_map_calls[0] - before))
        return out

    monkeypatch.setattr(CrStrategy, "_after_iteration", after)
    app = small_app()
    platform = faulty_platform(seed)
    result = CrStrategy().run(platform, app)
    assert result.iteration_count == app.iterations
    assert len(per_boundary) == app.iterations
    assert per_boundary[-1] == (app.iterations, 0)
    assert {n for _i, n in per_boundary[:-1]} == {1}


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_dlb_never_asks_the_fault_plan_host_by_host(seed, monkeypatch):
    revoked_at = []
    original = FaultPlan.revoked_at

    def counted(self, t, hosts):
        revoked_at.append(t)
        return original(self, t, hosts)

    def forbidden(self, host, t):
        raise AssertionError("DLB called FaultPlan.is_revoked")

    monkeypatch.setattr(FaultPlan, "revoked_at", counted)
    monkeypatch.setattr(FaultPlan, "is_revoked", forbidden)
    app = small_app()
    result = DlbStrategy().run(faulty_platform(seed), app)
    assert result.iteration_count == app.iterations
    # At least one membership query per boundary.
    assert len(revoked_at) >= app.iterations


def test_faulted_traced_cell_equals_unlowered_run():
    spec = get_scenario("ext-faults")
    x = spec.x_values[-1]
    lowered = compute_cell(spec, x, 3, instrument=True)
    with disable_lowering():
        generic = compute_cell(spec, x, 3, instrument=True)
    assert lowered.makespans == generic.makespans
    assert lowered.events == generic.events
    assert lowered.iterations == generic.iterations
    assert sum(lowered.events.values()) > 0
    # Same records, same key order (the JSONL export sorts keys; the
    # in-memory records must match regardless).
    assert ([json.dumps(r) for r in lowered.trace_events]
            == [json.dumps(r) for r in generic.trace_events])
    assert lowered.metrics == generic.metrics
