"""Boundary timing of the coordinator's liveness clock, on a fake clock.

The fabric's lease-expiry rule is ``now - max(last_seen, granted) >
lease_timeout`` (strictly greater), and it only applies to a worker
holding a lease: a message landing *exactly* at the timeout keeps the
worker, and a parked worker -- one whose ``REQUEST_WORK`` found the
queue empty -- is never revoked however long it stays silent.  These
tests drive :class:`Coordinator` internals directly
with hand-built worker handles and an injected monotonic clock, so every
boundary is exact -- no sleeps, no real transports.

Also here: the lease prefetch (a worker's next batch joins the lease it
holds, so its death requeues both leases' cells once), and the
worker-lifetime accounting regression (each id's *final* lifetime is
recorded exactly once; the old ``setdefault`` on the shutdown path could
freeze a stale value recorded at revoke time).
"""

import json
from collections import deque

import pytest

from repro.app.iterative import ApplicationSpec
from repro.errors import FabricError
from repro.experiments.executor import CellResult, compute_cell, execute_sweep
from repro.experiments.fabric import (
    ASSIGN_CELLS,
    CELL_RESULT,
    REQUEST_WORK,
    Coordinator,
    Envelope,
    FabricConfig,
    WorkerHandle,
    _Lease,
    _Worker,
)
from repro.experiments.scenarios import ExperimentSpec
from repro.load.base import ConstantLoadModel
from repro.platform.cluster import make_platform
from repro.strategies.nothing import NothingStrategy


def _build(x, seed):
    platform = make_platform(3, ConstantLoadModel(int(x)), seed=seed,
                             speed_range=(100e6, 200e6))
    app = ApplicationSpec(n_processes=2, iterations=2,
                          flops_per_iteration=1e8)
    return platform, [("nothing", app, NothingStrategy())]


SPEC = ExperimentSpec(name="timing-spec", title="timing", xlabel="n",
                      x_values=(0.0, 1.0), build=_build,
                      paper_claim="toy", default_seeds=1)


class FakeClock:
    def __init__(self, start: float = 0.0) -> None:
        self.now = start

    def __call__(self) -> float:
        return self.now

    def advance(self, dt: float) -> float:
        self.now += dt
        return self.now


class FakeChannel:
    """A scripted coordinator-side channel: the test enqueues envelopes."""

    def __init__(self) -> None:
        self.inbox: "deque[Envelope]" = deque()
        self.sent: "list[Envelope]" = []
        self.closed = False

    def push(self, kind: str, sender: str, **payload) -> None:
        self.inbox.append(Envelope(kind=kind, sender=sender,
                                   payload=payload))

    def poll(self) -> bool:
        return bool(self.inbox)

    def recv(self, timeout=None):
        return self.inbox.popleft() if self.inbox else None

    def send(self, env: Envelope) -> None:
        self.sent.append(env)

    def close(self) -> None:
        self.closed = True


def _coordinator(clock, *, lease_timeout=30.0, max_worker_restarts=0):
    config = FabricConfig(workers=1, transport="process",
                          lease_timeout=lease_timeout,
                          max_worker_restarts=max_worker_restarts)
    return Coordinator(SPEC, [0], config=config, cache=None, clock=clock)


def _register(coord, worker_id, *, started=0.0, alive=True):
    """Install a hand-built live worker into the coordinator."""
    channel = FakeChannel()
    handle = WorkerHandle(worker_id=worker_id, channel=channel,
                          waitable=None, is_alive=lambda: alive, kill=lambda: None,
                          join=lambda timeout: None, started=started)
    coord._workers[worker_id] = _Worker(handle=handle, last_seen=started)
    return channel


def _lease(coord, worker_id, keys):
    """Give the worker an outstanding lease over ``keys`` and register
    the matching cell specs as still-pending work."""
    worker = coord._workers[worker_id]
    for xi, si in keys:
        coord._cell_specs[(xi, si)] = {"xi": xi, "si": si, "x": float(xi),
                                       "seed": si, "digest": "d" * 64}
    worker.lease = _Lease(lease_id=coord._next_lease, worker_id=worker_id,
                          outstanding=set(keys))
    coord._next_lease += 1


def _queue(coord, keys):
    """Register ``keys`` as pending cells waiting in the queue."""
    for xi, si in keys:
        record = {"xi": xi, "si": si, "x": float(xi), "seed": si,
                  "digest": "d" * 64}
        coord._cell_specs[(xi, si)] = record
        coord.queue.append(record)


# -- a message exactly at the timeout ---------------------------------------


def test_request_exactly_at_lease_timeout_keeps_worker():
    # w0 was leased a cell at t=0 and asks ahead for its next lease as
    # that cell starts; the request lands at t=30.0 exactly, when the
    # silence is NOT yet > timeout.  The empty queue parks w0, which
    # keeps its lease, and its lease clock restarts at the request.
    clock = FakeClock()
    coord = _coordinator(clock, lease_timeout=30.0)
    channel = _register(coord, "w0", started=0.0)
    _register(coord, "w1", started=0.0)  # fleet survivor
    _lease(coord, "w0", [(0, 0)])
    channel.push(REQUEST_WORK, "w0")
    clock.now = 30.0
    coord._drive()
    assert "w0" in coord._workers
    assert coord.stats.workers_lost == 0
    assert coord.stats.work_requests == 1
    worker = coord._workers["w0"]
    assert worker.last_seen == 30.0
    assert worker.parked and worker.lease.outstanding == {(0, 0)}
    clock.now = 60.0
    coord._drive()
    assert "w0" in coord._workers
    clock.now = 60.000001
    coord._drive()
    assert "w0" not in coord._workers
    assert coord.stats.workers_lost == 1


def test_silence_exactly_at_lease_timeout_keeps_worker():
    # The strict-> boundary without any message at all: a leased worker
    # last seen at t=0 survives the poll at t=30.0 and dies at
    # t=30.000001.  The equally silent w1 holds no lease, so it stays.
    clock = FakeClock()
    coord = _coordinator(clock, lease_timeout=30.0)
    _register(coord, "w0", started=0.0)
    _register(coord, "w1", started=0.0)  # fleet survivor
    _lease(coord, "w0", [(0, 0)])
    clock.now = 30.0
    coord._drive()
    assert "w0" in coord._workers
    clock.now = 30.000001
    coord._drive()
    assert "w0" not in coord._workers
    assert "w1" in coord._workers
    assert coord.stats.workers_lost == 1


def test_expired_lease_requeues_outstanding_cells_in_grid_order():
    clock = FakeClock()
    coord = _coordinator(clock, lease_timeout=10.0)
    _register(coord, "w0", started=0.0)
    _register(coord, "w1", started=0.0)
    coord._workers["w1"].last_seen = 5.0  # w1 stays inside the window
    _lease(coord, "w0", [(1, 0), (0, 0)])
    clock.now = 10.5
    coord._drive()
    assert "w0" not in coord._workers
    assert coord.stats.revoked_leases == 1
    assert coord.stats.requeued_cells == 2
    assert [(c["xi"], c["si"]) for c in coord.queue] == [(0, 0), (1, 0)]
    assert "w1" in coord._workers


# -- parked workers ----------------------------------------------------------


def test_request_on_empty_queue_parks_without_a_reply():
    clock = FakeClock()
    coord = _coordinator(clock)
    channel = _register(coord, "w0")
    channel.push(REQUEST_WORK, "w0")
    coord._drive()
    assert channel.sent == []  # no DRAIN, no ASSIGN_CELLS: it waits
    assert coord._workers["w0"].parked
    assert coord._workers["w0"].lease is None
    assert coord.stats.work_requests == 1


def test_revoked_cells_go_to_a_parked_worker_in_the_same_drive():
    clock = FakeClock()
    coord = _coordinator(clock, lease_timeout=10.0)
    _register(coord, "w0", started=0.0)
    parked = _register(coord, "w1", started=0.0)
    _lease(coord, "w0", [(1, 0), (0, 0)])
    parked.push(REQUEST_WORK, "w1")
    coord._drive()
    assert coord._workers["w1"].parked and parked.sent == []

    clock.now = 10.5  # w0's lease expires
    coord._drive()
    assert "w0" not in coord._workers
    assert [env.kind for env in parked.sent] == [ASSIGN_CELLS]
    cells = parked.sent[0].payload["cells"]
    assert [(c["xi"], c["si"]) for c in cells] == [(0, 0), (1, 0)]
    w1 = coord._workers["w1"]
    assert not w1.parked
    assert w1.lease.outstanding == {(0, 0), (1, 0)}
    assert w1.lease.granted == 10.5
    assert not coord.queue


def test_lease_shrinks_to_a_fair_share_of_the_last_cells():
    # Three cells left, two workers, lease_size 4: a full lease would
    # leave w1 parked behind w0's three cells.
    clock = FakeClock()
    coord = _coordinator(clock)
    first = _register(coord, "w0")
    second = _register(coord, "w1")
    _queue(coord, [(xi, 0) for xi in range(3)])
    first.push(REQUEST_WORK, "w0")
    second.push(REQUEST_WORK, "w1")
    coord._drive()
    assert [[c["xi"] for c in channel.sent[0].payload["cells"]]
            for channel in (first, second)] == [[0, 1], [2]]


def test_parked_worker_silent_past_lease_timeout_is_kept():
    # A parked worker sends nothing until it is leased work, which can
    # take longer than a short lease_timeout; without a lease it has
    # nothing to lose.
    clock = FakeClock()
    coord = _coordinator(clock, lease_timeout=0.5)
    channel = _register(coord, "w0")
    channel.push(REQUEST_WORK, "w0")
    coord._drive()
    clock.now = 100.0
    coord._drive()
    assert "w0" in coord._workers
    assert coord.stats.workers_lost == 0
    assert coord._stragglers(clock.now) == 0


def test_lease_to_a_long_silent_parked_worker_gets_the_full_timeout():
    # w1 parked at t=0 and said nothing since.  When w0's cells reach it
    # at t=10.5, its lease clock starts at the assignment, not at its
    # last message: it keeps the lease until t=20.5 exactly.
    clock = FakeClock()
    coord = _coordinator(clock, lease_timeout=10.0)
    _register(coord, "w0", started=0.0)
    parked = _register(coord, "w1", started=0.0)
    _register(coord, "keeper", started=0.0)  # holds no lease: never lost
    _lease(coord, "w0", [(0, 0)])
    parked.push(REQUEST_WORK, "w1")
    coord._drive()
    clock.now = 10.5
    coord._drive()
    assert coord._workers["w1"].lease is not None
    clock.now = 20.5
    coord._drive()
    assert "w1" in coord._workers
    clock.now = 20.500001
    coord._drive()
    assert "w1" not in coord._workers
    assert coord.stats.revoked_leases == 2


# -- revoke-vs-result clock ordering ----------------------------------------


def _cell_payload():
    cell = compute_cell(SPEC, 0.0, 0)
    return cell.to_payload()


def test_result_already_queued_beats_the_revoke():
    # The worker went silent past the timeout, but its CELL_RESULT is
    # already sitting in the channel when the poll round runs.  Messages
    # are pumped before expiry is checked -- with the same ``now`` -- so
    # the result lands, refreshes liveness, and the worker survives.
    clock = FakeClock()
    coord = _coordinator(clock, lease_timeout=10.0)
    channel = _register(coord, "w0", started=0.0)
    _lease(coord, "w0", [(0, 0)])
    channel.push(CELL_RESULT, "w0", lease=0, xi=0, si=0, x=0.0, seed=0,
                 ok=True, cell=_cell_payload(), wall_s=0.25)
    clock.now = 11.0  # past the timeout
    coord._drive()
    assert "w0" in coord._workers
    assert coord.done == {(0, 0)}
    assert coord.fold.folded == 1
    assert coord.fold.walls == [0.25]
    assert coord.stats.workers_lost == 0


def test_result_after_revoke_and_recompute_is_a_counted_duplicate():
    # w0's lease expired and (0, 0) was recomputed by w1; the stale
    # result w0 pushed before dying must count as a duplicate and leave
    # the first-won cell untouched: the fold keeps the first copy's
    # makespan, never sees the second (marked with a different one).
    clock = FakeClock()
    coord = _coordinator(clock, lease_timeout=10.0)
    _register(coord, "w0", started=0.0)
    w1_channel = _register(coord, "w1", started=0.0)
    coord._workers["w1"].last_seen = 8.0
    _lease(coord, "w0", [(0, 0)])
    clock.now = 10.5
    coord._drive()  # w0 revoked, (0, 0) requeued
    assert coord.queue and "w0" not in coord._workers

    payload = _cell_payload()
    w1_channel.push(CELL_RESULT, "w1", lease=1, xi=0, si=0, x=0.0,
                    seed=0, ok=True, cell=payload, wall_s=0.1)
    clock.now = 11.0
    coord._drive()
    first = payload["makespans"]["nothing"]
    assert coord.done == {(0, 0)}
    assert coord.fold._series["nothing"].raw == [[first]]
    assert coord.stats.duplicate_results == 0

    stale = json.loads(json.dumps(payload))
    stale["makespans"]["nothing"] = first + 1.0
    w1_channel.push(CELL_RESULT, "w1", lease=0, xi=0, si=0, x=0.0,
                    seed=0, ok=True, cell=stale, wall_s=9.9)
    clock.now = 12.0
    coord._drive()
    assert coord.stats.duplicate_results == 1
    assert coord.fold._series["nothing"].raw == [[first]]
    assert coord.fold.folded == 1 and len(coord.fold.buffer) == 0
    assert coord.fold.walls == [0.1]  # the duplicate's wall is ignored


def test_results_alone_keep_a_leased_worker():
    # A leased worker speaks only with results: each CELL_RESULT resets
    # the lease clock, so results 9.9 s apart never let a 10 s lease
    # lapse.
    clock = FakeClock()
    coord = _coordinator(clock, lease_timeout=10.0)
    channel = _register(coord, "w0", started=0.0)
    keys = [(xi, 0) for xi in range(4)]
    _lease(coord, "w0", keys)
    payload = _cell_payload()
    for k, (xi, si) in enumerate(keys, start=1):
        clock.now = 9.9 * k - 0.05  # silent, but inside the window
        coord._drive()
        assert "w0" in coord._workers
        channel.push(CELL_RESULT, "w0", lease=0, xi=xi, si=si, x=float(xi),
                     seed=si, ok=True, cell=payload, wall_s=9.9)
        clock.now = 9.9 * k
        coord._drive()
    assert coord.stats.workers_lost == 0
    assert coord._workers["w0"].lease is None
    assert coord.done == set(keys)


def test_result_for_a_cell_no_lease_carried_drops_the_worker():
    # In a one-seed grid, a stray (0, 1) has (1, 0)'s grid index: the
    # coordinator must treat it as a protocol error, never fold it.
    clock = FakeClock()
    coord = _coordinator(clock)
    channel = _register(coord, "w0")
    _register(coord, "w1")
    _lease(coord, "w0", [(0, 0)])
    channel.push(CELL_RESULT, "w0", lease=0, xi=0, si=1, x=0.0, seed=1,
                 ok=True, cell=_cell_payload(), wall_s=0.1)
    coord._drive()
    assert "w0" not in coord._workers and "w1" in coord._workers
    assert coord.done == set()
    assert coord.fold.folded == 0 and not coord.fold.buffer
    assert [c["xi"] for c in coord.queue] == [0]  # (0, 0) requeued


# -- the reorder buffer --------------------------------------------------------


def test_results_in_reverse_grid_order_wait_for_the_head():
    # Every result but the grid's first arrives ahead of a predecessor
    # and waits in the fold's buffer; the head's arrival folds them all,
    # and the coordinator itself keeps only their coordinates.
    clock = FakeClock()
    seeds = [0, 1]
    config = FabricConfig(workers=1, transport="process",
                          max_worker_restarts=0)
    coord = Coordinator(SPEC, seeds, config=config, cache=None, clock=clock)
    channel = _register(coord, "w0")
    keys = [(xi, si) for xi in range(len(SPEC.x_values))
            for si in range(len(seeds))]
    for key in keys:
        coord._cell_specs[key] = {"xi": key[0], "si": key[1]}
    for arrived, (xi, si) in enumerate(reversed(keys), start=1):
        x, seed = SPEC.x_values[xi], seeds[si]
        channel.push(CELL_RESULT, "w0", lease=0, xi=xi, si=si, x=x,
                     seed=seed, ok=True,
                     cell=compute_cell(SPEC, x, seed).to_payload(),
                     wall_s=0.1)
        coord._drive()
        if arrived < len(keys):
            assert len(coord.fold.buffer) == arrived
            assert coord.fold.folded == 0
    assert len(coord.fold.buffer) == 0
    assert coord.fold.folded == len(keys)
    assert coord.done == set(keys)
    assert not hasattr(coord, "cells")
    serial, _timing = execute_sweep(SPEC, seeds=seeds)
    assert coord.fold.result().to_dict() == serial.to_dict()


# -- lease prefetch ------------------------------------------------------------


def test_prefetch_extends_the_lease_and_a_death_requeues_both_once():
    # w0 asks for lease B as lease A's last cell starts; it dies holding
    # that cell and all of B.  Each is requeued exactly once, and the
    # parked w1 gets them in the same drive.
    clock = FakeClock()
    config = FabricConfig(workers=2, transport="process", lease_size=2,
                          max_worker_restarts=0)
    coord = Coordinator(SPEC, [0], config=config, cache=None, clock=clock)
    w0 = _register(coord, "w0")
    w1 = _register(coord, "w1")
    _queue(coord, [(xi, 0) for xi in range(4)])
    payload = _cell_payload()

    w0.push(REQUEST_WORK, "w0")
    coord._drive()  # lease A: cells 0 and 1
    assert [c["xi"] for c in w0.sent[0].payload["cells"]] == [0, 1]
    lease_a = w0.sent[0].payload["lease"]

    clock.now = 1.0
    w0.push(CELL_RESULT, "w0", lease=lease_a, xi=0, si=0, x=0.0, seed=0,
            ok=True, cell=payload, wall_s=1.0)
    w0.push(REQUEST_WORK, "w0")  # cell 1, A's last, starts: prefetch
    coord._drive()  # lease B: a fair share of the two left, cell 2
    lease_b = w0.sent[1].payload["lease"]
    assert lease_b != lease_a
    assert [c["xi"] for c in w0.sent[1].payload["cells"]] == [2]
    held = coord._workers["w0"].lease
    assert held.outstanding == {(1, 0), (2, 0)}
    assert held.lease_id == lease_b and held.granted == 1.0

    w1.push(REQUEST_WORK, "w1")
    w1.push(CELL_RESULT, "w1", lease=2, xi=3, si=0, x=3.0, seed=0, ok=True,
            cell=payload, wall_s=0.5)
    w1.push(REQUEST_WORK, "w1")  # nothing left: w1 parks
    coord._drive()
    assert coord._workers["w1"].parked
    assert coord._workers["w1"].lease is None

    clock.now = 2.0
    coord._workers["w0"].handle.is_alive = lambda: False
    coord._drive()
    assert "w0" not in coord._workers
    assert coord.stats.revoked_leases == 1
    assert coord.stats.requeued_cells == 2
    assert [env.kind for env in w1.sent] == [ASSIGN_CELLS, ASSIGN_CELLS]
    assert [(c["xi"], c["si"]) for c in w1.sent[1].payload["cells"]] \
        == [(1, 0), (2, 0)]
    assert coord._workers["w1"].lease.outstanding == {(1, 0), (2, 0)}
    assert not coord.queue


def test_all_workers_lost_with_no_restart_budget_raises():
    clock = FakeClock()
    coord = _coordinator(clock, lease_timeout=10.0,
                         max_worker_restarts=0)
    _register(coord, "w0", started=0.0)
    _lease(coord, "w0", [(0, 0)])
    clock.now = 20.0
    with pytest.raises(FabricError, match="restart budget"):
        coord._drive()


# -- worker-lifetime accounting (the setdefault regression) -----------------


def test_lifetime_recorded_once_on_loss():
    clock = FakeClock()
    coord = _coordinator(clock, lease_timeout=10.0)
    _register(coord, "w0", started=2.0)
    _register(coord, "w1", started=0.0)
    coord._workers["w1"].last_seen = 9.0
    _lease(coord, "w0", [(0, 0)])
    clock.now = 14.0
    coord._drive()  # w0 silent for 12s > 10s
    assert coord.stats.worker_lifetimes == {"w0": 12.0}


def test_shutdown_lifetime_wins_over_stale_revoke_lifetime():
    # Regression: a worker id revoked at t=10 (lifetime 10) that is
    # *re-registered* and still alive at shutdown must record its final
    # lifetime -- the old ``setdefault`` froze the stale 10.0 forever.
    clock = FakeClock()
    coord = _coordinator(clock, lease_timeout=10.0)
    _register(coord, "w0", started=0.0)
    _register(coord, "keeper", started=0.0)
    coord._workers["keeper"].last_seen = 9.0
    _lease(coord, "w0", [(0, 0)])
    clock.now = 10.5
    coord._drive()
    assert coord.stats.worker_lifetimes["w0"] == 10.5

    _register(coord, "w0", started=5.0)  # same id, later registration
    coord._workers["w0"].last_seen = clock.now
    clock.now = 50.0
    coord._shutdown_fleet()
    assert coord.stats.worker_lifetimes["w0"] == 45.0  # not the stale 10.5
    assert coord.stats.worker_lifetimes["keeper"] == 50.0
    assert not coord._workers


def test_shutdown_records_every_worker_exactly_once():
    clock = FakeClock()
    coord = _coordinator(clock)
    _register(coord, "w0", started=1.0)
    _register(coord, "w1", started=3.0)
    clock.now = 7.0
    coord._shutdown_fleet()
    assert coord.stats.worker_lifetimes == {"w0": 6.0, "w1": 4.0}


# -- telemetry stays out of the deterministic result ------------------------


def test_fake_clock_run_with_telemetry_is_byte_identical(tmp_path):
    """End-to-end on the process transport: telemetry on vs off."""
    from repro.experiments.fabric import execute_sweep_fabric

    plain, _, _ = execute_sweep_fabric(SPEC, seeds=1, workers=2,
                                       transport="process")
    run_dir = tmp_path / "rt"
    traced, _, _ = execute_sweep_fabric(SPEC, seeds=1, workers=2,
                                        transport="process",
                                        runtime_dir=run_dir)
    assert json.dumps(plain.to_dict(), sort_keys=True) == \
        json.dumps(traced.to_dict(), sort_keys=True)
    names = {p.name for p in run_dir.iterdir()}
    assert names == {"spans.jsonl", "timeline.trace.json", "progress.json"}
    doc = json.loads((run_dir / "timeline.trace.json").read_text())
    track_names = {e["args"]["name"] for e in doc["traceEvents"]
                   if e["ph"] == "M"}
    assert "coordinator" in track_names
    assert any(n.startswith("worker ") for n in track_names)
