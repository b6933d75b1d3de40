"""Per-layer timing from outside the program.

The traced run of the benchmark wraps the public entry point of each
layer of ``repro`` -- as bound at the names callers actually use -- with
a small timer, runs the same cells again, and restores every original
when it is done.  Nothing under ``src/`` knows it is being measured.

Each wrapper records calls and *self* time: a span's
duration minus the part covered by wrapped spans nested inside it, so the
self times of all layers add up to (at most) the traced wall time and a
layer never counts its callees twice.

Fabric workers are forked from the coordinator.  The wrapper around
``worker_main`` installs the compute-layer timers inside the worker and
writes its totals to a JSON file in a directory the benchmark owns when
the worker shuts down, which is how the compute split of the fabric
workload reaches the coordinator without any change to ``src/``.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.experiments.fabric.wire import (ASSIGN_CELLS, CELL_RESULT,
                                           REQUEST_WORK)

_now_ns = time.perf_counter_ns


@dataclass
class Acc:
    """Totals of one layer."""

    calls: int = 0
    self_ns: int = 0
    accepted: int = 0
    """``decide_swaps`` results that swap; ``CellCache.load`` hits."""

    def add(self, other: "Acc") -> None:
        self.calls += other.calls
        self.self_ns += other.self_ns
        self.accepted += other.accepted


@dataclass
class FabricWatch:
    """Coordinator-side observations of the fabric protocol."""

    sweeps: int = 0
    frames: int = 0
    leases: int = 0
    lease_wait_s: float = 0.0
    fleet_start_s: float = 0.0
    worker_compute_s: float = 0.0
    worker_capacity_s: float = 0.0
    requeues: int = 0
    workers_unreported: int = 0
    """Workers whose compute-layer totals never arrived (killed, say)."""
    # Per-sweep state.
    launch_t: "float | None" = None
    workers_expected: int = 0
    ready: "set[str]" = field(default_factory=set)
    open_leases: "dict[int, list]" = field(default_factory=dict)


class Tracer:
    """Per-layer totals, gathered while :func:`install_compute` and
    :func:`install_sweep` have wrapped the layers' entry points."""

    def __init__(self) -> None:
        self.acc: "dict[str, Acc]" = {}
        self.fabric = FabricWatch()
        self.worker_dir: "str | None" = None
        self._stack: "list[int]" = []
        self._undo: "list[tuple[object, str, object, bool]]" = []

    def layer(self, name: str) -> Acc:
        return self.acc.setdefault(name, Acc())

    def calls(self, name: str) -> int:
        acc = self.acc.get(name)
        return acc.calls if acc is not None else 0

    # -- wrapping -----------------------------------------------------------

    def wrap(self, owner, attr: str, layer: str, on_result=None) -> None:
        """Replace ``owner.attr`` with a timed wrapper of itself."""
        original = getattr(owner, attr)
        acc = self.layer(layer)
        stack = self._stack

        def timed(*args, **kwargs):
            stack.append(0)
            started = _now_ns()
            try:
                result = original(*args, **kwargs)
            finally:
                spent = _now_ns() - started
                child = stack.pop()
                acc.calls += 1
                acc.self_ns += spent - child
                if stack:
                    stack[-1] += spent
            if on_result is not None and on_result(result):
                acc.accepted += 1
            return result

        timed.__wrapped__ = original
        self.replace(owner, attr, timed)

    def replace(self, owner, attr: str, new) -> None:
        """Set ``owner.attr`` to ``new`` until :meth:`uninstall`."""
        inherited = isinstance(owner, type) and attr not in owner.__dict__
        self._undo.append((owner, attr, getattr(owner, attr), inherited))
        setattr(owner, attr, new)

    def uninstall(self) -> None:
        """Put every replaced name back, newest first."""
        while self._undo:
            owner, attr, original, inherited = self._undo.pop()
            if inherited:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    # -- worker totals --------------------------------------------------------

    def dump(self, path: Path) -> None:
        path.write_text(json.dumps(
            {name: [a.calls, a.self_ns, a.accepted]
             for name, a in self.acc.items()}))

    def absorb(self, directory: Path) -> int:
        """Add the totals every fabric worker wrote; returns files read."""
        files = sorted(directory.glob("worker-*.json"))
        for path in files:
            for name, (calls, self_ns, accepted) in \
                    json.loads(path.read_text()).items():
                self.layer(name).add(Acc(calls, self_ns, accepted))
            path.unlink()
        return len(files)


# -- what gets wrapped ------------------------------------------------------


def install_compute(tracer: Tracer) -> None:
    """Time the layers a cell runs through (one process, serial)."""
    from repro.core import decision
    from repro.experiments import executor, scenarios
    from repro.experiments.fabric import core as fabric_core
    from repro.faults import recovery
    from repro.load import kernels
    from repro.platform import cluster
    from repro.simkernel import plan
    from repro.strategies import cr, dlb, nothing, swapstrat

    for owner in (scenarios, cluster):
        tracer.wrap(owner, "make_platform", "platform.build")
    tracer.wrap(kernels.HostBatch, "rates_map", "load.rates_map")
    tracer.wrap(kernels.HostBatch, "compute_end", "load.compute_end")
    for attr in ("compile_trace", "extend_kernel"):
        tracer.wrap(kernels, attr, "load.kernel_compile")
    for owner in (plan, nothing, swapstrat, dlb, cr):
        tracer.wrap(owner, "lower", "simkernel.lower")
    for owner in (decision, swapstrat):
        tracer.wrap(owner, "decide_swaps", "core.decide",
                    on_result=lambda d: d.should_swap)
    for layer, cls in (("nothing", nothing.NothingStrategy),
                       ("swap", swapstrat.SwapStrategy),
                       ("dlb", dlb.DlbStrategy), ("cr", cr.CrStrategy)):
        tracer.wrap(cls, "run", f"strategies.{layer}.run")
    tracer.wrap(recovery, "compute_finish", "faults.compute_finish")
    for owner in (recovery, swapstrat):
        for attr in ("promote_spares", "attempt_transfer"):
            tracer.wrap(owner, attr, "faults.recover")
    for owner in (executor, fabric_core):
        tracer.wrap(owner, "compute_cell", "executor.compute_cell")


def install_sweep(tracer: Tracer) -> None:
    """Time the sweep layers: cache, planning, merge, obs fold, fabric."""
    from repro.experiments import executor
    from repro.experiments import fabric
    from repro.experiments.fabric import core as fabric_core

    for owner in (executor, fabric_core):
        tracer.wrap(owner, "plan_cells", "executor.plan_cells")
        tracer.wrap(owner, "merge_cells", "executor.merge")
        tracer.wrap(owner, "fold_obs", "obs.fold")
    tracer.wrap(executor, "cell_digest", "executor.plan_cells")
    tracer.wrap(executor.CellCache, "load", "executor.cache_load",
                on_result=lambda cell: cell is not None)
    tracer.wrap(executor.CellCache, "store", "executor.cache_store")
    for owner in (fabric, fabric_core):
        tracer.wrap(owner, "execute_sweep_fabric", "fabric.coordinator")
    _install_fabric_watch(tracer, fabric_core)


def _install_fabric_watch(tracer: Tracer, fabric_core) -> None:
    """Count frames, lease waits and fleet start-up on the coordinator,
    and ship compute-layer totals back from forked workers."""
    watch = tracer.fabric
    transport_cls = fabric_core.ProcessTransport
    launch = transport_cls.launch
    worker_main = fabric_core.worker_main

    def counted_launch(self, spec, instrument, config):
        if watch.launch_t is None:
            watch.launch_t = time.perf_counter()
        handle = launch(self, spec, instrument, config)
        handle.channel = _WatchedChannel(handle.channel, watch)
        return handle

    def traced_worker_main(channel, spec, instrument, config):
        inner = Tracer()
        install_compute(inner)
        try:
            worker_main(channel, spec, instrument, config)
        finally:
            if tracer.worker_dir is not None:
                inner.dump(Path(tracer.worker_dir)
                           / f"worker-{os.getpid()}.json")

    tracer.replace(transport_cls, "launch", counted_launch)
    tracer.replace(fabric_core, "worker_main", traced_worker_main)


def begin_sweep(tracer: Tracer, workers: int) -> None:
    watch = tracer.fabric
    watch.launch_t = None
    watch.workers_expected = workers
    watch.ready = set()
    watch.open_leases = {}


def end_sweep(tracer: Tracer, wall_s: float, stats,
              worker_dir: Path) -> None:
    """Fold one fabric sweep's protocol observations and its workers'
    compute-layer totals into the tracer."""
    watch = tracer.fabric
    watch.sweeps += 1
    watch.requeues += stats.requeued_cells
    watch.worker_capacity_s += wall_s * stats.workers
    watch.workers_unreported += stats.workers_started - tracer.absorb(
        worker_dir)


class _WatchedChannel:
    """Coordinator end of a worker channel that counts what crosses it."""

    def __init__(self, inner, watch: FabricWatch) -> None:
        self._inner = inner
        self._watch = watch

    def send(self, env) -> None:
        self._inner.send(env)
        watch = self._watch
        watch.frames += 1
        if env.kind == ASSIGN_CELLS:
            payload = env.payload
            watch.open_leases[payload["lease"]] = [
                time.perf_counter(), len(payload["cells"]), 0.0]
            watch.leases += 1

    def poll(self) -> bool:
        return self._inner.poll()

    def recv(self, timeout=None):
        env = self._inner.recv(timeout)
        if env is None:
            return None
        watch = self._watch
        watch.frames += 1
        if env.kind == REQUEST_WORK and env.sender not in watch.ready:
            watch.ready.add(env.sender)
            if (len(watch.ready) == watch.workers_expected
                    and watch.launch_t is not None):
                watch.fleet_start_s += time.perf_counter() - watch.launch_t
        elif env.kind == CELL_RESULT:
            payload = env.payload
            wall = float(payload.get("wall_s") or 0.0)
            watch.worker_compute_s += wall
            lease = watch.open_leases.get(payload.get("lease"))
            if lease is not None:
                lease[1] -= 1
                lease[2] += wall
                if lease[1] == 0:
                    del watch.open_leases[payload["lease"]]
                    watch.lease_wait_s += (time.perf_counter() - lease[0]
                                           - lease[2])
        return env

    def close(self) -> None:
        self._inner.close()
