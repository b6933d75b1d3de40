"""The sweep fabric: one coordinator, N workers, typed messages.

Every parallel sweep runs here: :func:`~repro.experiments.executor.
execute_sweep` with ``jobs > 1`` is a fabric run over the ``process``
transport, and ``jobs == 1`` stays the in-process serial reference.  In
the style of panda-yoda's Yoda/Droid split, a **coordinator** streams
``(x, seed)`` cells through a work queue with batched *leases*,
**workers** pull cells and push results, and every conversation is a
typed, versioned :class:`Envelope` carried by one of two transports:

* ``process``  -- one ``multiprocessing.Process`` per worker over a
  duplex ``Pipe``.  The same-machine backend.
* ``tcp``      -- the cross-host story: the coordinator binds a TCP
  listener (``FabricConfig.listen``), launches its local fleet over
  loopback, and *additionally* accepts remote workers bootstrapped with
  ``python -m repro.experiments.fabric worker HOST:PORT --token T`` at
  any point of the run -- late joiners pass the HELLO/WELCOME handshake
  (token, protocol version, spec fingerprint; see
  :mod:`repro.experiments.fabric.wire`) and are leased work mid-run.

Protocol (see docs/FABRIC.md for the full schema):

* worker -> coordinator: ``REQUEST_WORK``, ``CELL_RESULT`` (and, for
  TCP peers, the ``HELLO`` that opens the handshake)
* coordinator -> worker: ``ASSIGN_CELLS`` (a lease), ``SHUTDOWN`` (exit
  now), ``WELCOME`` (handshake verdict)

Like the Yoda loop, the coordinator blocks on every worker's pipe or
socket at once (``multiprocessing.connection.wait``), so a message or a
worker's death (EOF) wakes it.  A worker asks for its next lease as
its current lease's last cell starts (a one-deep prefetch), so the
coordinator extends the lease it holds.  A ``REQUEST_WORK`` that finds
nothing to lease is left unanswered: the worker *parks*, silent in a
blocking receive, until a revoked lease requeues cells or ``SHUTDOWN``
arrives (or its channel reaches EOF because the coordinator died).

Only a worker holding a lease can lose it: one whose process died, or
that has been silent longer than :attr:`FabricConfig.lease_timeout`
since the later of the assignment and its last message, has its leased
cells *requeued* and (budget permitting) a replacement worker launched.
Each new result is written to the cell cache *as it arrives* (so a run
that loses its coordinator resumes from the cache), then handed to the
executor's :class:`~repro.experiments.executor.SweepFold`, which folds
it in grid order: a fabric run is **byte-identical** to the ``jobs=1``
serial reference however cells were distributed, re-leased, or
recomputed (duplicates of a deterministic cell are equal; the first
one wins).

Worker-loss testing reuses the :mod:`repro.faults` vocabulary at the
fabric layer: a :class:`WorkerChaos` revokes one worker after it has
computed a configured number of cells -- by crashing it, hard-killing
the process (``SIGKILL``), or hanging it (alive but silent, the
lease-expiry path).
"""

from __future__ import annotations

import multiprocessing
import os
import secrets
import signal
import socket
import sys
import time
from collections import deque
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from multiprocessing.connection import wait
from typing import TYPE_CHECKING, Callable, Sequence

from repro import obs
from repro.errors import ExperimentError, FabricError
from repro.experiments.executor import (CellCache, CellResult,
                                        PendingCell, SweepFold, SweepTiming,
                                        cell_failure, compute_cell,
                                        sweep_envelope)
from repro.experiments.executor import (fold_obs, merge_cells,  # noqa: F401  (perfbench times these by their fabric.core names)
                                        plan_cells)
from repro.experiments.fabric.wire import (COORDINATOR, WELCOME,
                                           ChannelClosed, Envelope,
                                           HandshakeInfo, _PipeChannel,
                                           _SocketChannel,
                                           check_hello, client_handshake,
                                           welcome_payload)
from repro.experiments.fabric.wire import (ASSIGN_CELLS, CELL_RESULT,  # noqa: F401  (re-exported protocol surface)
                                           HELLO, MAX_FRAME_BYTES,
                                           MESSAGE_KINDS, PROTOCOL_VERSION,
                                           REQUEST_WORK, SHUTDOWN)
from repro.experiments.runner import SweepResult
from repro.experiments.scenarios import ExperimentSpec

if TYPE_CHECKING:  # pragma: no cover - the runtime plane loads on demand
    from repro.obs.runtime import RunTelemetry

# -- fault injection --------------------------------------------------------

#: Chaos modes: how the targeted worker is lost.
CHAOS_MODES = ("crash", "kill", "hang")


@dataclass(frozen=True)
class WorkerChaos:
    """Deterministically revoke one worker after ``after_cells`` cells.

    The fabric-layer analogue of a :mod:`repro.faults` host revocation:
    ``crash`` exits the worker loop abruptly (no message, channel
    closed), ``kill`` delivers ``SIGKILL`` to the worker process (a
    genuinely hard death), and ``hang`` leaves the worker alive but
    silent, which only the coordinator's lease-expiry clock can detect.
    """

    mode: str
    worker: str
    """Worker id, e.g. ``"w0"`` (replacements get fresh ids, so an
    injected fault fires at most once)."""
    after_cells: int

    def __post_init__(self) -> None:
        if self.mode not in CHAOS_MODES:
            raise FabricError(
                f"unknown chaos mode {self.mode!r}; pick from {CHAOS_MODES}")
        if self.after_cells < 0:
            raise FabricError("after_cells must be >= 0")

    @classmethod
    def parse(cls, text: str) -> "WorkerChaos":
        """Parse the CLI spelling ``mode:worker_index:after_cells``."""
        parts = text.split(":")
        if len(parts) != 3:
            raise FabricError(
                f"chaos spec {text!r} is not mode:worker:after_cells")
        mode, worker, after = parts
        try:
            return cls(mode=mode, worker=f"w{int(worker)}",
                       after_cells=int(after))
        except ValueError as exc:
            raise FabricError(f"bad chaos spec {text!r}: {exc}") from exc

    def to_wire(self) -> dict:
        """Plain-data spelling (rides in the TCP WELCOME payload)."""
        return {"mode": self.mode, "worker": self.worker,
                "after_cells": self.after_cells}

    @classmethod
    def from_wire(cls, data: dict) -> "WorkerChaos":
        try:
            return cls(mode=str(data["mode"]), worker=str(data["worker"]),
                       after_cells=int(data["after_cells"]))
        except (KeyError, TypeError, ValueError) as exc:
            raise FabricError(f"malformed chaos spec {data!r}: {exc}") from exc


@dataclass(frozen=True)
class FabricConfig:
    """Everything that shapes one fabric run (but never its result)."""

    workers: int = 2
    transport: str = "process"
    lease_size: int = 4
    """Most cells per ``ASSIGN_CELLS`` batch; near the end of the queue
    a lease shrinks to the worker's fair share of the cells left."""
    lease_timeout: float = 30.0
    """Seconds of worker silence before its lease is revoked.  Must
    exceed the worst single-cell compute time (a leased worker speaks
    once per cell, with its result, never during one).  The clock
    starts at the later of the latest assignment and the worker's last
    message, and only runs while the worker holds a lease: a parked
    worker is never revoked."""
    max_worker_restarts: int = 4
    """Replacement workers the coordinator may launch before it starts
    shrinking the fleet instead."""
    chaos: "WorkerChaos | None" = None
    listen: str = "127.0.0.1:0"
    """TCP transport only: ``HOST:PORT`` the coordinator binds (port 0
    picks an ephemeral port; the bound address is announced on
    stderr)."""
    token: "str | None" = None
    """TCP transport only: the shared secret remote workers must present
    in their HELLO.  None (the default) generates a fresh random token
    per run -- fine for loopback fleets launched by the coordinator,
    useless for remote workers, which need the operator to pass an
    explicit ``--fabric-token``."""
    handshake_timeout: float = 5.0
    """Seconds a connected-but-silent TCP peer may take to produce its
    HELLO before the coordinator drops the connection."""

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise FabricError(f"workers must be >= 1, got {self.workers}")
        if self.lease_size < 1:
            raise FabricError(f"lease_size must be >= 1, got {self.lease_size}")
        if self.transport not in ("process", "tcp"):
            raise FabricError(
                f"unknown transport {self.transport!r}; pick from "
                f"('process', 'tcp')")
        if self.handshake_timeout <= 0:
            raise FabricError(
                f"handshake_timeout must be > 0, got {self.handshake_timeout}")
        _parse_listen(self.listen)


@dataclass
class FabricStats:
    """Operational counters of one fabric run (wall-clock flavored --
    *not* part of the deterministic result)."""

    transport: str = ""
    workers: int = 0
    leases: int = 0
    requeued_cells: int = 0
    revoked_leases: int = 0
    work_requests: int = 0
    workers_started: int = 0
    workers_lost: int = 0
    duplicate_results: int = 0
    remote_workers_joined: int = 0
    """TCP peers admitted through the accept loop mid-run (a subset of
    ``workers_started``)."""
    handshakes_rejected: int = 0
    """TCP connections dropped at the gate: bad token, fingerprint or
    version mismatch, undecodable bytes, or HELLO never arriving."""
    worker_lifetimes: "dict[str, float]" = field(default_factory=dict)
    """Seconds between launch and loss/shutdown, per worker id."""


# -- the worker -------------------------------------------------------------


@dataclass(frozen=True)
class WorkerConfig:
    """Per-worker knobs shipped to the worker side of the channel."""

    worker_id: str
    chaos: "WorkerChaos | None" = None


class _ChaosTriggered(Exception):
    """Internal: the injected fault fired; unwind the worker loop."""


def _apply_chaos(config: WorkerConfig, cells_done: int) -> None:
    chaos = config.chaos
    if chaos is None or chaos.worker != config.worker_id:
        return
    if cells_done < chaos.after_cells:
        return
    if chaos.mode == "kill":
        os.kill(os.getpid(), signal.SIGKILL)  # never returns
    if chaos.mode == "hang":
        while True:  # alive but silent: only lease expiry catches this
            time.sleep(0.2)  # pragma: no cover - killed by coordinator
    raise _ChaosTriggered  # "crash": vanish without a goodbye message


def worker_main(channel, spec: ExperimentSpec, instrument: bool,
                config: WorkerConfig) -> None:
    """The worker loop every transport runs (process, or tcp local and
    remote).

    Pull-based: request work, compute each leased cell, push a
    ``CELL_RESULT`` per cell (success or failure -- a failing cell is
    reported with its coordinates, not swallowed; each result names the
    lease that carried its cell), and repeat until ``SHUTDOWN``.  The
    next ``REQUEST_WORK`` goes out as the lease's *last* cell starts, so
    the lease round trip overlaps that cell's compute; at most one
    request is ever outstanding.  A request the coordinator cannot
    serve yet goes unanswered: once out of cells, the parked worker
    blocks in ``channel.recv()``, silent, until a lease or ``SHUTDOWN``
    arrives, or the channel's EOF says the coordinator is gone.

    Every result carries ``wall_s`` -- the wall-clock seconds the cell
    took *in this worker* -- feeding the coordinator's per-cell wall
    percentiles and its runtime-plane ``cell.compute`` span.  The worker
    itself writes no telemetry.
    """
    me = config.worker_id

    def send(kind: str, **payload) -> None:
        channel.send(Envelope(kind=kind, sender=me, payload=payload))

    cells_done = 0
    #: Leased cells not yet started, each with its lease id, in order.
    backlog: "deque[tuple[int, dict]]" = deque()
    requested = False
    try:
        while True:
            if not backlog:
                if not requested:
                    send(REQUEST_WORK)
                    requested = True
                env = channel.recv()
                if env.kind == SHUTDOWN:
                    return
                if env.kind != ASSIGN_CELLS:
                    raise FabricError(
                        f"worker {me} got unexpected {env.kind}")
                lease_id = env.payload["lease"]
                backlog.extend((lease_id, cell)
                               for cell in env.payload["cells"])
                requested = False
                continue
            lease_id, cell = backlog.popleft()
            _apply_chaos(config, cells_done)
            if not backlog:
                # The lease's last cell: ask for the next one now, so
                # the round trip overlaps this cell's compute.
                send(REQUEST_WORK)
                requested = True
            x, seed = cell["x"], cell["seed"]
            compute_started = time.monotonic()
            try:
                result = compute_cell(spec, x, seed, instrument=instrument)
            except Exception as exc:
                send(CELL_RESULT, lease=lease_id, xi=cell["xi"],
                     si=cell["si"], x=x, seed=seed, ok=False,
                     error=f"{type(exc).__name__}: {exc}")
                continue
            wall = time.monotonic() - compute_started
            cells_done += 1
            send(CELL_RESULT, lease=lease_id, xi=cell["xi"],
                 si=cell["si"], x=x, seed=seed, ok=True,
                 cell=result.to_payload(), wall_s=wall)
    except (ChannelClosed, _ChaosTriggered):
        return  # coordinator died or chaos fired: just vanish
    finally:
        channel.close()


def _process_worker_entry(conn, spec, instrument, config):  # pragma: no cover - child process
    worker_main(_PipeChannel(conn), spec, instrument, config)


def _tcp_worker_entry(address, token, spec, instrument, config,
                      nonce=None):  # pragma: no cover - child process
    """Locally-launched TCP worker: same host, same checkout, so the
    spec travels by fork/spawn and only the handshake crosses the
    wire.  The nonce -- minted by ``launch()``, never on the wire
    before this HELLO -- proves this peer is the spawned child."""
    host, port = _parse_listen(address)
    sock = socket.create_connection((host, port))
    channel = _SocketChannel(sock)
    client_handshake(channel, token, fingerprint=spec.fingerprint(),
                     worker_id=config.worker_id, nonce=nonce)
    worker_main(channel, spec, instrument, config)


def run_remote_worker(address: str, token: str, *,
                      spec: "ExperimentSpec | None" = None,
                      worker_id: "str | None" = None,
                      handshake_timeout: float = 10.0) -> str:
    """Bootstrap one worker against a (possibly remote) coordinator.

    The cross-host entry point behind ``python -m
    repro.experiments.fabric worker HOST:PORT --token T``.  Connects,
    runs the HELLO/WELCOME handshake, and -- once admitted -- serves
    cells with the ordinary :func:`worker_main` loop until the
    coordinator says ``SHUTDOWN`` or hangs up.  Returns the worker id
    the coordinator assigned.

    When ``spec`` is None (the CLI path) the scenario named in the
    WELCOME is resolved from this checkout's registry and its
    fingerprint is verified against the coordinator's, so checkouts
    whose scenario spec or model code differ refuse to mix cells.
    Tests pass an unregistered ``spec`` directly; its fingerprint then
    rides in the HELLO and the *coordinator* performs the same refusal.
    """
    host, port = _parse_listen(address)
    try:
        sock = socket.create_connection((host, port),
                                        timeout=handshake_timeout)
    except OSError as exc:
        raise FabricError(
            f"cannot reach coordinator at {address}: {exc}") from exc
    sock.settimeout(None)
    channel = _SocketChannel(sock)
    fingerprint = spec.fingerprint() if spec is not None else None
    try:
        welcome = client_handshake(channel, token, fingerprint=fingerprint,
                                   worker_id=worker_id,
                                   timeout=handshake_timeout)
    except FabricError:
        channel.close()
        raise
    assigned = str(welcome.get("worker_id") or worker_id or "?")
    if spec is None:
        from repro.experiments.scenarios import get_scenario

        scenario = str(welcome.get("scenario", ""))
        try:
            spec = get_scenario(scenario)
        except ExperimentError as exc:
            channel.close()
            raise FabricError(
                f"coordinator sweeps scenario {scenario!r}, which this "
                f"checkout does not know: {exc}") from exc
        local = spec.fingerprint()
        if local != welcome.get("fingerprint"):
            channel.close()
            raise FabricError(
                f"spec fingerprint mismatch for scenario {scenario!r}: "
                f"this checkout computes {local[:12]}, the coordinator "
                f"sweeps {str(welcome.get('fingerprint'))[:12]} -- the "
                f"scenario spec or the model code differs; refusing to "
                f"contribute cells")
    chaos = welcome.get("chaos")
    config = WorkerConfig(
        worker_id=assigned,
        chaos=WorkerChaos.from_wire(chaos) if chaos else None)
    worker_main(channel, spec, bool(welcome.get("instrument", False)),
                config)
    return assigned


# -- transports -------------------------------------------------------------


@dataclass
class WorkerHandle:
    """Coordinator-side view of one launched worker."""

    worker_id: str
    channel: object
    waitable: object
    """The pipe or socket under ``channel``, for the coordinator's wait
    (a wrapped ``channel`` need only send/poll/recv/close)."""
    is_alive: "Callable[[], bool]"
    kill: "Callable[[], None]"
    join: "Callable[[float], None]"
    started: float = 0.0
    """``time.monotonic()`` at launch (worker-lifetime accounting)."""
    remote: bool = False
    """True for TCP peers that joined through the accept loop.  The
    coordinator never spawned their process, so ``is_alive`` cannot
    consult it -- a remote worker's death is observed through its
    channel (:class:`ChannelClosed`) or its lease expiring, never
    through process state."""


class ProcessTransport:
    """One ``multiprocessing.Process`` per worker over a duplex pipe.

    Every channel is created pairwise at launch: no listener, no
    strangers to admit.
    """

    name = "process"

    def launch(self, spec, instrument, config: WorkerConfig) -> WorkerHandle:
        parent_conn, child_conn = multiprocessing.Pipe(duplex=True)
        process = multiprocessing.Process(
            target=_process_worker_entry,
            args=(child_conn, spec, instrument, config),
            name=f"fabric-{config.worker_id}", daemon=True)
        process.start()
        child_conn.close()  # the parent keeps only its own end

        def kill() -> None:
            if process.is_alive():
                process.kill()

        return WorkerHandle(
            worker_id=config.worker_id, channel=_PipeChannel(parent_conn),
            waitable=parent_conn, is_alive=process.is_alive, kill=kill,
            join=lambda timeout: process.join(timeout),
            started=time.monotonic())

    def poll_peers(self) -> "list[tuple[object, Envelope]]":
        return []

    def waitables(self) -> list:
        return []

    def close(self) -> None:
        pass


def _parse_listen(text: str) -> "tuple[str, int]":
    """Split ``HOST:PORT`` (IPv6 hosts may be bracketed or bare)."""
    host, sep, port = text.rpartition(":")
    if not sep or not host:
        raise FabricError(
            f"listen address {text!r} is not of the form HOST:PORT")
    host = host.strip("[]")
    try:
        return host, int(port)
    except ValueError:
        raise FabricError(
            f"listen address {text!r} has a non-numeric port") from None


class TcpTransport:
    """The cross-host transport: a TCP listener plus the admission gate.

    Two populations share the listener.  ``launch()`` spawns *local*
    loopback workers -- the coordinator's own fleet, one process per
    worker as in :class:`ProcessTransport` -- and
    :meth:`poll_peers` admits *remote* workers bootstrapped out-of-band
    with ``python -m repro.experiments.fabric worker HOST:PORT --token
    T``.  Both arrive as anonymous TCP connections and both pass the
    same HELLO gate (token, protocol version, spec fingerprint -- see
    :func:`~repro.experiments.fabric.wire.check_hello`); the only
    difference is who picked the worker id.

    The gate is fail-closed and non-blocking: a connection that has not
    produced a valid HELLO within ``handshake_timeout`` seconds -- or
    that produces garbage, an oversize frame, a forbidden pickle, a bad
    token, or a foreign fingerprint -- is counted in :attr:`rejected`
    and dropped (with a WELCOME refusal when the channel still works)
    without ever touching coordinator state.
    """

    name = "tcp"

    def __init__(self, handshake: HandshakeInfo, *,
                 listen: str = "127.0.0.1:0",
                 handshake_timeout: float = 5.0,
                 max_frame_bytes: int = MAX_FRAME_BYTES) -> None:
        self.handshake = handshake
        self.handshake_timeout = handshake_timeout
        self.max_frame_bytes = max_frame_bytes
        host, port = _parse_listen(listen)
        try:
            self._listener = socket.create_server((host, port))
        except OSError as exc:
            raise FabricError(
                f"cannot bind fabric listener on {listen!r}: {exc}") from exc
        self._listener.setblocking(False)
        bound = self._listener.getsockname()
        self.address = f"{bound[0]}:{bound[1]}"
        #: Accepted-but-unproven connections, with their gate deadline.
        self._pending: "list[tuple[_SocketChannel, float]]" = []
        #: Peers that passed the gate while ``launch()`` was waiting for
        #: a *different* worker id; the next ``poll_peers`` returns them.
        self._backlog: "list[tuple[_SocketChannel, Envelope]]" = []
        #: Connections dropped at the gate (any reason).
        self.rejected = 0

    def launch(self, spec, instrument, config: WorkerConfig) -> WorkerHandle:
        # The child proves it is *this* launch by echoing a per-launch
        # nonce that travels only through the process args -- a remote
        # token-holder claiming the same worker id cannot steal the
        # slot (and with it the process handle) during the wait below.
        nonce = secrets.token_hex(16)
        process = multiprocessing.Process(
            target=_tcp_worker_entry,
            args=(self.address, self.handshake.token, spec, instrument,
                  config, nonce),
            name=f"fabric-{config.worker_id}", daemon=True)
        process.start()
        deadline = time.monotonic() + 10.0
        channel: "_SocketChannel | None" = None
        while channel is None and time.monotonic() < deadline:
            for peer, hello in self.poll_peers():
                if (channel is None
                        and hello.payload.get("nonce") == nonce):
                    channel = peer
                else:  # a stranger mid-launch: keep it for the poll cycle
                    self._backlog.append((peer, hello))
            if channel is None:
                wait(self.waitables(), 0.05)
        if channel is None:
            process.kill()
            raise FabricError(
                f"worker {config.worker_id} never completed the handshake")
        channel.send(Envelope(
            kind=WELCOME, sender=COORDINATOR,
            payload=welcome_payload(self.handshake, config.worker_id)))

        def kill() -> None:
            if process.is_alive():
                process.kill()

        return WorkerHandle(
            worker_id=config.worker_id, channel=channel, waitable=channel,
            is_alive=process.is_alive, kill=kill,
            join=lambda timeout: process.join(timeout),
            started=time.monotonic())

    def poll_peers(self) -> "list[tuple[_SocketChannel, Envelope]]":
        """Non-blocking admission pump: accept, gate, return the worthy.

        Returns ``(channel, hello)`` pairs that presented a valid,
        token-bearing, fingerprint-compatible HELLO.  The WELCOME is
        *not* sent here -- the caller owns worker-id assignment
        (``launch`` for its own spawn, the coordinator's
        ``_adopt_remote`` for late joiners).
        """
        now = time.monotonic()
        while True:
            try:
                conn, _ = self._listener.accept()
            except (BlockingIOError, InterruptedError):
                break
            except OSError:
                break  # listener closed under us: nothing to accept
            conn.setblocking(True)
            self._pending.append((
                _SocketChannel(conn, max_frame_bytes=self.max_frame_bytes),
                now + self.handshake_timeout))
        admitted = list(self._backlog)
        self._backlog.clear()
        still_pending: "list[tuple[_SocketChannel, float]]" = []
        for channel, gate_deadline in self._pending:
            try:
                if not channel.poll():
                    if now > gate_deadline:
                        self._reject(channel, "handshake timed out")
                    else:
                        still_pending.append((channel, gate_deadline))
                    continue
                hello = channel.recv(timeout=0.0)
            except ChannelClosed as exc:
                # Hung up, oversize frame, forbidden pickle: the channel
                # is already poisoned, don't try to answer on it.
                self._reject(channel, str(exc), respond=False)
                continue
            except FabricError as exc:  # decoded but unspeakable (version)
                self._reject(channel, str(exc))
                continue
            if hello is None:
                still_pending.append((channel, gate_deadline))
                continue
            try:
                reason = check_hello(hello, self.handshake)
            except Exception as exc:
                # Fail closed: whatever a hostile HELLO manages to
                # trip, it costs the peer its connection, not the
                # coordinator its sweep.
                reason = f"malformed HELLO: {exc}"
            if reason is not None:
                self._reject(channel, reason)
                continue
            admitted.append((channel, hello))
        self._pending = still_pending
        return admitted

    def waitables(self) -> list:
        """The listener and every connection still in the handshake:
        what :meth:`poll_peers` would act on once readable."""
        return [self._listener] + [channel for channel, _ in self._pending]

    def _reject(self, channel: "_SocketChannel", reason: str, *,
                respond: bool = True) -> None:
        self.rejected += 1
        if respond:
            try:
                channel.send(Envelope(kind=WELCOME, sender=COORDINATOR,
                                      payload={"ok": False,
                                               "error": reason}))
            except FabricError:
                pass
        channel.close()

    def close(self) -> None:
        for channel, _ in self._pending:
            channel.close()
        for channel, _ in self._backlog:
            channel.close()
        self._pending = []
        self._backlog = []
        try:
            self._listener.close()
        except OSError:
            pass


# -- the coordinator --------------------------------------------------------

#: Longest the coordinator blocks in ``wait`` (seconds).  Messages and
#: worker deaths wake it at once; this bound only sets how late the
#: lease-expiry, ``is_alive`` and handshake-deadline checks run while
#: every worker is silent.
WAIT_TIMEOUT = 0.1


@dataclass
class _Lease:
    """Every cell one worker holds: its current lease's and, once it has
    asked ahead, the next lease's, so a revocation requeues both."""

    lease_id: int
    """The newest lease folded in."""
    worker_id: str
    outstanding: "set[tuple[int, int]]"
    granted: float = 0.0
    """Coordinator clock at the newest assignment."""


@dataclass
class _Worker:
    handle: WorkerHandle
    last_seen: float
    lease: "_Lease | None" = None
    parked: bool = False
    """Asked for work when none was left; waits for requeued cells."""

    def lease_silence(self, now: float) -> "float | None":
        """Seconds the lease clock has run, or None without a lease."""
        if self.lease is None:
            return None
        return now - max(self.last_seen, self.lease.granted)


class Coordinator:
    """Owns the work queue, the leases, and the liveness clock.  Each
    new result goes to the cache, then to ``fold``; of a finished cell,
    the coordinator keeps only its coordinates (:attr:`done`)."""

    def __init__(self, spec: ExperimentSpec, seed_list: "list[int]", *,
                 config: FabricConfig, cache: "CellCache | None",
                 on_cell: "Callable[[int, int], None] | None" = None,
                 telemetry: "RunTelemetry | None" = None,
                 fold: "SweepFold | None" = None,
                 clock: "Callable[[], float]" = time.monotonic) -> None:
        self.spec = spec
        self.seed_list = seed_list
        self.config = config
        self.cache = cache
        self.on_cell = on_cell
        self.telemetry = telemetry
        self.fold = fold if fold is not None else SweepFold(spec, seed_list)
        #: Workers trace their cells when the fold has a session to fill.
        self.instrument = self.fold.obs_session is not None
        #: The liveness/lease clock.  ``time.monotonic`` in production;
        #: boundary-timing tests inject a fake monotonic clock here.
        self._clock = clock
        self.stats = FabricStats(transport=config.transport,
                                 workers=config.workers)
        #: Coordinates of the cells computed so far (first result wins).
        self.done: "set[tuple[int, int]]" = set()
        #: Grid-order queue of cells still to assign.
        self.queue: "deque[dict]" = deque()
        #: Cell coordinates -> full cell record (for requeuing).
        self._cell_specs: "dict[tuple[int, int], dict]" = {}
        self._workers: "dict[str, _Worker]" = {}
        self._next_lease = 0
        self._next_worker = 0
        self._restarts = 0
        self._transport = None
        self._failure: "ExperimentError | None" = None

    # -- worker lifecycle ---------------------------------------------------

    def _open_transport(self):
        if self.config.transport == "process":
            return ProcessTransport()
        handshake = HandshakeInfo(
            token=self.config.token
            or secrets.token_hex(16),
            scenario=self.spec.name,
            fingerprint=self.spec.fingerprint(),
            instrument=self.instrument,
            chaos=(self.config.chaos.to_wire()
                   if self.config.chaos is not None else None))
        transport = TcpTransport(
            handshake, listen=self.config.listen,
            handshake_timeout=self.config.handshake_timeout)
        # stderr, deliberately: stdout carries the CLI's deterministic
        # sweep summary, which CI byte-compares across transports.
        print(f"[fabric] coordinator listening on {transport.address}",
              file=sys.stderr, flush=True)
        if self.config.token is None:
            # Auto-generated: the operator has no other way to learn it.
            print(f"[fabric] run token: {handshake.token}",
                  file=sys.stderr, flush=True)
        return transport

    def _adopt_remote(self, channel, hello: Envelope, now: float) -> None:
        """Admit one handshake-validated TCP peer as a fleet member.

        The peer may request an id (``--worker-id``); a collision with
        a live worker mints a fresh one instead.  Determinism does not
        care either way -- results are keyed by cell coordinates, and
        the chaos matcher targets whichever worker ends up owning the
        configured id.
        """
        requested = hello.payload.get("worker_id")
        if not isinstance(requested, str) or not requested \
                or requested in self._workers:
            requested = None
        worker_id = requested if requested is not None \
            else self._mint_worker_id()
        try:
            channel.send(Envelope(
                kind=WELCOME, sender=COORDINATOR,
                payload=welcome_payload(self._transport.handshake,
                                        worker_id)))
        except FabricError:
            # Vanished between HELLO and WELCOME: never joined.
            channel.close()
            self._transport.rejected += 1
            return
        handle = WorkerHandle(
            worker_id=worker_id, channel=channel, waitable=channel,
            is_alive=lambda: True,  # only the channel/lease can tell
            kill=lambda: None, join=lambda timeout: None,
            started=now, remote=True)
        self._workers[worker_id] = _Worker(handle=handle, last_seen=now)
        self.stats.workers_started += 1
        self.stats.remote_workers_joined += 1
        self._tel_event("worker.joined", worker_id=worker_id, remote=True)

    def _mint_worker_id(self) -> str:
        """A counter id no *live* worker holds.

        Remote peers may claim arbitrary ids (``--worker-id w5``), so
        the counter skips over taken ids rather than silently
        overwriting the registry entry -- an overwrite would orphan the
        incumbent's lease and hang the sweep.
        """
        while f"w{self._next_worker}" in self._workers:
            self._next_worker += 1
        worker_id = f"w{self._next_worker}"
        self._next_worker += 1
        return worker_id

    def _launch_worker(self) -> None:
        worker_id = self._mint_worker_id()
        config = WorkerConfig(worker_id=worker_id, chaos=self.config.chaos)
        with (self.telemetry.span("worker.launch", worker_id=worker_id)
              if self.telemetry is not None else nullcontext()):
            handle = self._transport.launch(self.spec, self.instrument,
                                            config)
        self._workers[worker_id] = _Worker(handle=handle,
                                           last_seen=handle.started)
        self.stats.workers_started += 1

    def _record_lifetime(self, worker_id: str, handle: WorkerHandle,
                         now: float) -> None:
        """Record the worker's *final* lifetime, exactly once.

        A plain assignment, deliberately: the old ``setdefault`` on the
        shutdown path could freeze a stale lifetime recorded when the
        same worker id was revoked earlier, so whichever of loss or
        shutdown happens last for an id is the one that counts.  Loss
        pops the worker from the registry, so each path runs at most
        once per id and the recorded value is always the final one.
        """
        self.stats.worker_lifetimes[worker_id] = now - handle.started

    def _lose_worker(self, worker_id: str, now: float,
                     reason: str = "lost") -> None:
        """Revoke the worker's lease, requeue its cells, drop the worker."""
        worker = self._workers.pop(worker_id)
        self.stats.workers_lost += 1
        self._record_lifetime(worker_id, worker.handle, now)
        self._tel_event("worker.exit", worker_id=worker_id, reason=reason,
                        lifetime_s=now - worker.handle.started)
        if worker.lease is not None:
            self.stats.revoked_leases += 1
            requeued = 0
            for key in sorted(worker.lease.outstanding):
                if key not in self.done:
                    self.queue.append(self._cell_specs[key])
                    self.stats.requeued_cells += 1
                    requeued += 1
            self._tel_event("lease.revoked", worker_id=worker_id,
                            lease=worker.lease.lease_id, requeued=requeued)
        worker.handle.kill()
        worker.handle.channel.close()
        self._serve_parked(now)
        incomplete = len(self.done) < len(self._cell_specs)
        if incomplete and self._failure is None:
            if self._restarts < self.config.max_worker_restarts:
                self._restarts += 1
                self._launch_worker()
            elif not self._workers:
                raise FabricError(
                    f"{self.spec.name}: every fabric worker died and the "
                    f"restart budget ({self.config.max_worker_restarts}) "
                    f"is spent with "
                    f"{len(self._cell_specs) - len(self.done)} cells "
                    f"incomplete")

    # -- runtime telemetry (no-ops when the plane is off) -------------------

    def _tel_event(self, kind: str, **fields) -> None:
        if self.telemetry is not None:
            self.telemetry.event(kind, **fields)

    # -- message handling ---------------------------------------------------

    def _assign(self, worker: _Worker, now: float) -> None:
        """Lease the next batch to ``worker``, or park it when the queue
        holds nothing left to compute (no reply: it waits).  A worker
        still holding cells has its lease extended by the batch."""
        # Never more than a fair share of what is left, so the sweep's
        # last cells spread over the fleet instead of queueing behind
        # one worker's full lease while the others park.
        size = min(self.config.lease_size,
                   -(-len(self.queue) // len(self._workers)))
        batch = []
        while self.queue and len(batch) < size:
            cell = self.queue.popleft()
            if (cell["xi"], cell["si"]) in self.done:
                continue  # completed by a revoked-but-live worker meanwhile
            batch.append(cell)
        worker.parked = not batch
        if not batch:
            return
        # A worker asks for its next lease while its last cell computes:
        # the new batch joins the cells it still holds.
        held = worker.lease.outstanding if worker.lease is not None else set()
        lease = _Lease(lease_id=self._next_lease,
                       worker_id=worker.handle.worker_id,
                       outstanding=held | {(c["xi"], c["si"]) for c in batch},
                       granted=now)
        self._next_lease += 1
        worker.lease = lease
        self.stats.leases += 1
        self._tel_event("lease.assign", lease=lease.lease_id,
                        worker_id=worker.handle.worker_id,
                        cells=len(batch))
        worker.handle.channel.send(Envelope(
            kind=ASSIGN_CELLS, sender=COORDINATOR,
            payload={"lease": lease.lease_id, "cells": batch}))

    def _serve_parked(self, now: float) -> None:
        """Lease requeued cells to parked workers, in registry order."""
        for worker_id, worker in list(self._workers.items()):
            if (worker.parked and self.queue and self._failure is None
                    and self._workers.get(worker_id) is worker):
                try:
                    self._assign(worker, now)
                except ChannelClosed:
                    self._lose_worker(worker_id, now,
                                      reason="channel-closed")

    def _on_result(self, worker: _Worker, env: Envelope) -> None:
        payload = env.payload
        key = (int(payload["xi"]), int(payload["si"]))
        if not payload.get("ok", False):
            # A failing cell is a sweep failure, with full coordinates --
            # record it, then shut the fleet down before raising.
            # The worker's "Type: message" text becomes the cause, as the
            # serial path chains the original exception.
            exc = FabricError(str(payload.get("error", "unknown error")))
            self._tel_event("cell.failed", xi=key[0], si=key[1],
                            x=payload["x"], seed=payload["seed"],
                            worker_id=env.sender, error=str(exc))
            self._failure = cell_failure(self.spec, payload["x"],
                                         payload["seed"], exc)
            self._failure.__cause__ = exc
            return
        if key not in self._cell_specs:  # its grid index names another cell
            raise FabricError(f"result for cell {key}, which no lease carried")
        if worker.lease is not None:
            worker.lease.outstanding.discard(key)
            if not worker.lease.outstanding:
                worker.lease = None
        if key in self.done:
            self.stats.duplicate_results += 1
            self._tel_event("cell.duplicate", xi=key[0], si=key[1],
                            worker_id=env.sender)
            return  # deterministic recompute of a re-leased cell
        cell = CellResult.from_payload(payload["cell"])
        self.done.add(key)
        wall = payload.get("wall_s")
        wall = float(wall) if isinstance(wall, (int, float)) else None
        if self.telemetry is not None:
            # The worker's compute time, ending as its result arrives: the
            # slice sits later than the compute by serialize and transit.
            dur = wall or 0.0
            self.telemetry.event(
                "cell.compute", t=self.telemetry.now() - dur, dur=dur,
                xi=key[0], si=key[1], x=payload["x"], seed=payload["seed"],
                worker_id=env.sender)
        if self.cache is not None:
            digest = self._cell_specs[key]["digest"]
            self.cache.store(digest, cell, scenario=self.spec.name,
                             x=payload["x"], seed=payload["seed"])
        self.fold.add(*key, cell, wall=wall)
        if self.on_cell is not None:
            self.on_cell(*key)

    def _handle(self, worker: _Worker, env: Envelope, now: float) -> None:
        worker.last_seen = now
        if env.kind == REQUEST_WORK:
            self.stats.work_requests += 1
            if self._failure is None:
                self._assign(worker, now)
            else:
                worker.parked = True
        elif env.kind == CELL_RESULT:
            self._on_result(worker, env)
        else:
            raise FabricError(
                f"coordinator got unexpected {env.kind} from "
                f"{env.sender}")

    # -- main loop ----------------------------------------------------------

    def run(self, pending: "list[PendingCell]") -> None:
        """Compute every cell of ``pending`` on the fleet."""
        for xi, si, x, seed, digest in pending:
            record = {"xi": xi, "si": si, "x": x, "seed": seed,
                      "digest": digest}
            self.queue.append(record)
            self._cell_specs[(xi, si)] = record
        # No more workers than cells: a spare would only park.
        self.stats.workers = min(self.config.workers, len(pending))
        if not pending:
            return  # fully warm cache: no fleet needed

        self._transport = self._open_transport()
        try:
            for _ in range(self.stats.workers):
                self._launch_worker()
            while len(self.done) < len(pending) and self._failure is None:
                wait(self._waitables(), WAIT_TIMEOUT)
                self._drive()
            if self._failure is not None:
                raise self._failure
        finally:
            self._shutdown_fleet()
            self.stats.handshakes_rejected = getattr(
                self._transport, "rejected", 0)
            self._transport.close()

    def _waitables(self) -> list:
        """Every pipe or socket whose readiness means work for
        :meth:`_drive`: the workers' and, for tcp, the gate's."""
        return ([worker.handle.waitable for worker in self._workers.values()]
                + self._transport.waitables())

    def _stragglers(self, now: float) -> int:
        """Leased workers silent for more than a quarter of the lease
        timeout -- not yet revocable, but visibly behind the fleet's
        cadence."""
        cutoff = self.config.lease_timeout / 4.0
        return sum(1 for worker in self._workers.values()
                   if (worker.lease_silence(now) or 0.0) > cutoff)

    def _drive(self) -> None:
        """One round after a wake-up: admit peers, pump messages, expire
        leases."""
        now = self._clock()
        if self._transport is not None:  # boundary tests drive bare
            for channel, hello in self._transport.poll_peers():
                self._adopt_remote(channel, hello, now)
        for worker_id in list(self._workers):
            worker = self._workers.get(worker_id)
            if worker is None:
                continue
            try:
                while worker.handle.channel.poll():
                    env = worker.handle.channel.recv(timeout=0.0)
                    if env is None:
                        break
                    self._handle(worker, env, now)
            except ChannelClosed:
                self._lose_worker(worker_id, now, reason="channel-closed")
                continue
            except FabricError:
                # A live channel speaking nonsense (unexpected kind,
                # malformed envelope): treat it exactly like a death --
                # revoke, requeue, replace -- instead of taking the
                # coordinator down with it.
                self._lose_worker(worker_id, now, reason="protocol-error")
                continue
            silent_for = worker.lease_silence(now)
            if not worker.handle.is_alive():
                self._lose_worker(worker_id, now, reason="dead")
            elif silent_for is not None \
                    and silent_for > self.config.lease_timeout:
                self._tel_event("lease.expired", worker_id=worker_id,
                                silent_for=silent_for,
                                timeout=self.config.lease_timeout)
                self._lose_worker(worker_id, now, reason="lease-expired")
        if self.telemetry is not None:
            self.telemetry.tick(self.fold.total - len(self._cell_specs)
                                + len(self.done),
                                active_workers=len(self._workers),
                                stragglers=self._stragglers(now))

    def _shutdown_fleet(self) -> None:
        now = self._clock()
        for worker_id, worker in sorted(self._workers.items()):
            try:
                worker.handle.channel.send(
                    Envelope(kind=SHUTDOWN, sender=COORDINATOR))
            except (ChannelClosed, OSError):
                pass
            self._record_lifetime(worker_id, worker.handle, now)
            self._tel_event("worker.exit", worker_id=worker_id,
                            reason="shutdown",
                            lifetime_s=now - worker.handle.started)
        for _worker_id, worker in sorted(self._workers.items()):
            worker.handle.join(2.0)
            worker.handle.kill()
            worker.handle.channel.close()
        self._workers.clear()


# -- public entry point -----------------------------------------------------


def execute_sweep_fabric(spec: ExperimentSpec,
                         seeds: "Sequence[int] | int | None" = None,
                         *,
                         workers: "int | None" = None,
                         transport: "str | None" = None,
                         config: "FabricConfig | None" = None,
                         cache_dir: "str | os.PathLike | None" = None,
                         on_point: "Callable[[float, int], None] | None" = None,
                         on_cell: "Callable[[int, int], None] | None" = None,
                         obs_session: "obs.ObsSession | None" = None,
                         runtime_dir: "str | os.PathLike | None" = None,
                         progress: bool = False,
                         progress_stream=None,
                         ) -> "tuple[SweepResult, SweepTiming, FabricStats]":
    """Run a sweep on the coordinator/worker fabric.

    :func:`~repro.experiments.executor.execute_sweep` delegates here for
    ``jobs > 1`` (``workers=jobs`` over the ``process`` transport), and
    both run through :func:`~repro.experiments.executor.sweep_envelope`;
    here a :class:`Coordinator` is the cell source.  The merged
    :class:`SweepResult` is **byte-identical** to the serial
    reference for any worker count, transport, injected worker loss, or
    cache state.  Returns ``(result, timing, stats)``; ``stats`` carries
    the fabric's operational counters (leases, requeues, work requests,
    worker lifetimes), which -- unlike the result -- legitimately vary
    run to run.

    ``on_cell(xi, si)`` fires after each newly computed cell has been
    stored (the resumability hook: everything already fired is on disk).
    The other parameters are
    :func:`~repro.experiments.executor.execute_sweep`'s; with
    ``runtime_dir``, the coordinator alone writes the run's telemetry,
    each worker's cells included.
    """
    if config is None:
        config = FabricConfig()
    if workers is not None:
        config = replace(config, workers=workers)
    if transport is not None:
        config = replace(config, transport=transport)
    coordinator: "Coordinator | None" = None

    def run_fleet(fold, pending, cache, telemetry) -> None:
        nonlocal coordinator
        coordinator = Coordinator(
            spec, fold.seed_list, config=config, cache=cache,
            on_cell=on_cell, telemetry=telemetry, fold=fold)
        coordinator.run(pending)

    result, timing = sweep_envelope(
        spec, seeds, run_fleet, jobs=config.workers, mode="fabric",
        cache_dir=cache_dir, on_point=on_point, obs_session=obs_session,
        runtime_dir=runtime_dir, progress=progress,
        progress_stream=progress_stream)
    return result, timing, coordinator.stats
