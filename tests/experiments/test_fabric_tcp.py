"""The TCP transport: determinism, late joiners, and the admission gate.

Three layers of test here:

* end-to-end sweeps over loopback TCP (plain, kill-chaos, and with a
  hostile peer harassing the listener mid-run) asserting byte-identity
  with the serial reference;
* the coordinator's accept loop -- a remote worker bootstrapped with
  :func:`run_remote_worker` joins a live sweep and is leased work;
* the HELLO gate unit-by-unit: wrong token, wrong fingerprint, raw
  garbage, and the ``python -m repro.experiments.fabric`` CLI's clean
  exit-2 refusals.
"""

import json
import socket
import struct
import subprocess
import sys
import threading
import time

import pytest

from repro.errors import FabricError
from repro.experiments.executor import SweepFold, execute_sweep, plan_cells
from repro.experiments.fabric import (
    COORDINATOR,
    HELLO,
    WELCOME,
    Coordinator,
    Envelope,
    FabricConfig,
    HandshakeInfo,
    TcpTransport,
    WorkerChaos,
    WorkerConfig,
    execute_sweep_fabric,
    run_remote_worker,
    welcome_payload,
)
from repro.experiments.fabric.wire import _SocketChannel
from repro.experiments.scenarios import ExperimentSpec
from tests.experiments.test_fabric import SLOW, TINY, _canon, _tiny_build


_HEADER = struct.Struct(">I")


# -- end-to-end determinism --------------------------------------------------


def test_tcp_kill_chaos_matches_serial():
    """One worker SIGKILLed mid-sweep; the merge stays byte-identical
    (the acceptance-criterion run, minus the CLI wrapper)."""
    # kill:1:1 fires only when w1 starts a *second* cell.  w0 is served
    # first; on TINY's millisecond cells a w1 whose first request comes
    # 0.1 s late finds the queue drained by w0, and nobody dies.  On
    # SLOW's 0.15 s cells, with 2-cell leases, w0 asks for its second
    # lease at 0.15 s and its third at 0.45 s, and w1 is leased a cell
    # while another is still queued (so it dies) for any request lag
    # under about 0.45 s.
    config = FabricConfig(workers=2, transport="tcp", lease_size=2,
                          chaos=WorkerChaos.parse("kill:1:1"))
    result, _timing, stats = execute_sweep_fabric(SLOW, seeds=2,
                                                  config=config)
    assert _canon(result) == _canon(execute_sweep(SLOW, seeds=2)[0])
    assert stats.workers_lost >= 1
    assert stats.requeued_cells >= 1


# -- a live coordinator for gate/join tests ----------------------------------


class _LiveRun:
    """Run a Coordinator in a thread; expose its transport address."""

    def __init__(self, spec, *, workers=1, token="sesame",
                 lease_size=1, runtime_dir=None) -> None:
        self.spec = spec
        config = FabricConfig(workers=workers, transport="tcp",
                              token=token, lease_size=lease_size)
        self.fold = SweepFold(spec, [0, 1])
        self.telemetry = None
        if runtime_dir is not None:
            from repro.obs.runtime import RunTelemetry

            self.telemetry = RunTelemetry(runtime_dir,
                                          total_cells=self.fold.total)
        self.coordinator = Coordinator(spec, [0, 1], config=config,
                                       cache=None, fold=self.fold,
                                       telemetry=self.telemetry)
        self.error = None
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        _hits, pending = plan_cells(self.spec, [0, 1], None)
        try:
            self.coordinator.run(pending)
        except Exception as exc:  # surfaced by join()
            self.error = exc
        if self.telemetry is not None:
            self.telemetry.finalize(
                state="failed" if self.error is not None else "done")

    def __enter__(self) -> "_LiveRun":
        self._thread.start()
        deadline = time.monotonic() + 10.0
        while self.coordinator._transport is None:
            if time.monotonic() > deadline or not self._thread.is_alive():
                raise AssertionError("coordinator never bound its listener")
            time.sleep(0.01)
        self.address = self.coordinator._transport.address
        return self

    def __exit__(self, *exc) -> None:
        self._thread.join(60.0)
        assert not self._thread.is_alive(), "coordinator did not finish"

    def merged(self):
        assert self.error is None, f"coordinator failed: {self.error}"
        return self.fold.result()


def test_remote_worker_joins_mid_run_and_is_leased_work():
    serial = _canon(execute_sweep(SLOW, seeds=2)[0])
    with _LiveRun(SLOW, workers=1) as run:
        # Bootstrap a remote worker into the live sweep, exactly as
        # `python -m repro.experiments.fabric worker` would (tests pass
        # the spec explicitly: SLOW is not in the scenario registry).
        worker_id = run_remote_worker(run.address, "sesame", spec=SLOW)
    assert worker_id  # the coordinator assigned an id
    assert _canon(run.merged()) == serial
    stats = run.coordinator.stats
    assert stats.remote_workers_joined == 1
    assert stats.workers_started == 2  # the local fleet + the joiner


def test_remote_worker_cells_reach_the_coordinators_span_file(tmp_path):
    """A joiner writes no telemetry of its own: its cells appear as
    ``cell.compute`` spans naming it in the coordinator's one file."""
    from repro.obs.runtime import load_spans

    run_dir = tmp_path / "rt"
    with _LiveRun(SLOW, workers=1, runtime_dir=run_dir) as run:
        worker_id = run_remote_worker(run.address, "sesame", spec=SLOW)
    assert _canon(run.merged()) == _canon(execute_sweep(SLOW, seeds=2)[0])
    assert not list(run_dir.glob("spans-*"))
    cells = load_spans(run_dir).filter("cell.compute").records
    assert len(cells) == 6
    assert any(r["worker_id"] == worker_id for r in cells)
    doc = json.loads((run_dir / "timeline.trace.json").read_text())
    lanes = {e["args"]["name"]: e["pid"] for e in doc["traceEvents"]
             if e["ph"] == "M"}
    assert any(e["name"] == "cell.compute"
               and e["pid"] == lanes[f"worker {worker_id}"]
               for e in doc["traceEvents"])


def test_wrong_token_remote_worker_is_refused():
    with _LiveRun(SLOW, workers=1) as run:
        with pytest.raises(FabricError, match="bad token"):
            run_remote_worker(run.address, "wrong-token", spec=SLOW)
    assert run.coordinator.stats.handshakes_rejected >= 1
    assert _canon(run.merged()) == _canon(execute_sweep(SLOW, seeds=2)[0])


def test_hostile_peer_mid_run_does_not_crash_the_sweep():
    """An anonymous connection announcing a 2 GiB frame is dropped at
    the gate while the sweep completes byte-identically around it."""
    with _LiveRun(SLOW, workers=1) as run:
        host, port = run.address.rsplit(":", 1)
        evil = socket.create_connection((host, int(port)))
        evil.sendall(_HEADER.pack(1 << 31))
        payload = b"cos\nsystem\n(S'true'\ntR."
        gadget = socket.create_connection((host, int(port)))
        gadget.sendall(_HEADER.pack(len(payload)) + payload)
        deadline = time.monotonic() + 10.0
        while (run.coordinator._transport.rejected < 2
               and time.monotonic() < deadline):
            time.sleep(0.02)
        evil.close()
        gadget.close()
    assert _canon(run.merged()) == _canon(execute_sweep(SLOW, seeds=2)[0])
    assert run.coordinator.stats.handshakes_rejected >= 2


def test_protocol_error_from_admitted_worker_loses_it_cleanly():
    """An admitted peer that starts speaking nonsense (a WELCOME sent
    *to* the coordinator) is revoked like a death, not a crash."""
    with _LiveRun(SLOW, workers=1) as run:
        from repro.experiments.fabric.wire import (_SocketChannel,
                                                   client_handshake)
        host, port = run.address.rsplit(":", 1)
        sock = socket.create_connection((host, int(port)))
        channel = _SocketChannel(sock)
        client_handshake(channel, "sesame", timeout=10.0)
        channel.send(Envelope(kind=WELCOME, sender="imposter",
                              payload={"ok": True}))
        deadline = time.monotonic() + 10.0
        while (run.coordinator.stats.workers_lost < 1
               and time.monotonic() < deadline):
            time.sleep(0.02)
        channel.close()
    assert _canon(run.merged()) == _canon(execute_sweep(SLOW, seeds=2)[0])
    assert run.coordinator.stats.workers_lost >= 1


# -- the admission gate, unit-level ------------------------------------------


def _pump_until(transport, predicate, timeout=10.0):
    admitted = []
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        admitted.extend(transport.poll_peers())
        if predicate(admitted):
            return admitted
        time.sleep(0.01)
    raise AssertionError("admission gate never reached expected state")


@pytest.fixture
def gate():
    info = HandshakeInfo(token="sesame", scenario=TINY.name,
                         fingerprint=TINY.fingerprint())
    transport = TcpTransport(info, listen="127.0.0.1:0",
                             handshake_timeout=2.0)
    yield transport
    transport.close()


def _handshake_in_thread(address, token, **kwargs):
    result = {}

    def attempt():
        try:
            result["worker_id"] = run_remote_worker(address, token,
                                                    spec=TINY, **kwargs)
        except FabricError as exc:
            result["error"] = str(exc)

    thread = threading.Thread(target=attempt, daemon=True)
    thread.start()
    return thread, result


def test_gate_rejects_wrong_fingerprint(gate):
    """A worker holding a diverged spec (same scenario name, different
    cells) is turned away with a readable reason, not admitted to mix
    incompatible bytes into the sweep."""
    forged = ExperimentSpec(name=TINY.name, title=TINY.title,
                            xlabel=TINY.xlabel, x_values=(0.0, 9.9),
                            build=_tiny_build, paper_claim="toy",
                            default_seeds=2)
    assert forged.fingerprint() != TINY.fingerprint()

    bad = {}

    def attempt_forged():
        try:
            run_remote_worker(gate.address, "sesame", spec=forged)
        except FabricError as exc:
            bad["error"] = str(exc)

    thread = threading.Thread(target=attempt_forged, daemon=True)
    thread.start()
    _pump_until(gate, lambda _peers: gate.rejected >= 1)
    thread.join(10.0)
    assert "fingerprint mismatch" in bad["error"]


def test_gate_admits_matching_fingerprint_with_hello_intact(gate):
    thread, result = _handshake_in_thread(gate.address, "sesame")
    admitted = _pump_until(gate, lambda peers: len(peers) >= 1)
    channel, hello = admitted[0]
    assert hello.payload["fingerprint"] == TINY.fingerprint()
    # Complete the handshake with a refusal so the worker thread exits
    # instead of waiting for leases this unit test will never send.
    channel.send(Envelope(kind=WELCOME, sender=COORDINATOR,
                          payload={"ok": False, "error": "test over"}))
    thread.join(10.0)
    assert "test over" in result["error"]


def _connect(address):
    host, port = address.rsplit(":", 1)
    return socket.create_connection((host, int(port)))


def test_gate_rejects_garbage_without_reply(gate):
    sock = _connect(gate.address)
    sock.sendall(b"\x00\x00\x00\x04junk")
    _pump_until(gate, lambda _peers: gate.rejected >= 1)
    sock.close()


def test_gate_times_out_silent_connections(gate):
    sock = _connect(gate.address)
    _pump_until(gate, lambda _peers: gate.rejected >= 1, timeout=10.0)
    sock.close()


def test_gate_survives_non_ascii_token(gate):
    """A HELLO bearing a non-ASCII token used to blow up
    ``hmac.compare_digest`` with a TypeError inside ``poll_peers``,
    aborting the whole sweep; it must cost the peer its connection
    instead (the pump below propagates any exception as a failure)."""
    channel = _SocketChannel(_connect(gate.address))
    channel.send(Envelope(kind=HELLO, sender="?",
                          payload={"token": "sésame€"}))
    _pump_until(gate, lambda _peers: gate.rejected >= 1)
    channel.close()


def test_gate_refuses_a_version_3_hello(gate):
    """A version-3 peer reads a leased worker's REQUEST_WORK as a new
    lease, not an extension, so the gate refuses it with a reason."""
    channel = _SocketChannel(_connect(gate.address))
    channel.send(Envelope(kind=HELLO, sender="?", version=3,
                          payload={"token": "sesame",
                                   "fingerprint": TINY.fingerprint()}))
    _pump_until(gate, lambda _peers: gate.rejected >= 1)
    reply = channel.recv(timeout=5.0)
    assert reply.kind == WELCOME and reply.payload["ok"] is False
    assert "protocol version mismatch: got 3, speak 5" \
        in reply.payload["error"]
    channel.close()


def test_launch_ignores_impostor_claiming_worker_id(gate):
    """A token-holding stranger that claims the about-to-launch worker
    id must not be handed the local worker's slot: ``launch`` matches
    its spawned child by a per-launch nonce, and the impostor lands in
    the backlog as an ordinary late joiner."""
    impostor = _SocketChannel(_connect(gate.address))
    impostor.send(Envelope(kind=HELLO, sender="w0",
                           payload={"token": "sesame", "worker_id": "w0",
                                    "fingerprint": TINY.fingerprint()}))
    handle = gate.launch(TINY, False, WorkerConfig(worker_id="w0"))
    strangers = []
    try:
        assert handle.is_alive()  # the handle points at the real child
        strangers = _pump_until(
            gate, lambda peers: any(
                hello.payload.get("worker_id") == "w0" for _c, hello in peers))
        hello = strangers[0][1]
        assert hello.payload.get("nonce") is None  # it is the impostor
    finally:
        handle.kill()
        handle.channel.close()
        for peer, _hello in strangers:
            peer.close()
        impostor.close()


def test_minted_worker_ids_skip_remote_claims():
    """Replacement launches must not reuse an id a remote peer already
    holds -- an overwrite would orphan the incumbent's lease and hang
    the sweep waiting for cells nobody owns."""
    class _Shim:
        _workers = {"w0": object(), "w2": object()}
        _next_worker = 0

    shim = _Shim()
    assert Coordinator._mint_worker_id(shim) == "w1"
    assert Coordinator._mint_worker_id(shim) == "w3"
    assert shim._next_worker == 4


# -- the CLI bootstrap -------------------------------------------------------


def _run_cli_worker(address, token, pump, extra=(), env=None):
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.experiments.fabric", "worker",
         address, "--token", token, "--handshake-timeout", "10",
         *extra],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env)
    try:
        while proc.poll() is None:
            pump()
            time.sleep(0.02)
    finally:
        if proc.poll() is None:
            proc.kill()
    out, err = proc.communicate(timeout=10)
    return proc.returncode, out, err


def test_cli_worker_wrong_token_exits_2(gate):
    code, _out, err = _run_cli_worker(
        gate.address, "wrong", lambda: gate.poll_peers())
    assert code == 2
    assert "bad token" in err
    assert "Traceback" not in err


def test_cli_worker_unknown_scenario_exits_2():
    info = HandshakeInfo(token="sesame", scenario="no-such-scenario",
                         fingerprint="f" * 64)
    transport = TcpTransport(info, listen="127.0.0.1:0",
                             handshake_timeout=5.0)

    def pump():
        for channel, _hello in transport.poll_peers():
            channel.send(Envelope(kind=WELCOME, sender=COORDINATOR,
                                  payload=welcome_payload(info, "w0")))

    try:
        code, _out, err = _run_cli_worker(transport.address, "sesame",
                                          pump)
    finally:
        transport.close()
    assert code == 2
    assert "does not know" in err
    assert "Traceback" not in err
