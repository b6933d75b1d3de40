"""The fabric's wire layer: envelopes, channels, framing, handshake.

Everything in this module is about moving one typed, versioned
:class:`Envelope` between a coordinator and a worker -- and about
surviving what a real link does to that ambition.  The split from
:mod:`repro.experiments.fabric.core` is a trust split as much as a code
split: the core schedules work among peers it has admitted; this module
decides what a byte stream is allowed to become *before* anything
trusts it.

Three hardening layers, in the order a frame meets them:

* **Framing limits.**  Frames are ``struct('>I')`` length + pickled
  payload.  A corrupt or hostile 4-byte header can announce a 4 GiB
  frame; :class:`_SocketChannel` rejects any announced length above
  :data:`MAX_FRAME_BYTES` (and refuses to *send* a frame that large,
  or one that overflows the 32-bit length field) with a typed
  :class:`ChannelClosed` instead of attempting the allocation.
* **Restricted unpickling.**  A wire frame is attacker-controlled
  bytes, and ``pickle.loads`` executes arbitrary constructors.  Every
  inbound frame is decoded by :func:`restricted_loads`, whose
  allow-list of importable globals is **empty**: envelope payloads are
  plain data (dicts, lists, strings, numbers -- exactly what
  ``Envelope.to_wire`` emits), so any ``GLOBAL``/``STACK_GLOBAL``
  opcode in a frame is an attack or a bug, and either way it dies as a
  :class:`ChannelClosed`, not a code execution.
* **The HELLO/WELCOME handshake.**  A TCP peer is anonymous until it
  proves three things: it speaks :data:`PROTOCOL_VERSION` (checked by
  ``Envelope.from_wire`` on its first frame), it knows the run's
  shared secret token, and -- when it already holds a spec -- its
  :meth:`~repro.experiments.scenarios.ExperimentSpec.fingerprint`
  matches the coordinator's, so two checkouts whose scenario spec or
  model code differ refuse to cooperate instead of mixing cells.
  Mismatches are rejected with a reason the operator can read; garbage
  is closed without ceremony.
"""

from __future__ import annotations

import hmac
import io
import pickle
import select
import socket
import struct
import time
from dataclasses import dataclass, field

from repro.errors import FabricError

#: Version stamped into every envelope; receivers reject mismatches
#: instead of guessing, so mixed-version fleets fail loudly.  (4: a
#: leased worker asks for its next lease while its last cell computes,
#: and that ``REQUEST_WORK`` extends its lease; a version-3 coordinator
#: would replace the lease and lose track of the first one's cells.
#: 5: a parked worker sends nothing, and the kind a version-4 parked
#: worker sent once a second is no longer in :data:`MESSAGE_KINDS`.)
PROTOCOL_VERSION = 5

# -- message kinds ----------------------------------------------------------

REQUEST_WORK = "REQUEST_WORK"
ASSIGN_CELLS = "ASSIGN_CELLS"
CELL_RESULT = "CELL_RESULT"
SHUTDOWN = "SHUTDOWN"
#: First message of a connecting TCP peer: token + optional fingerprint.
HELLO = "HELLO"
#: Coordinator's handshake verdict: admission (with the worker's
#: assignment) or a refusal carrying the reason.
WELCOME = "WELCOME"

MESSAGE_KINDS = frozenset({REQUEST_WORK, ASSIGN_CELLS, CELL_RESULT,
                           SHUTDOWN, HELLO, WELCOME})

#: Sender id of the coordinator end of every channel.
COORDINATOR = "coordinator"

#: Largest frame a channel will send or accept (64 MiB).  Instrumented
#: cells carry full trace payloads and stay far below this; a header
#: announcing more is treated as corruption or hostility, never as a
#: buffer to allocate.
MAX_FRAME_BYTES = 64 * 1024 * 1024

#: What a 4-byte big-endian length field can express at all.
_HEADER_RANGE = 0xFFFFFFFF


@dataclass(frozen=True)
class Envelope:
    """One typed, versioned fabric message."""

    kind: str
    sender: str
    payload: dict = field(default_factory=dict)
    version: int = PROTOCOL_VERSION

    def __post_init__(self) -> None:
        if self.kind not in MESSAGE_KINDS:
            raise FabricError(f"unknown message kind {self.kind!r}")

    def to_wire(self) -> dict:
        """Plain-dict spelling (what the TCP transport pickles)."""
        return {"kind": self.kind, "sender": self.sender,
                "payload": self.payload, "version": self.version}

    @classmethod
    def from_wire(cls, data: dict) -> "Envelope":
        try:
            env = cls(kind=data["kind"], sender=data["sender"],
                      payload=dict(data["payload"]),
                      version=int(data["version"]))
        except FabricError:
            raise
        except (KeyError, TypeError, ValueError) as exc:
            raise FabricError(f"malformed envelope {data!r}: {exc}") from exc
        if env.version != PROTOCOL_VERSION:
            raise FabricError(
                f"protocol version mismatch: got {env.version}, "
                f"speak {PROTOCOL_VERSION}")
        return env


# -- restricted unpickling ---------------------------------------------------


class _RestrictedUnpickler(pickle.Unpickler):
    """Unpickler for wire frames: **no** importable globals, period.

    ``Envelope.to_wire`` emits only containers and scalars, which the
    pickle protocol encodes without a single ``GLOBAL`` opcode -- so the
    allow-list of payload types is the primitive set and nothing else.
    A frame that asks for any module attribute (the classic
    ``os.system`` / ``builtins.eval`` gadget, or even a benign
    dataclass) is rejected before its constructor can run.
    """

    def find_class(self, module: str, name: str):
        raise pickle.UnpicklingError(
            f"wire frame references global {module}.{name}; envelope "
            f"payloads are plain data only")

    def persistent_load(self, pid):
        raise pickle.UnpicklingError("wire frames cannot use persistent ids")


def restricted_loads(frame: bytes):
    """Decode one wire frame under the empty global allow-list."""
    return _RestrictedUnpickler(io.BytesIO(frame)).load()


# -- channels ---------------------------------------------------------------
#
# A channel is one duplex coordinator<->worker conversation.  The
# coordinator side needs non-blocking poll/recv (it multiplexes many
# workers, blocking in ``multiprocessing.connection.wait`` on their
# pipes and sockets); the worker side blocks in ``recv()``, with a
# timeout only while it waits for its WELCOME.


class ChannelClosed(FabricError):
    """The peer hung up (worker death, coordinator death) -- or sent
    something no healthy peer would (oversize frame, undecodable
    bytes), which the receiver treats exactly like a death."""


class _PipeChannel:
    """Process-transport channel half: one end of a
    ``multiprocessing.Pipe``."""

    def __init__(self, conn) -> None:
        self._conn = conn

    def send(self, env: Envelope) -> None:
        try:
            self._conn.send(env)
        except (OSError, ValueError, BrokenPipeError) as exc:
            raise ChannelClosed(f"pipe send failed: {exc}") from exc

    def poll(self) -> bool:
        try:
            return self._conn.poll()
        except (OSError, ValueError):
            raise ChannelClosed("pipe poll failed")

    def recv(self, timeout: "float | None" = None) -> "Envelope | None":
        try:
            if not self._conn.poll(timeout):
                return None
            return self._conn.recv()
        except (EOFError, OSError, ValueError) as exc:
            raise ChannelClosed(f"pipe closed: {exc}") from exc

    def close(self) -> None:
        try:
            self._conn.close()
        except OSError:
            pass


class _SocketChannel:
    """TCP-transport channel half: length-prefixed pickled envelopes.

    Frames are ``struct('>I')`` length + ``pickle(envelope.to_wire())``.
    The framing needs only a byte stream, so it works over any socket
    family (the wire tests also drive it over a UNIX socketpair).
    Inbound frames pass three gates before anything trusts them: the
    announced length must not exceed ``max_frame_bytes``, the body must
    decode under :func:`restricted_loads` (no importable globals), and
    the decoded dict must revalidate as a versioned envelope through
    :meth:`Envelope.from_wire`.  Every failure is a typed
    :class:`ChannelClosed`/:class:`FabricError`, never a raw pickle or
    struct surprise.
    """

    _HEADER = struct.Struct(">I")

    def __init__(self, sock: "socket.socket", *,
                 max_frame_bytes: int = MAX_FRAME_BYTES) -> None:
        self._sock = sock
        self._buffer = bytearray()
        self._pending: "Envelope | None" = None
        self.max_frame_bytes = int(max_frame_bytes)

    def send(self, env: Envelope) -> None:
        try:
            frame = pickle.dumps(env.to_wire(),
                                 protocol=pickle.HIGHEST_PROTOCOL)
        except Exception as exc:  # pickle raises a small zoo of types
            raise FabricError(
                f"unpicklable {env.kind} envelope: "
                f"{type(exc).__name__}: {exc}") from exc
        limit = min(self.max_frame_bytes, _HEADER_RANGE)
        if len(frame) > limit:
            raise ChannelClosed(
                f"refusing to send {len(frame)}-byte {env.kind} frame "
                f"(limit {limit}); the peer would reject it as hostile")
        try:
            self._sock.sendall(self._HEADER.pack(len(frame)) + frame)
        except struct.error as exc:  # unreachable after the limit check
            raise ChannelClosed(
                f"frame length {len(frame)} does not fit the wire "
                f"header: {exc}") from exc
        except OSError as exc:
            raise ChannelClosed(f"socket send failed: {exc}") from exc

    def _pump(self, timeout: float) -> None:
        """Pull whatever bytes are ready into the frame buffer."""
        try:
            ready, _, _ = select.select([self._sock], [], [], timeout)
            if not ready:
                return
            chunk = self._sock.recv(1 << 16)
        except OSError as exc:
            raise ChannelClosed(f"socket recv failed: {exc}") from exc
        if not chunk:
            if self._buffer:
                # Diagnosable truncation: say how far the frame got.
                detail = f" with {len(self._buffer)} buffered byte(s)"
                if len(self._buffer) >= self._HEADER.size:
                    (expected,) = self._HEADER.unpack(
                        bytes(self._buffer[:self._HEADER.size]))
                    detail += f" of an expected {expected}-byte frame"
                raise ChannelClosed(f"socket peer hung up mid-frame{detail}")
            raise ChannelClosed("socket peer hung up")
        self._buffer.extend(chunk)

    def _take_frame(self) -> "Envelope | None":
        header = self._HEADER.size
        if len(self._buffer) < header:
            return None
        (length,) = self._HEADER.unpack(bytes(self._buffer[:header]))
        if length > self.max_frame_bytes:
            raise ChannelClosed(
                f"oversize frame: peer announced {length} bytes "
                f"(limit {self.max_frame_bytes})")
        if len(self._buffer) < header + length:
            return None
        frame = bytes(self._buffer[header:header + length])
        del self._buffer[:header + length]
        try:
            data = restricted_loads(frame)
        except Exception as exc:
            raise ChannelClosed(
                f"undecodable {length}-byte frame: "
                f"{type(exc).__name__}: {exc}") from exc
        return Envelope.from_wire(data)

    def poll(self) -> bool:
        if self._pending is None:
            self._pending = self._take_frame()
        if self._pending is None:
            self._pump(0.0)
            self._pending = self._take_frame()
        return self._pending is not None

    def recv(self, timeout: "float | None" = None) -> "Envelope | None":
        if self._pending is not None:
            env, self._pending = self._pending, None
            return env
        env = self._take_frame()
        if env is not None:
            return env
        deadline = (None if timeout is None
                    else time.monotonic() + timeout)
        while True:
            remaining = (0.05 if deadline is None
                         else deadline - time.monotonic())
            if deadline is not None and remaining <= 0:
                return None
            self._pump(max(0.0, remaining))
            env = self._take_frame()
            if env is not None:
                return env

    def fileno(self) -> int:
        """The socket's descriptor, so ``multiprocessing.connection.wait``
        can block on the channel.  Once :meth:`poll` has returned False
        the buffer holds at most part of a frame, so nothing is ready
        until the socket turns readable again."""
        return self._sock.fileno()

    def close(self) -> None:
        try:
            self._sock.close()
        except OSError:
            pass


# -- the HELLO/WELCOME handshake --------------------------------------------


@dataclass(frozen=True)
class HandshakeInfo:
    """Everything the coordinator's admission gate knows about the run.

    The token is the shared secret remote workers must present; the
    scenario/fingerprint pair lets both sides prove they hold the same
    scenario spec and model code (see ``ExperimentSpec.fingerprint``).  The
    remaining fields ride in the WELCOME so a bootstrapped remote
    worker can assemble its own ``WorkerConfig`` without a second
    round-trip.
    """

    token: str
    scenario: str
    fingerprint: str
    instrument: bool = False
    chaos: "dict | None" = None
    """The run's ``WorkerChaos`` spelled as plain data (wire-safe), or
    None."""


def check_hello(env: Envelope, info: HandshakeInfo) -> "str | None":
    """Validate a peer's first message; the rejection reason, or None.

    Protocol-version screening already happened -- ``from_wire`` refused
    to construct the envelope otherwise -- so this checks the two
    claims a versioned peer still has to make: the shared token
    (compared in constant time) and, when the peer already holds a
    spec, the spec fingerprint.
    """
    if env.kind != HELLO:
        return f"expected HELLO, got {env.kind}"
    token = env.payload.get("token")
    # Compare as bytes: compare_digest raises TypeError on non-ASCII
    # str input, and the token here is attacker-supplied.
    if not isinstance(token, str) or not hmac.compare_digest(
            token.encode("utf-8"), info.token.encode("utf-8")):
        return "bad token"
    fingerprint = env.payload.get("fingerprint")
    if fingerprint is not None and fingerprint != info.fingerprint:
        return (f"spec fingerprint mismatch: worker computed "
                f"{str(fingerprint)[:12]}, coordinator sweeps "
                f"{info.fingerprint[:12]} -- the scenario spec or the "
                f"model code differs")
    return None


def welcome_payload(info: HandshakeInfo, worker_id: str) -> dict:
    """The admission WELCOME: identity plus worker-side run config."""
    return {"ok": True, "worker_id": worker_id, "scenario": info.scenario,
            "fingerprint": info.fingerprint, "instrument": info.instrument,
            "chaos": info.chaos}


def client_handshake(channel, token: str, *,
                     fingerprint: "str | None" = None,
                     worker_id: "str | None" = None,
                     nonce: "str | None" = None,
                     timeout: float = 10.0) -> dict:
    """Run the worker side of the handshake; the WELCOME payload.

    Sends HELLO, waits for the coordinator's verdict, and raises a
    clean :class:`FabricError` -- carrying the coordinator's stated
    reason -- on refusal, timeout, or a non-WELCOME reply.  ``nonce``
    is the launch-proof echoed by locally-spawned TCP workers; remote
    bootstraps leave it None.
    """
    channel.send(Envelope(kind=HELLO, sender=worker_id or "?",
                          payload={"token": token,
                                   "fingerprint": fingerprint,
                                   "worker_id": worker_id,
                                   "nonce": nonce}))
    env = channel.recv(timeout=timeout)
    if env is None:
        raise FabricError(
            f"handshake timed out after {timeout:g}s waiting for WELCOME")
    if env.kind != WELCOME:
        raise FabricError(f"expected WELCOME, got {env.kind}")
    if not env.payload.get("ok", False):
        raise FabricError("coordinator rejected the handshake: "
                          f"{env.payload.get('error', 'no reason given')}")
    return dict(env.payload)
