"""Framing-layer fuzz and hostility tests for the fabric wire module.

The `_SocketChannel` framing is transport-agnostic over the socket
family, so every test here runs twice: once over a UNIX socketpair
(the `socket` transport) and once over a loopback TCP connection (the
`tcp` transport).  The hostile-input tests pin the three wire bugfixes:
oversize headers are refused before allocation, un-sendable frames are
typed errors rather than raw ``struct.error``, and mid-frame hang-ups
report how far the frame got.
"""

import pickle
import socket
import struct

import pytest

from repro.errors import FabricError
from repro.experiments.fabric.wire import (
    ASSIGN_CELLS,
    HELLO,
    MAX_FRAME_BYTES,
    REQUEST_WORK,
    ChannelClosed,
    Envelope,
    HandshakeInfo,
    _SocketChannel,
    check_hello,
    restricted_loads,
)

_HEADER = struct.Struct(">I")


def _unix_pair():
    return socket.socketpair()


def _tcp_pair():
    listener = socket.create_server(("127.0.0.1", 0))
    client = socket.create_connection(listener.getsockname()[:2])
    server, _ = listener.accept()
    listener.close()
    return client, server


_PAIRS = {"unix": _unix_pair, "tcp": _tcp_pair}


@pytest.fixture(params=sorted(_PAIRS))
def sock_pair(request):
    a, b = _PAIRS[request.param]()
    yield a, b
    a.close()
    b.close()


def _frame(env: Envelope) -> bytes:
    body = pickle.dumps(env.to_wire(), protocol=pickle.HIGHEST_PROTOCOL)
    return _HEADER.pack(len(body)) + body


# -- happy-path framing, adversarially delivered ----------------------------


def test_torn_frames_reassemble_at_every_split(sock_pair):
    """A frame split at any byte boundary must still decode."""
    wire, far = sock_pair
    channel = _SocketChannel(far)
    env = Envelope(kind=ASSIGN_CELLS, sender="coordinator",
                   payload={"lease": 7, "cells": [{"xi": 0, "si": 1}]})
    frame = _frame(env)
    for split in range(1, len(frame)):
        wire.sendall(frame[:split])
        # A partial frame must never decode (even as garbage) ...
        assert channel.recv(timeout=0.01) is None
        wire.sendall(frame[split:])
        # ... and the reassembled one must decode exactly.
        got = channel.recv(timeout=5.0)
        assert got == env


def test_interleaved_frames_arrive_in_order(sock_pair):
    wire, far = sock_pair
    channel = _SocketChannel(far)
    envs = [Envelope(kind=REQUEST_WORK, sender=f"w{i}",
                     payload={"i": i}) for i in range(5)]
    blob = b"".join(_frame(env) for env in envs)
    # One write carrying five frames, torn mid-stream for good measure.
    wire.sendall(blob[:17])
    wire.sendall(blob[17:])
    got = [channel.recv(timeout=5.0) for _ in envs]
    assert got == envs


def test_poll_buffers_one_pending_frame(sock_pair):
    wire, far = sock_pair
    channel = _SocketChannel(far)
    env = Envelope(kind=REQUEST_WORK, sender="w0")
    wire.sendall(_frame(env))
    deadline_polls = 100
    while not channel.poll() and deadline_polls:
        deadline_polls -= 1
    assert channel.recv(timeout=1.0) == env


# -- hostile input ----------------------------------------------------------


def test_zero_length_frame_is_rejected(sock_pair):
    wire, far = sock_pair
    channel = _SocketChannel(far)
    wire.sendall(_HEADER.pack(0))
    with pytest.raises(ChannelClosed, match="undecodable 0-byte frame"):
        channel.recv(timeout=5.0)


def test_oversize_header_rejected_before_allocation(sock_pair):
    """A hostile 4-byte header demanding 2 GiB must die instantly --
    without the receiver waiting for (or allocating) the body."""
    wire, far = sock_pair
    channel = _SocketChannel(far)
    length = 1 << 31
    wire.sendall(_HEADER.pack(length))
    with pytest.raises(ChannelClosed, match=str(length)):
        channel.recv(timeout=5.0)
    assert length > MAX_FRAME_BYTES  # the header alone trips the limit


def test_oversize_send_is_typed_not_struct_error(sock_pair):
    wire, far = sock_pair
    channel = _SocketChannel(wire, max_frame_bytes=64)
    env = Envelope(kind=ASSIGN_CELLS, sender="coordinator",
                   payload={"blob": "x" * 4096})
    with pytest.raises(ChannelClosed, match="refusing to send"):
        channel.send(env)
    far.setblocking(False)  # nothing must have hit the wire
    with pytest.raises(BlockingIOError):
        far.recv(1)


def test_unpicklable_payload_is_typed(sock_pair):
    wire, _far = sock_pair
    channel = _SocketChannel(wire)
    env = Envelope(kind=REQUEST_WORK, sender="w0",
                   payload={"sock": wire})  # sockets cannot pickle
    with pytest.raises(FabricError, match="unpicklable"):
        channel.send(env)


def test_midframe_hangup_reports_progress(sock_pair):
    """Peer death halfway through a frame names the buffered byte count
    and the expected frame length (satellite bugfix 3)."""
    wire, far = sock_pair
    channel = _SocketChannel(far)
    env = Envelope(kind=ASSIGN_CELLS, sender="coordinator",
                   payload={"cells": list(range(50))})
    frame = _frame(env)
    sent = len(frame) // 2
    wire.sendall(frame[:sent])
    wire.close()
    with pytest.raises(ChannelClosed) as exc_info:
        channel.recv(timeout=5.0)
    message = str(exc_info.value)
    assert "mid-frame" in message
    assert f"{sent} buffered byte(s)" in message
    assert f"{len(frame) - _HEADER.size}-byte frame" in message


def test_clean_hangup_is_still_plain(sock_pair):
    wire, far = sock_pair
    channel = _SocketChannel(far)
    wire.close()
    with pytest.raises(ChannelClosed, match="hung up$"):
        channel.recv(timeout=5.0)


def test_forbidden_global_pickle_is_rejected(sock_pair):
    """The classic RCE gadget -- a frame whose pickle imports
    ``os.system`` -- must die in the restricted unpickler, not run."""
    wire, far = sock_pair
    channel = _SocketChannel(far)
    gadget = b"cos\nsystem\n(S'true'\ntR."
    wire.sendall(_HEADER.pack(len(gadget)) + gadget)
    with pytest.raises(ChannelClosed, match="undecodable"):
        channel.recv(timeout=5.0)


def test_benign_class_pickle_is_also_rejected(sock_pair):
    """Even a harmless non-primitive (an Envelope instance itself)
    is refused: the allow-list is the primitive set, full stop."""
    wire, far = sock_pair
    channel = _SocketChannel(far)
    body = pickle.dumps(Envelope(kind=REQUEST_WORK, sender="w0"))
    wire.sendall(_HEADER.pack(len(body)) + body)
    with pytest.raises(ChannelClosed, match="undecodable"):
        channel.recv(timeout=5.0)


# -- the restricted unpickler, unit-level -----------------------------------


def test_restricted_loads_accepts_primitives():
    data = {"kind": "CELL_RESULT", "sender": "w1",
            "payload": {"xi": 3, "walls": [0.1, None, True]},
            "version": 5}
    blob = pickle.dumps(data, protocol=pickle.HIGHEST_PROTOCOL)
    assert restricted_loads(blob) == data


def test_restricted_loads_refuses_globals():
    blob = pickle.dumps(struct.Struct)  # any importable global
    with pytest.raises(pickle.UnpicklingError, match="plain data only"):
        restricted_loads(blob)


# -- the HELLO token check, unit-level --------------------------------------


def test_non_ascii_token_is_rejected_not_crashed():
    """``hmac.compare_digest`` raises TypeError on non-ASCII str args,
    and the HELLO token is attacker-supplied -- the gate must compare
    bytes so a hostile token costs the peer admission, not the
    coordinator its sweep."""
    info = HandshakeInfo(token="sesame", scenario="s", fingerprint="f")
    hello = Envelope(kind=HELLO, sender="?",
                     payload={"token": "sésame€"})
    assert check_hello(hello, info) == "bad token"


def test_non_ascii_shared_secret_still_admits():
    info = HandshakeInfo(token="sésame", scenario="s", fingerprint="f")
    hello = Envelope(kind=HELLO, sender="?",
                     payload={"token": "sésame", "fingerprint": "f"})
    assert check_hello(hello, info) is None
