"""The coordinator/worker sweep fabric, as a package.

Grew out of a single ``fabric.py`` when the TCP transport arrived and
the wire layer became a trust boundary worth its own module:

* :mod:`repro.experiments.fabric.wire` -- envelopes, framing, the
  restricted unpickler, and the HELLO/WELCOME handshake.  Everything
  that decides what a byte stream may become.
* :mod:`repro.experiments.fabric.core` -- workers, the ``process``
  and ``tcp`` transports, the coordinator, and
  :func:`execute_sweep_fabric`.  Everything that schedules work among
  admitted peers.
* ``python -m repro.experiments.fabric`` -- the remote-worker
  bootstrap CLI (see :mod:`repro.experiments.fabric.__main__`).

This ``__init__`` re-exports the whole public surface, so existing
``from repro.experiments.fabric import X`` call sites are unaffected
by the split.
"""

from repro.experiments.fabric.core import (  # noqa: F401
    Coordinator,
    FabricConfig,
    FabricStats,
    ProcessTransport,
    TcpTransport,
    WorkerChaos,
    WorkerConfig,
    WorkerHandle,
    _Lease,
    _Worker,
    execute_sweep_fabric,
    run_remote_worker,
    worker_main,
)
from repro.experiments.fabric.wire import (  # noqa: F401
    ASSIGN_CELLS,
    CELL_RESULT,
    COORDINATOR,
    HELLO,
    MAX_FRAME_BYTES,
    MESSAGE_KINDS,
    PROTOCOL_VERSION,
    REQUEST_WORK,
    SHUTDOWN,
    WELCOME,
    ChannelClosed,
    Envelope,
    HandshakeInfo,
    check_hello,
    client_handshake,
    restricted_loads,
    welcome_payload,
)

__all__ = [
    "ASSIGN_CELLS",
    "CELL_RESULT",
    "COORDINATOR",
    "ChannelClosed",
    "Coordinator",
    "Envelope",
    "FabricConfig",
    "FabricStats",
    "HELLO",
    "HandshakeInfo",
    "MAX_FRAME_BYTES",
    "MESSAGE_KINDS",
    "PROTOCOL_VERSION",
    "ProcessTransport",
    "REQUEST_WORK",
    "SHUTDOWN",
    "TcpTransport",
    "WELCOME",
    "WorkerChaos",
    "WorkerConfig",
    "WorkerHandle",
    "check_hello",
    "client_handshake",
    "execute_sweep_fabric",
    "restricted_loads",
    "run_remote_worker",
    "welcome_payload",
    "worker_main",
]
