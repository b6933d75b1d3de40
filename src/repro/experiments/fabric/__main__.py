"""Remote-worker bootstrap: ``python -m repro.experiments.fabric``.

The cross-host half of the TCP transport.  A coordinator started with
``--fabric-transport tcp --listen HOST:PORT`` prints its bound address
on stderr and a run token; on any machine with the same checkout, this
entry point connects one worker to it::

    python -m repro.experiments.fabric worker HOST:PORT --token T

The worker handshakes (token, protocol version, spec fingerprint),
resolves the coordinator's scenario from the local registry, serves
cells until the sweep drains, and exits 0.  The fingerprint covers the
scenario spec and the model code, so only a checkout that computes the
same cells is admitted.  Every refusal -- wrong token, different spec
or model code, unreachable coordinator -- is a one-line message on
stderr and exit status 2, never a traceback.
"""

import argparse
import sys
import time

from repro.errors import FabricError
from repro.experiments.fabric.core import run_remote_worker


def _positive_float(text: str) -> float:
    value = float(text)
    if not value > 0:
        raise argparse.ArgumentTypeError(f"must be > 0, got {text}")
    return value


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments.fabric",
        description="Connect a sweep worker to a remote fabric "
                    "coordinator.")
    sub = parser.add_subparsers(dest="command", required=True)
    worker = sub.add_parser(
        "worker", help="serve cells for the coordinator at ADDRESS")
    worker.add_argument("address", metavar="HOST:PORT",
                        help="the coordinator's --listen address")
    worker.add_argument("--token", required=True,
                        help="the run's shared secret (printed by the "
                             "coordinator, or fixed via --fabric-token)")
    worker.add_argument("--worker-id", default=None,
                        help="request a specific worker id (default: the "
                             "coordinator assigns one)")
    worker.add_argument("--handshake-timeout", type=_positive_float,
                        default=10.0,
                        help="seconds to wait for connect + WELCOME "
                             "(default: %(default)s)")
    worker.add_argument("--retry-for", type=float, default=0.0,
                        metavar="SECONDS",
                        help="keep retrying an unreachable coordinator "
                             "for this long before giving up (default: "
                             "0, fail on the first refusal) -- lets a "
                             "worker be started before its coordinator "
                             "binds")
    args = parser.parse_args(argv)

    deadline = time.monotonic() + args.retry_for
    try:
        while True:
            try:
                worker_id = run_remote_worker(
                    args.address, args.token, worker_id=args.worker_id,
                    handshake_timeout=args.handshake_timeout)
                break
            except FabricError as exc:
                unreachable = "cannot reach coordinator" in str(exc)
                if not unreachable \
                        or time.monotonic() >= deadline:
                    raise
                time.sleep(0.1)
    except (FabricError, OSError) as exc:
        print(f"fabric worker: {exc}", file=sys.stderr)
        return 2
    print(f"fabric worker {worker_id}: sweep drained, shutting down",
          file=sys.stderr)
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())
