"""Committed digests of traced sweeps: the trace bytes are pinned to a
fixed reference, not only to a second run of the same code.

``goldens/trace-digests.json`` holds, for each scenario's ``--seeds 2``
traced sweep, the SHA-256 of its trace JSONL, its Chrome trace JSON and
its sim metrics JSON (the exact files ``python -m repro.experiments
SCENARIO --seeds 2 --trace ... --metrics-json ...`` writes), and its
record count.  Any change to how records are built, stored or exported
-- however it keeps a rerun equal to itself -- fails here.  Regenerate,
only for an intended trace change, with::

    PYTHONPATH=src python tests/experiments/test_trace_goldens.py
"""

import json
import tempfile
from hashlib import sha256
from pathlib import Path

import pytest

from repro import obs
from repro.experiments.executor import execute_sweep
from repro.experiments.scenarios import get_scenario

GOLDEN = Path(__file__).parent / "goldens" / "trace-digests.json"
SCENARIOS = ("ext-faults", "fig7")


def _digest(path: Path) -> str:
    return sha256(path.read_bytes()).hexdigest()


def trace_digests(name: str, out: Path) -> dict:
    """The digests of the files one scenario's ``--seeds 2`` traced
    sweep writes into directory ``out``."""
    session = obs.ObsSession()
    execute_sweep(get_scenario(name), seeds=2, obs_session=session)
    jsonl, chrome, metrics = (out / f"{name}.{suffix}" for suffix in
                              ("trace.jsonl", "trace.json", "metrics.json"))
    session.trace.write_jsonl(jsonl)
    session.trace.write_chrome(chrome)
    session.metrics.write_json(metrics)
    return {"records": len(session.trace),
            "jsonl_sha256": _digest(jsonl),
            "chrome_sha256": _digest(chrome),
            "metrics_sha256": _digest(metrics)}


@pytest.mark.parametrize("name", SCENARIOS)
def test_traced_sweep_matches_committed_digests(name, tmp_path):
    want = json.loads(GOLDEN.read_text())[name]
    assert trace_digests(name, tmp_path) == want, (
        f"{name}: traced exports drifted from the committed digests")


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as scratch:
        GOLDEN.write_text(json.dumps(
            {name: trace_digests(name, Path(scratch)) for name in SCENARIOS},
            sort_keys=True, indent=2) + "\n")
