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
from hashlib import sha256
from pathlib import Path

import pytest

from repro import obs
from repro.experiments.executor import execute_sweep
from repro.experiments.scenarios import get_scenario

GOLDEN = Path(__file__).parent / "goldens" / "trace-digests.json"
SCENARIOS = ("ext-faults", "fig7")


def _digest(text: str) -> str:
    return sha256(text.encode()).hexdigest()


def trace_digests(name: str) -> dict:
    """The digests of one scenario's ``--seeds 2`` traced sweep."""
    session = obs.ObsSession()
    execute_sweep(get_scenario(name), seeds=2, obs_session=session)
    return {"records": len(session.trace),
            "jsonl_sha256": _digest(session.trace.to_jsonl()),
            "chrome_sha256": _digest(session.trace.to_chrome_json()),
            "metrics_sha256": _digest(session.metrics.to_json())}


@pytest.mark.parametrize("name", SCENARIOS)
def test_traced_sweep_matches_committed_digests(name):
    want = json.loads(GOLDEN.read_text())[name]
    assert trace_digests(name) == want, (
        f"{name}: traced exports drifted from the committed digests")


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps({name: trace_digests(name)
                                  for name in SCENARIOS},
                                 sort_keys=True, indent=2) + "\n")
