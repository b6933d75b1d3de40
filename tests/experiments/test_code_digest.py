"""Cells are content-addressed by the model's source.

Each test runs a fresh interpreter on a copy of the package, edited or
not, so the checkout itself is never touched: a comment added to any
model module changes every scenario's fingerprint (and so every cell's
cache key and the fabric's admission check), an edited tooling module
changes none, and where the package lives does not matter.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.experiments.fabric import (COORDINATOR, WELCOME, Envelope,
                                      HandshakeInfo, TcpTransport,
                                      welcome_payload)
from repro.experiments.scenarios import get_scenario
from tests.experiments.test_fabric_tcp import _run_cli_worker

PACKAGE = Path(repro.__file__).resolve().parent

#: Prints every registered scenario's fingerprint and first cell's key.
_KEYS = """\
import json
from repro.experiments.executor import cell_digest
from repro.experiments.scenarios import ALL_SCENARIOS
keys = {}
for name, spec in sorted(ALL_SCENARIOS.items()):
    fingerprint = spec.fingerprint()
    keys[name] = [fingerprint,
                  cell_digest(name, fingerprint, spec.x_values[0], 0)]
print(json.dumps(keys))
"""


def _copy(root: Path, edit: "str | None" = None) -> dict:
    """Copy the package under ``root``, append a comment line to
    ``edit`` (a package-relative path) and return the copy's
    interpreter environment."""
    shutil.copytree(PACKAGE, root / "repro",
                    ignore=shutil.ignore_patterns("__pycache__"))
    if edit is not None:
        with open(root / "repro" / edit, "a") as source:
            source.write("# an edit that changes no behaviour\n")
    return {**os.environ, "PYTHONPATH": str(root)}


def _keys(env: dict, cwd: Path) -> dict:
    out = subprocess.run([sys.executable, "-c", _KEYS], env=env, cwd=cwd,
                         check=True, capture_output=True, text=True,
                         timeout=120).stdout
    return json.loads(out)


@pytest.fixture(scope="module")
def checkout_keys(tmp_path_factory):
    return _keys({**os.environ, "PYTHONPATH": str(PACKAGE.parent)},
                 tmp_path_factory.mktemp("cwd"))


def test_same_bytes_elsewhere_same_keys(tmp_path, checkout_keys):
    assert len(checkout_keys) == 15
    assert _keys(_copy(tmp_path), tmp_path) == checkout_keys


@pytest.mark.parametrize("edit", ["strategies/dlb.py", "faults/plan.py"])
def test_model_edit_changes_every_key(edit, tmp_path, checkout_keys):
    edited = _keys(_copy(tmp_path, edit), tmp_path)
    assert edited.keys() == checkout_keys.keys()
    for name, (fingerprint, digest) in edited.items():
        assert fingerprint != checkout_keys[name][0], name
        assert digest != checkout_keys[name][1], name


@pytest.mark.parametrize("edit", ["obs/report.py",
                                  "experiments/fabric/wire.py"])
def test_tooling_edit_changes_no_key(edit, tmp_path, checkout_keys):
    assert _keys(_copy(tmp_path, edit), tmp_path) == checkout_keys


def test_worker_with_edited_model_is_refused(tmp_path):
    fig7 = get_scenario("fig7")
    info = HandshakeInfo(token="sesame", scenario="fig7",
                         fingerprint=fig7.fingerprint())
    transport = TcpTransport(info, listen="127.0.0.1:0",
                             handshake_timeout=5.0)

    def pump():
        for channel, _hello in transport.poll_peers():
            channel.send(Envelope(kind=WELCOME, sender=COORDINATOR,
                                  payload=welcome_payload(info, "w0")))

    try:
        code, _out, err = _run_cli_worker(
            transport.address, "sesame", pump,
            env=_copy(tmp_path, "strategies/dlb.py"))
    finally:
        transport.close()
    assert code == 2
    assert "fingerprint mismatch" in err
    assert "Traceback" not in err
