"""Self-test of the sweep benchmark: every workload at reduced size.

Run from the root of a checkout::

    python3 -m pytest perfbench -q

Each workload runs with two seeds per x value for about a second, once
untraced and once traced, and must print every metric that
``BENCHMARK.json`` names, with its unit, and report correct results.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())

sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))
import workloads  # noqa: E402


def _run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def test_benchmark_json_matches_the_code():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(
        workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]] == list(
        workloads.END_TO_END)
    assert [(m["name"], m["unit"]) for m in BENCHMARK["per_layer"]] == list(
        workloads.PER_LAYER)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_reduced_run_prints_every_metric(name, trace):
    proc = _run("--workload", name, "--seed", "3", "--seconds", "1",
                "--trace", str(trace), "--seeds", "2")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    wanted = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {m: v["unit"] for m, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted}
    if not trace:
        assert result["metrics"]["cells_ok_frac"]["value"] == 1.0
        for metric in result["metrics"].values():
            assert metric["value"] > 0


def test_same_seed_same_cells():
    workload = workloads.WORKLOADS["fig7-serial"]
    assert workloads.seed_list(workload, 4, 1000) == \
        workloads.seed_list(workload, 4, 1000)
    assert not set(workloads.seed_list(workload, 4, 1000)) & set(
        workloads.seed_list(workload, 5, 1000))


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "fig7-serial", "--seconds", "1",
                cwd=tmp_path)
    assert proc.returncode != 0
    assert "{" not in proc.stdout
