"""Tests for the experiments command-line interface."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.experiments.cli import build_parser, main

#: Keep CLI invocations from writing .sweep-cache/ or BENCH_sweeps.json
#: into the repository while tests run.
QUIET = ["--no-cache", "--no-bench"]


def test_list_scenarios(capsys):
    assert main(["--list"]) == 0
    out = capsys.readouterr().out
    for name in ("fig4", "fig9", "ablation-payback"):
        assert name in out


def test_no_scenario_prints_usage(capsys):
    assert main([]) == 2
    captured = capsys.readouterr()
    assert "usage" in captured.err.lower() and captured.out == ""


def test_unknown_scenario_raises(capsys):
    with pytest.raises(SystemExit) as info:
        main(["fig99"])
    assert info.value.code == 2
    assert "invalid choice: 'fig99'" in capsys.readouterr().err


def test_run_small_scenario(capsys):
    assert main(["fig4", "--seeds", "1", *QUIET]) == 0
    out = capsys.readouterr().out
    assert "nothing" in out and "swap-greedy" in out
    assert "seeds" in out
    assert "cells computed" in out


def test_chart_and_events_flags(capsys):
    assert main(["fig4", "--seeds", "1", "--chart", "--events", *QUIET]) == 0
    out = capsys.readouterr().out
    assert "o nothing" in out          # chart legend
    assert "[" in out                  # event-count cells


def test_custom_baseline(capsys):
    assert main(["fig4", "--seeds", "1", "--baseline", "dlb", *QUIET]) == 0
    out = capsys.readouterr().out
    assert "of dlb" in out


def test_missing_baseline_degrades_gracefully(capsys):
    assert main(["fig4", "--seeds", "1", "--baseline", "ghost", *QUIET]) == 0


def test_parser_defaults():
    args = build_parser().parse_args(["fig7"])
    assert args.scenario == "fig7"
    assert args.seeds is None
    assert args.baseline == "nothing"
    assert args.jobs == 1
    assert args.fabric_transport is None
    assert args.listen is None
    assert args.cache_dir == ".sweep-cache"
    assert not args.no_cache
    assert args.bench_json == "BENCH_sweeps.json"
    assert not args.no_bench


def test_jobs_flag_runs_parallel(capsys):
    assert main(["fig4", "--seeds", "1", "--jobs", "2", *QUIET]) == 0
    out = capsys.readouterr().out
    assert "2 job(s)" in out


#: Why each fabric flag is refused when the run cannot use it.
REFUSALS = {"--listen": "--listen needs --fabric-transport tcp",
            "--fabric-token": "--fabric-token needs --fabric-transport tcp",
            "--fabric-chaos": "--fabric-chaos needs a fabric run"}


@pytest.mark.parametrize("flags", [
    ["--listen", "0.0.0.0:7777"],
    ["--fabric-token", "secret"],
    ["--fabric-chaos", "crash:0:1"],
    ["--listen", "0.0.0.0:7777", "--jobs", "2"],
    ["--listen", "127.0.0.1:39999", "--fabric-token", "abc", "--jobs", "2"],
    ["--fabric-token", "secret", "--fabric-transport", "process"],
    ["--listen", "0.0.0.0:7777", "--jobs", "1", "--fabric-transport",
     "process"],
])
def test_fabric_only_flags_need_fabric(flags, capsys):
    # A serial run cannot lose a worker, and only the tcp transport
    # binds a listener or checks a token: these flags would otherwise
    # be silently dropped.
    with pytest.raises(SystemExit) as info:
        main(["fig4", "--seeds", "1", *flags, *QUIET])
    assert info.value.code == 2
    assert REFUSALS[flags[0]] in capsys.readouterr().err


@pytest.mark.parametrize("argv, bad", [
    (["repro.experiments", "nope"], "'nope'"),
    (["repro.experiments", "fig7", "--seeds", "0"], "--seeds"),
    (["repro.experiments", "fig7", "--jobs", "0"], "--jobs"),
    (["repro.experiments", "fig7", "--jobs", "2", "--fabric-chaos",
      "bogus"], "'bogus'"),
    (["repro.experiments", "fig7", "--fabric-transport", "tcp", "--listen",
      "nohost"], "'nohost'"),
    (["repro.obs", "tail", "{tmp}", "--follow", "--interval", "-1"],
     "--interval"),
    (["repro.experiments.fabric", "worker", "127.0.0.1:9", "--token", "t",
      "--handshake-timeout", "-1"], "--handshake-timeout"),
])
def test_bad_input_is_a_usage_error(argv, bad, tmp_path):
    # Refused before any cell computes: exit 2 and one error line that
    # names the bad value, never a traceback.
    proc = subprocess.run(
        [sys.executable, "-m", *(a.format(tmp=tmp_path) for a in argv)],
        capture_output=True, text=True, cwd=tmp_path, timeout=60,
        env={**os.environ, "PYTHONPATH": str(Path(repro.__file__).parents[1])})
    assert proc.returncode == 2, proc.stderr
    (error,) = [line for line in proc.stderr.splitlines()
                if "error:" in line]
    assert bad in error
    assert "Traceback" not in proc.stderr


def test_jobs_sets_fabric_fleet_size(capsys):
    assert main(["fig4", "--seeds", "1", "--jobs", "2",
                 "--fabric-transport", "process", *QUIET]) == 0
    out = capsys.readouterr().out
    assert "[fabric: 2 process worker(s)" in out
    assert "2 job(s)" in out


def test_fabric_transport_selects_the_fabric_at_one_job(capsys):
    assert main(["fig4", "--seeds", "1", "--fabric-transport", "process",
                 *QUIET]) == 0
    assert "[fabric: 1 process worker(s)" in capsys.readouterr().out


def test_thread_transport_is_refused(capsys):
    # Two transports remain; argparse refuses the third with usage (2).
    with pytest.raises(SystemExit) as info:
        main(["fig4", "--seeds", "1", "--fabric-transport", "thread",
              *QUIET])
    assert info.value.code == 2
    assert "invalid choice: 'thread'" in capsys.readouterr().err


def test_cache_and_bench_threading(tmp_path, capsys):
    cache = tmp_path / "cache"
    bench = tmp_path / "bench.json"
    argv = ["fig4", "--seeds", "1", "--cache-dir", str(cache),
            "--bench-json", str(bench)]
    assert main(argv) == 0
    cold = capsys.readouterr().out
    assert "10/10 cells computed" in cold
    record = json.loads(bench.read_text())["records"][0]
    assert record["scenario"] == "fig4"
    assert record["cells_computed"] == 10
    for key in ("wall_time_s", "cache_hits", "events_per_sec"):
        assert key in record

    assert main(argv) == 0  # warm rerun: every cell from the cache
    warm = capsys.readouterr().out
    assert "0/10 cells computed" in warm
    assert "10 cache hits" in warm
    assert json.loads(bench.read_text())["records"][0]["cache_hits"] == 10


def test_regenerate_all_writes_artifacts(tmp_path, capsys):
    outdir = tmp_path / "figs"
    assert main(["all", "--seeds", "1", "--outdir", str(outdir),
                 "--cache-dir", str(tmp_path / "cache")]) == 0
    out = capsys.readouterr().out
    assert "fig4" in out and "ext-contracts" in out
    for suffix in (".txt", ".svg", ".csv", ".json"):
        assert (outdir / f"fig4{suffix}").exists()
    # The payback ablation has an infinite x value: no SVG, other files yes.
    assert (outdir / "ablation-payback.txt").exists()
    assert not (outdir / "ablation-payback.svg").exists()
    # One perf record per scenario, inside the output directory.
    records = json.loads((outdir / "BENCH_sweeps.json").read_text())["records"]
    assert any(r["scenario"] == "fig4" for r in records)
