"""Observability wiring through the sweep executor and the CLI.

The contract under test: a traced sweep produces a byte-identical JSONL
trace and metrics registry for any worker count and any cache state, and
an untraced sweep emits exactly zero records.
"""

import json

import pytest

from repro import obs
from repro.obs.analyze import TraceSet, lint
from repro.app.workloads import paper_application
from repro.contracts.strategy import ContractSwapStrategy
from repro.errors import ObservabilityError
from repro.core.policy import greedy_policy
from repro.experiments import cli
from repro.experiments.executor import cell_digest, compute_cell, execute_sweep
from repro.experiments.scenarios import ExperimentSpec
from repro.load.onoff import OnOffLoadModel
from repro.platform.cluster import make_platform
from repro.strategies.cr import CrStrategy
from repro.strategies.dlb import DlbStrategy
from repro.strategies.nothing import NothingStrategy
from repro.strategies.spawnswap import SpawnSwapStrategy
from repro.strategies.swapstrat import SwapStrategy
from repro.units import KB, MB


def _tiny_build(x: float, seed: int):
    platform = make_platform(6, OnOffLoadModel(p=0.3 * x + 0.1, q=0.3),
                             seed=seed)
    app = paper_application(n_processes=2, iterations=6,
                            iteration_minutes=0.5, bytes_per_process=10 * KB,
                            state_bytes=1 * MB)
    return platform, [("nothing", app, NothingStrategy()),
                      ("swap", app, SwapStrategy(greedy_policy())),
                      ("dlb", app, DlbStrategy()),
                      ("cr", app, CrStrategy())]


TINY = ExperimentSpec(name="tiny-obs", title="tiny", xlabel="x",
                      x_values=(0.0, 1.0), build=_tiny_build,
                      default_seeds=2)


def _traced(jobs: int = 1, cache_dir=None) -> obs.ObsSession:
    session = obs.ObsSession()
    execute_sweep(TINY, seeds=2, jobs=jobs, cache_dir=cache_dir,
                  obs_session=session)
    return session


# -- determinism ----------------------------------------------------------------

def test_traced_sweep_is_byte_identical_across_runs():
    one, two = _traced(), _traced()
    assert one.trace.to_jsonl() == two.trace.to_jsonl()
    assert one.metrics.to_json() == two.metrics.to_json()
    assert len(one.trace) > 0


def test_parallel_trace_matches_serial():
    serial, parallel = _traced(jobs=1), _traced(jobs=2)
    assert parallel.trace.to_jsonl() == serial.trace.to_jsonl()
    assert parallel.metrics.to_json() == serial.metrics.to_json()


def test_warm_cache_trace_matches_cold(tmp_path):
    cold = _traced(cache_dir=tmp_path)
    warm = _traced(cache_dir=tmp_path)
    assert warm.trace.to_jsonl() == cold.trace.to_jsonl()
    assert warm.metrics.to_json() == cold.metrics.to_json()


def test_untraced_run_emits_zero_records():
    before = obs.emitted_total()
    execute_sweep(TINY, seeds=2)
    assert obs.emitted_total() == before


def test_untraced_and_traced_cache_entries_do_not_collide(tmp_path):
    execute_sweep(TINY, seeds=1, cache_dir=tmp_path)  # untraced warm-up
    session = _traced(cache_dir=tmp_path)
    # The traced run recomputed its own (instrumented) entries instead of
    # hitting untraced ones, so the trace is complete.
    assert any(r["kind"] == "decision" for r in session.trace.records)
    fp = TINY.fingerprint()
    assert (cell_digest("tiny-obs", fp, 0.0, 0)
            != cell_digest("tiny-obs", fp, 0.0, 0, instrumented=True))


# -- record content -------------------------------------------------------------

def test_trace_covers_every_decision_epoch_and_cell():
    session = _traced()
    decisions = [r for r in session.trace.records
                 if r["kind"] == "decision" and r["series"] == "swap"]
    # decide_swaps runs after every iteration but the last: 5 epochs
    # per cell, 2 x values * 2 seeds.
    assert len(decisions) == 5 * 4
    for record in decisions:
        assert record["scenario"] == "tiny-obs"
        assert "gates" in record and "rejected_reason" in record
        assert record["accepted"] == bool(record["moves"])
    cells = {(r["x"], r["seed"]) for r in session.trace.records}
    assert cells == {(0.0, 0), (0.0, 1), (1.0, 0), (1.0, 1)}


def _variants_build(x: float, seed: int):
    platform, variants = _tiny_build(x, seed)
    app = variants[0][1]
    return platform, [
        ("swap-spawn", app, SpawnSwapStrategy(greedy_policy())),
        ("swap-contract", app,
         ContractSwapStrategy(greedy_policy(), violation_window=1))]


def test_swap_variants_emit_decisions():
    session = obs.ObsSession()
    spec = ExperimentSpec(name="tiny-variants", title="tiny", xlabel="x",
                          x_values=(0.0, 1.0), build=_variants_build,
                          default_seeds=2)
    execute_sweep(spec, seeds=2, obs_session=session)
    decisions = {}
    for record in session.trace.records:
        if record["kind"] == "decision":
            decisions.setdefault(record["series"], []).append(record)
    # The spawn variant decides after every iteration but the last; the
    # contract variant only on a violation.
    assert len(decisions["swap-spawn"]) == 5 * 4
    assert 0 < len(decisions["swap-contract"]) <= 5 * 4
    assert {r["source"] for r in decisions["swap-spawn"]} == {
        "swap-spawn-greedy"}
    assert {r["source"] for r in decisions["swap-contract"]} == {
        "swap-contract-greedy"}
    assert lint(TraceSet(session.trace.records)) == []


def test_trace_has_iterations_for_all_four_strategies():
    session = _traced()
    by_series = {}
    for record in session.trace.records:
        if record["kind"] == "iteration":
            by_series.setdefault(record["series"], 0)
            by_series[record["series"]] += 1
    assert set(by_series) == {"nothing", "swap", "dlb", "cr"}
    assert all(count == 6 * 4 for count in by_series.values())


def test_metrics_count_epochs_and_iterations():
    session = _traced()
    counters = session.metrics.to_dict()["counters"]
    assert counters["strategy.iterations_total"] == 4 * 6 * 4
    # Each decision epoch is one ``decision`` record: the counters must
    # equal what the records themselves say.
    decisions = [r for r in session.trace.records
                 if r["kind"] == "decision"]
    moves = [len(r.get("moves", ())) for r in decisions]
    # Some epoch commits more than one move, so counting epochs where
    # moves are meant shows.
    assert len(decisions) >= 5 * 4 and max(moves) > 1
    assert counters["decision.epochs_total"] == len(decisions)
    assert counters.get("decision.epochs_rejected_total", 0.0) == sum(
        not r["accepted"] for r in decisions)
    assert counters.get("decision.moves_total", 0.0) == sum(moves)


def test_compute_cell_untraced_has_empty_obs_payloads():
    cell = compute_cell(TINY, 0.0, 0)
    assert cell.trace_events == []
    assert cell.metrics == {}


# -- CLI ------------------------------------------------------------------------

def test_cli_writes_jsonl_trace_and_metrics(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    trace = tmp_path / "trace.jsonl"
    metrics = tmp_path / "metrics.json"
    code = cli.main(["fig4", "--seeds", "1", "--no-cache", "--no-bench",
                     "--trace", str(trace), "--metrics-json", str(metrics)])
    assert code == 0
    lines = trace.read_text().strip().split("\n")
    assert all(json.loads(line)["scenario"] == "fig4" for line in lines[:5])
    registry = json.loads(metrics.read_text())
    assert registry["counters"]["decision.epochs_total"] > 0
    out = capsys.readouterr().out
    assert "trace records" in out and "metrics registry" in out


def test_cli_chrome_trace_loads(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    trace = tmp_path / "trace.json"
    code = cli.main(["fig4", "--seeds", "1", "--no-cache", "--no-bench",
                     "--trace", str(trace), "--trace-format", "chrome"])
    assert code == 0
    doc = json.loads(trace.read_text())
    assert doc["displayTimeUnit"] == "ms"
    assert len(doc["traceEvents"]) > 0
    phases = {e["ph"] for e in doc["traceEvents"]}
    assert phases <= {"M", "X", "i"}


def test_cli_trace_runs_are_byte_identical(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    paths = []
    for name in ("one.jsonl", "two.jsonl"):
        path = tmp_path / name
        assert cli.main(["fig4", "--seeds", "1", "--no-cache", "--no-bench",
                         "--trace", str(path)]) == 0
        paths.append(path.read_bytes())
    assert paths[0] == paths[1]


def test_cli_report_writes_markdown_and_gantt(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    outdir = tmp_path / "run-report"
    code = cli.main(["fig4", "--seeds", "1", "--no-cache", "--no-bench",
                     "--report", str(outdir)])
    assert code == 0
    report = (outdir / "report.md").read_text()
    assert report.startswith("# Trace run report")
    assert "clean" in report  # a real sweep trace lints clean
    assert (outdir / "gantt.svg").read_text().startswith("<svg")
    out = capsys.readouterr().out
    assert "wrote run report" in out
    assert "lint finding" not in out


def test_cli_report_is_byte_identical_across_jobs(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    outputs = []
    for jobs, name in (("1", "a"), ("2", "b")):
        outdir = tmp_path / name
        assert cli.main(["fig4", "--seeds", "1", "--no-cache", "--no-bench",
                         "--jobs", jobs, "--report", str(outdir)]) == 0
        outputs.append(((outdir / "report.md").read_bytes(),
                        (outdir / "gantt.svg").read_bytes()))
    assert outputs[0] == outputs[1]


def test_cli_without_trace_flags_makes_no_session():
    class Args:
        trace = None
        metrics_json = None
        report = None

    assert cli._make_session(Args()) is None


def test_cli_report_flag_alone_makes_a_session():
    class Args:
        trace = None
        metrics_json = None
        report = "report-dir"

    assert cli._make_session(Args()) is not None


def test_cli_metrics_json_alone_keeps_no_records(tmp_path, monkeypatch):
    class Args:
        trace = None
        metrics_json = "metrics.json"
        report = None

    session = cli._make_session(Args())
    assert session is not None and session.trace is None
    with pytest.raises(ObservabilityError):
        with obs.observing(session):
            pass
    # The metrics are those of a run that also writes the trace.
    monkeypatch.chdir(tmp_path)
    alone, traced = tmp_path / "alone.json", tmp_path / "traced.json"
    assert cli.main(["ext-faults", "--seeds", "1", "--no-cache",
                     "--no-bench", "--metrics-json", str(alone)]) == 0
    assert cli.main(["ext-faults", "--seeds", "1", "--no-cache",
                     "--no-bench", "--metrics-json", str(traced),
                     "--trace", str(tmp_path / "trace.jsonl")]) == 0
    assert alone.read_bytes() == traced.read_bytes()
