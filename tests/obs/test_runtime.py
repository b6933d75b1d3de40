"""Tests for the runtime telemetry plane (:mod:`repro.obs.runtime`).

Everything here is about the *wall-clock* plane, so the tests inject
fake monotonic/unix clocks throughout -- the recorder and the progress
ticker never sleep or read host time in this file.
"""

import io
import json

import pytest

from repro.errors import ObservabilityError
from repro.obs.metrics import percentile, wall_stats
from repro.obs.runtime import (
    RUNTIME_SCHEMA,
    ProgressTicker,
    RunTelemetry,
    RuntimeRecorder,
    fleet_timeline,
    format_progress,
    lanes,
    load_spans,
    tail_run,
    wall_summary,
    write_fleet_timeline,
)


class FakeClock:
    """A monotonic clock the test advances by hand."""

    def __init__(self, start: float = 0.0) -> None:
        self.now = start

    def __call__(self) -> float:
        return self.now

    def advance(self, dt: float) -> float:
        self.now += dt
        return self.now


def _recorder(tmp_path, *, role="coordinator", start=100.0,
              unix=1_000_000.0):
    clock = FakeClock(start)
    rec = RuntimeRecorder(tmp_path / "spans.jsonl", role=role, clock=clock,
                          unix_clock=lambda: unix)
    return rec, clock


def _lines(path):
    return [json.loads(line) for line in
            path.read_text().splitlines() if line.strip()]


# -- RuntimeRecorder --------------------------------------------------------


def test_recorder_first_record_is_meta_anchor(tmp_path):
    rec, _clock = _recorder(tmp_path)
    rec.close()
    records = _lines(tmp_path / "spans.jsonl")
    assert records[0]["kind"] == "runtime.meta"
    assert records[0]["schema"] == RUNTIME_SCHEMA
    assert records[0]["t"] == 100.0
    assert records[0]["unix"] == 1_000_000.0
    assert records[0]["seq"] == 0
    assert "host" not in records[0]


def test_recorder_records_are_sequenced_and_flushed_live(tmp_path):
    rec, clock = _recorder(tmp_path)
    clock.advance(1.0)
    rec.event("lease.assign", lease=0, worker_id="w0")
    # No close(): line-buffered writes must be visible immediately.
    records = _lines(tmp_path / "spans.jsonl")
    assert [r["seq"] for r in records] == [0, 1]
    assert records[1]["kind"] == "lease.assign"
    assert records[1]["t"] == 101.0
    assert records[1]["worker_id"] == "w0"
    rec.close()


def test_recorder_span_measures_duration(tmp_path):
    rec, clock = _recorder(tmp_path)
    with rec.span("cell.compute", x=2.0):
        clock.advance(0.25)
    rec.close()
    span = _lines(tmp_path / "spans.jsonl")[1]
    assert span["kind"] == "cell.compute"
    assert span["t"] == 100.0
    assert span["dur"] == pytest.approx(0.25)
    assert span["x"] == 2.0


def test_recorder_identity_keys_beat_payload_fields(tmp_path):
    # The run's process writes every record: payload fields cannot
    # rename the writer, and a record about worker w3 names it only in
    # ``worker_id``.
    rec, _clock = _recorder(tmp_path, role="coordinator")
    rec.event("worker.exit", worker_id="w3", role="worker", pid=-1)
    rec.close()
    record = _lines(tmp_path / "spans.jsonl")[1]
    assert record["role"] == "coordinator"
    assert record["worker_id"] == "w3"
    assert "worker" not in record
    assert record["pid"] != -1


def test_recorder_close_is_idempotent_and_silences_events(tmp_path):
    rec, _clock = _recorder(tmp_path)
    rec.close()
    rec.close()
    rec.event("late.event")  # silently dropped, never raises
    assert len(_lines(tmp_path / "spans.jsonl")) == 1


# -- the span file ----------------------------------------------------------


def _run_dir(tmp_path):
    """A tiny fabric run's span file: the coordinator's own events plus
    one worker's lease and cell."""
    coord, clock = _recorder(tmp_path, start=100.0, unix=5000.0)
    clock.advance(1.0)
    coord.event("lease.assign", lease=0, worker_id="w0", cells=1)
    clock.advance(0.5)
    coord.event("cell.compute", t=clock() - 0.5, dur=0.5, xi=0, si=0,
                x=0.0, seed=0, worker_id="w0")
    coord.event("run.done", state="done")
    coord.close()
    return tmp_path


def test_load_spans_reads_the_run_file_and_filters(tmp_path):
    spans = load_spans(_run_dir(tmp_path))
    assert len(spans.records) == 4
    assert spans.filter("lease.assign").records[0]["lease"] == 0
    assert len(spans.filter(worker_id="w0").records) == 2
    assert spans.kinds() == {"cell.compute": 1, "lease.assign": 1,
                             "run.done": 1, "runtime.meta": 1}
    assert lanes(spans) == ["coordinator", "worker w0"]


def test_spanset_tolerates_torn_final_line(tmp_path):
    _run_dir(tmp_path)
    path = tmp_path / "spans.jsonl"
    path.write_text(path.read_text() + '{"kind": "cell.comp')
    spans = load_spans(tmp_path)
    assert len(spans.records) == 4
    assert len(spans.bad_lines) == 1


def test_spanset_empty_dir_is_empty(tmp_path):
    spans = load_spans(tmp_path)
    assert spans.records == []
    assert lanes(spans) == []


# -- fleet timeline ---------------------------------------------------------


def test_fleet_timeline_one_track_per_source(tmp_path):
    # One lane for the run, one per worker named in ``worker_id``.
    doc = fleet_timeline(load_spans(_run_dir(tmp_path)))
    names = {e["args"]["name"]: e["pid"] for e in doc["traceEvents"]
             if e["ph"] == "M"}
    assert names == {"coordinator": 0, "worker w0": 1}
    by_name = {e["name"]: e for e in doc["traceEvents"] if e["ph"] != "M"}
    assert by_name["cell.compute"]["pid"] == 1
    assert by_name["lease.assign"]["pid"] == 1
    assert by_name["run.done"]["pid"] == 0


def test_fleet_timeline_span_vs_instant_phases(tmp_path):
    # The meta record at t=100 is the origin: the lease one second
    # later lands at 1e6 us, the cell that ends 0.5 s after it starts
    # at the same instant.
    doc = fleet_timeline(load_spans(_run_dir(tmp_path)))
    by_name = {e["name"]: e for e in doc["traceEvents"] if e["ph"] != "M"}
    assert by_name["cell.compute"]["ph"] == "X"
    assert by_name["cell.compute"]["dur"] == pytest.approx(0.5e6)
    assert by_name["cell.compute"]["ts"] == pytest.approx(1e6)
    assert by_name["lease.assign"]["ph"] == "i"
    assert by_name["lease.assign"]["ts"] == pytest.approx(1e6)
    assert "runtime.meta" not in by_name


def test_write_fleet_timeline_is_loadable_chrome_json(tmp_path):
    out = write_fleet_timeline(_run_dir(tmp_path))
    doc = json.loads(out.read_text())
    assert isinstance(doc["traceEvents"], list)
    phases = {e["ph"] for e in doc["traceEvents"]}
    assert phases <= {"M", "X", "i"}


# -- percentiles ------------------------------------------------------------


def test_percentile_nearest_rank():
    values = [0.1, 0.2, 0.3, 0.4, 0.5]
    assert percentile(values, 50) == 0.3
    assert percentile(values, 95) == 0.5
    assert percentile(values, 0) == 0.1
    assert percentile([], 50) == 0.0
    with pytest.raises(ObservabilityError):
        percentile(values, 101)


def test_wall_stats_and_summary(tmp_path):
    assert wall_stats([]) == {"p50": 0.0, "p95": 0.0, "max": 0.0}
    assert wall_stats([3.0, 1.0, 2.0]) == {"p50": 2.0, "p95": 3.0,
                                           "max": 3.0}
    summary = wall_summary(load_spans(_run_dir(tmp_path)))
    assert summary == {"cell.compute": {"count": 1, "p50": 0.5,
                                        "p95": 0.5, "max": 0.5}}


# -- progress ---------------------------------------------------------------


def test_progress_ticker_interval_and_force(tmp_path):
    clock = FakeClock()
    stream = io.StringIO()
    ticker = ProgressTicker(10, path=tmp_path / "progress.json",
                            stream=stream, interval=0.5, clock=clock,
                            unix_clock=lambda: 0.0)
    assert ticker.update(1, force=True) is True
    assert ticker.update(2) is False  # within the interval
    clock.advance(0.6)
    assert ticker.update(3, active_workers=2, stragglers=1) is True
    payload = json.loads((tmp_path / "progress.json").read_text())
    assert payload["done"] == 3
    assert payload["active_workers"] == 2
    assert payload["stragglers"] == 1
    assert payload["state"] == "running"
    assert stream.getvalue().count("[progress]") == 2


def test_progress_eta_uses_observed_rate():
    clock = FakeClock()
    ticker = ProgressTicker(10, clock=clock, unix_clock=lambda: 0.0)
    clock.advance(2.0)
    ticker.update(4, force=True)
    # 4 cells in 2s -> 2 cells/s -> 6 remaining = 3s.
    assert ticker.eta_seconds(clock()) == pytest.approx(3.0)
    assert ticker.eta_seconds(clock()) is not None


def test_progress_eta_counts_only_computed_cells():
    # A resumed sweep: 5 of 10 cells are cache hits, then one cell
    # computes in 2 s.  The rate is 0.5 cells/s, so 4 cells left = 8 s.
    clock = FakeClock()
    ticker = ProgressTicker(10, cache_hits=5, clock=clock,
                            unix_clock=lambda: 0.0)
    ticker.update(5, force=True)
    assert ticker.eta_seconds(clock()) is None  # nothing computed yet
    clock.advance(2.0)
    ticker.update(6, force=True)
    assert ticker.eta_seconds(clock()) == pytest.approx(8.0)


def test_progress_finish_marks_terminal_state(tmp_path):
    clock = FakeClock()
    ticker = ProgressTicker(4, path=tmp_path / "progress.json",
                            clock=clock, unix_clock=lambda: 0.0)
    ticker.finish(4)
    payload = json.loads((tmp_path / "progress.json").read_text())
    assert payload["state"] == "done"
    assert payload["done"] == 4
    ticker.finish(state="failed")
    payload = json.loads((tmp_path / "progress.json").read_text())
    assert payload["state"] == "failed"


def test_format_progress_line():
    line = format_progress({"state": "running", "done": 12, "total": 20,
                            "cache_hits": 4, "active_workers": 3,
                            "stragglers": 1, "elapsed_s": 2.1,
                            "eta_s": 1.4})
    assert line == ("[progress] 12/20 cells (60%), 4 cache hits, "
                    "3 workers, 1 stragglers, 2.1s elapsed, eta 1.4s")
    assert "done" in format_progress({"state": "done", "done": 1,
                                      "total": 1})
    assert "eta --" in format_progress({"state": "running", "done": 0,
                                        "total": 1})


def test_tail_run_prints_changes_until_terminal(tmp_path):
    path = tmp_path / "progress.json"
    states = iter([
        {"state": "running", "done": 1, "total": 2},
        {"state": "running", "done": 1, "total": 2},  # unchanged: no line
        {"state": "done", "done": 2, "total": 2},
    ])

    def fake_sleep(_interval):
        path.write_text(json.dumps(next(states)))

    fake_sleep(0)  # seed the first snapshot
    out = io.StringIO()
    rc = tail_run(tmp_path, follow=True, stream=out, sleep=fake_sleep)
    assert rc == 0
    lines = out.getvalue().splitlines()
    assert len(lines) == 2  # the duplicate snapshot printed nothing
    assert "1/2" in lines[0] and "2/2" in lines[1]


def test_tail_run_without_progress_file(tmp_path):
    out = io.StringIO()
    assert tail_run(tmp_path, stream=out) == 1
    assert out.getvalue() == ""


# -- RunTelemetry -----------------------------------------------------------


def test_run_telemetry_progress_only_has_no_files(tmp_path):
    stream = io.StringIO()
    tel = RunTelemetry(None, progress=True, total_cells=2,
                       progress_stream=stream)
    assert tel.recorder is None
    with tel.span("anything"):  # must be a harmless no-op
        pass
    tel.tick(1, force=True)
    tel.finalize(done=2)
    assert "[progress]" in stream.getvalue()
    assert list(tmp_path.iterdir()) == []


def test_run_telemetry_finalize_writes_all_artifacts(tmp_path):
    clock = FakeClock(50.0)
    tel = RunTelemetry(tmp_path, total_cells=3, clock=clock)
    tel.event("run.start", total=3)
    with tel.span("cell.compute", xi=0, si=0):
        clock.advance(0.1)
    tel.tick(3, active_workers=1, force=True)
    tel.finalize(done=3)
    names = {p.name for p in tmp_path.iterdir()}
    assert names == {"spans.jsonl", "progress.json", "timeline.trace.json"}
    spans = load_spans(tmp_path)
    assert spans.filter("run.done").records[0]["state"] == "done"
    assert wall_summary(spans)["cell.compute"]["count"] == 1
    progress = json.loads((tmp_path / "progress.json").read_text())
    assert progress["state"] == "done" and progress["done"] == 3


def test_run_telemetry_failed_state_is_recorded(tmp_path):
    tel = RunTelemetry(tmp_path, total_cells=5, clock=FakeClock())
    tel.tick(1, force=True)
    tel.finalize(state="failed")
    progress = json.loads((tmp_path / "progress.json").read_text())
    assert progress["state"] == "failed"
    done = load_spans(tmp_path).filter("run.done").records
    assert [r["state"] for r in done] == ["failed"]
    assert "failed" in format_progress(progress)


# -- CLI subcommands --------------------------------------------------------


def _cli(*argv):
    from repro.obs.__main__ import main
    return main(list(argv))


def test_cli_timeline_summary_and_tail(tmp_path, capsys):
    tel = RunTelemetry(tmp_path, total_cells=1, clock=FakeClock())
    tel.tick(1, force=True)
    tel.finalize(done=1)
    (tmp_path / "timeline.trace.json").unlink()

    assert _cli("timeline", str(tmp_path)) == 0
    doc = json.loads((tmp_path / "timeline.trace.json").read_text())
    assert doc["traceEvents"]

    assert _cli("runtime-summary", str(tmp_path)) == 0
    out = capsys.readouterr().out
    assert "records" in out and "run.done" in out

    assert _cli("tail", str(tmp_path)) == 0
    assert "[progress]" in capsys.readouterr().out


def test_cli_runtime_summary_empty_dir_fails(tmp_path, capsys):
    assert _cli("runtime-summary", str(tmp_path)) == 1
    assert "no runtime span files" in capsys.readouterr().err
