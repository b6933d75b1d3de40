"""Command-line entry point: regenerate any figure from a terminal.

Examples
--------

::

    python -m repro.experiments fig4
    python -m repro.experiments fig4 --jobs 4
    python -m repro.experiments fig4 --fabric-transport tcp --jobs 2
    python -m repro.experiments fig7 --seeds 10 --chart
    python -m repro.experiments --list

Sweep cells are cached under ``--cache-dir`` (content-addressed; see
docs/PERFORMANCE.md), so an interrupted or repeated run only computes
missing cells; ``--no-cache`` forces a full recompute.  Each run folds a
machine-readable timing record into ``BENCH_sweeps.json``.
"""

from __future__ import annotations

import argparse
import sys

from repro.errors import FabricError
from repro.experiments.executor import append_bench_record, execute_sweep
from repro.experiments.report import ascii_chart, format_table, shape_summary
from repro.experiments.scenarios import ALL_SCENARIOS, get_scenario


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {text}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Regenerate the figures of 'Policies for Swapping "
                    "MPI Processes' (HPDC 2003).")
    parser.add_argument("scenario", nargs="?", metavar="SCENARIO",
                        choices=(*sorted(ALL_SCENARIOS), "all"),
                        help="scenario name (e.g. fig4), or 'all' to "
                             "regenerate every figure; see --list")
    parser.add_argument("--outdir", metavar="DIR", default="figures",
                        help="output directory for 'all' "
                             "(default: figures/)")
    parser.add_argument("--seeds", type=_positive_int, default=None,
                        help="number of replicated seeds (default: "
                             "scenario-specific)")
    parser.add_argument("--jobs", type=_positive_int, default=1, metavar="N",
                        help="sweep workers; N > 1 runs the coordinator/"
                             "worker fabric (see docs/FABRIC.md), result "
                             "byte-identical (default: 1, the in-process "
                             "serial reference)")
    parser.add_argument("--fabric-transport",
                        choices=("process", "tcp"), default=None,
                        help="run on the fabric over this transport, at "
                             "any --jobs (default with --jobs N > 1: "
                             "process; 'tcp' binds --listen and accepts "
                             "remote workers mid-run)")
    parser.add_argument("--listen", metavar="HOST:PORT", default=None,
                        help="tcp transport only: the coordinator's bind "
                             "address (default: 127.0.0.1:0, an ephemeral "
                             "loopback port; the bound address is printed "
                             "on stderr)")
    parser.add_argument("--fabric-token", metavar="TOKEN", default=None,
                        help="tcp transport only: shared secret remote "
                             "workers must present (default: a fresh "
                             "random token per run, printed on stderr)")
    parser.add_argument("--fabric-chaos", metavar="MODE:WORKER:AFTER",
                        default=None,
                        help="inject a worker loss (e.g. 'crash:0:2' = "
                             "worker w0 dies after 2 cells); CI uses this "
                             "to prove recovery keeps results "
                             "byte-identical")
    parser.add_argument("--cache-dir", metavar="DIR", default=".sweep-cache",
                        help="content-addressed cell cache directory "
                             "(default: .sweep-cache/)")
    parser.add_argument("--no-cache", action="store_true",
                        help="recompute every cell; do not read or write "
                             "the cell cache")
    parser.add_argument("--bench-json", metavar="PATH",
                        default="BENCH_sweeps.json",
                        help="perf-record file updated after each sweep "
                             "(default: BENCH_sweeps.json; for 'all' it is "
                             "written inside --outdir)")
    parser.add_argument("--no-bench", action="store_true",
                        help="do not write the perf record")
    parser.add_argument("--runtime-telemetry", metavar="DIR", default=None,
                        help="write the wall-clock runtime telemetry plane "
                             "into DIR: span file, Chrome fleet timeline, "
                             "progress file (see docs/OBSERVABILITY.md "
                             "'two planes'); never affects results or "
                             "sim-time traces")
    parser.add_argument("--progress", action="store_true",
                        help="print a live progress ticker (cells done, "
                             "cache hits, active workers, stragglers, ETA) "
                             "to stderr")
    parser.add_argument("--trace", metavar="PATH", default=None,
                        help="write a deterministic decision/event trace "
                             "of the run (see docs/OBSERVABILITY.md)")
    parser.add_argument("--trace-format", choices=("jsonl", "chrome"),
                        default="jsonl",
                        help="trace format: 'jsonl' structured log "
                             "(default) or 'chrome' trace-event JSON for "
                             "chrome://tracing")
    parser.add_argument("--metrics-json", metavar="PATH", default=None,
                        help="write the merged counters/gauges/histograms "
                             "registry as JSON")
    parser.add_argument("--report", metavar="DIR", default=None,
                        help="trace the run and write the analytics report "
                             "(report.md + gantt.svg) into DIR; implies "
                             "instrumentation even without --trace")
    parser.add_argument("--chart", action="store_true",
                        help="also draw an ASCII chart")
    parser.add_argument("--events", action="store_true",
                        help="show mean swap/restart counts per cell")
    parser.add_argument("--baseline", default="nothing",
                        help="series used for ratio columns "
                             "(default: nothing)")
    parser.add_argument("--json", metavar="PATH", default=None,
                        help="also write the full sweep result as JSON")
    parser.add_argument("--csv", metavar="PATH", default=None,
                        help="also write per-x means/stds as CSV")
    parser.add_argument("--svg", metavar="PATH", default=None,
                        help="also render the sweep as an SVG line chart")
    parser.add_argument("--list", action="store_true", dest="list_scenarios",
                        help="list available scenarios and exit")
    return parser


def main(argv: "list[str] | None" = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.list_scenarios:
        for name, spec in sorted(ALL_SCENARIOS.items()):
            print(f"{name:>22}: {spec.title}")
        return 0

    if not args.scenario:
        parser.print_usage(sys.stderr)
        return 2

    config = _fabric_config(parser, args)
    if args.scenario == "all":
        return regenerate_all(args, config)

    spec = get_scenario(args.scenario)
    session = _make_session(args)
    result, timing, fabric_stats = _execute(args, spec, session, config)

    baseline = args.baseline if args.baseline in result.series else None
    print(format_table(result, baseline=baseline, show_events=args.events))
    if baseline:
        print()
        print(shape_summary(result, baseline=baseline))
    if args.chart:
        print()
        print(ascii_chart(result))
    if args.json:
        result.to_json(args.json)
        print(f"\nwrote {args.json}")
    if args.csv:
        result.to_csv(args.csv)
        print(f"wrote {args.csv}")
    if args.svg:
        from repro.experiments.svgplot import write_svg
        write_svg(result, args.svg)
        print(f"wrote {args.svg}")
    _write_obs(args, session)
    if not args.no_bench:
        append_bench_record(args.bench_json, timing)
        print(f"\nwrote perf record to {args.bench_json}")
    if fabric_stats is not None:
        print(f"\n[fabric: {fabric_stats.workers} {fabric_stats.transport} "
              f"worker(s), {fabric_stats.leases} leases, "
              f"{fabric_stats.requeued_cells} requeued, "
              f"{fabric_stats.workers_lost} worker(s) lost]")
    print(f"\n[{len(result.seeds)} seeds, {timing.jobs} job(s), "
          f"{timing.wall_time:.2f}s; {timing.cells_computed}/"
          f"{timing.cells_total} cells computed, {timing.cache_hits} "
          f"cache hits, {timing.events_per_sec:.0f} events/s]")
    return 0


def _fabric_config(parser, args):
    """The run's :class:`FabricConfig`, or None to run in-process; a
    flag the run cannot honour is a usage error (exit 2)."""
    if args.fabric_transport != "tcp":
        for flag, value in (("--listen", args.listen),
                            ("--fabric-token", args.fabric_token)):
            if value is not None:
                parser.error(f"{flag} needs --fabric-transport tcp")
    if args.jobs == 1 and args.fabric_transport is None:
        if args.fabric_chaos is not None:
            parser.error("--fabric-chaos needs a fabric run "
                         "(--jobs N > 1 or --fabric-transport)")
        return None
    from repro.experiments.fabric import FabricConfig, WorkerChaos

    # Unset transport/listen keep FabricConfig's defaults.
    overrides = {name: value for name, value in
                 (("transport", args.fabric_transport),
                  ("listen", args.listen)) if value is not None}
    try:
        chaos = (WorkerChaos.parse(args.fabric_chaos)
                 if args.fabric_chaos is not None else None)
        return FabricConfig(workers=args.jobs, chaos=chaos,
                            token=args.fabric_token, **overrides)
    except FabricError as exc:
        parser.error(str(exc))


def _execute(args, spec, session, config):
    """Run one sweep, in-process when ``config`` is None, else on the
    fabric: ``(result, timing, fabric_stats)``, the stats None in-process.
    """
    cache_dir = None if args.no_cache else args.cache_dir
    if config is None:
        result, timing = execute_sweep(spec, seeds=args.seeds,
                                       cache_dir=cache_dir,
                                       obs_session=session,
                                       runtime_dir=args.runtime_telemetry,
                                       progress=args.progress)
        return result, timing, None
    from repro.experiments.fabric import execute_sweep_fabric

    return execute_sweep_fabric(spec, seeds=args.seeds, config=config,
                                cache_dir=cache_dir, obs_session=session,
                                runtime_dir=args.runtime_telemetry,
                                progress=args.progress)


def _make_session(args):
    """An ObsSession when --trace/--metrics-json/--report asked for one;
    one that keeps no records when only metrics are written."""
    records = args.trace is not None or args.report is not None
    if not records and args.metrics_json is None:
        return None
    from repro import obs

    return obs.ObsSession(records=records)


def _write_obs(args, session) -> None:
    """Write the trace/metrics files and analytics report a session
    collected."""
    if session is None:
        return
    if args.trace is not None:
        if args.trace_format == "chrome":
            session.trace.write_chrome(args.trace)
        else:
            session.trace.write_jsonl(args.trace)
        print(f"wrote {len(session.trace)} trace records "
              f"({args.trace_format}) to {args.trace}")
    if args.metrics_json is not None:
        session.metrics.write_json(args.metrics_json)
        print(f"wrote metrics registry to {args.metrics_json}")
    if args.report is not None:
        from repro.obs.analyze import TraceSet
        from repro.obs.report import write_report

        md_path, svg_path, findings = write_report(
            TraceSet.from_recorder(session.trace), args.report,
            metrics=session.metrics)
        print(f"wrote run report to {md_path} (+ {svg_path.name})")
        if findings:
            for finding in findings:
                print(f"  {finding}")
            print(f"  {len(findings)} trace lint finding(s)")


def regenerate_all(args, config) -> int:
    """Run every scenario; write table/SVG/CSV/JSON per figure."""
    from pathlib import Path

    from repro.experiments.svgplot import write_svg

    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    bench_path = outdir / "BENCH_sweeps.json"
    session = _make_session(args)
    runtime_base = args.runtime_telemetry
    for name, spec in sorted(ALL_SCENARIOS.items()):
        if runtime_base is not None:
            # One run directory per scenario: span files, timeline, and
            # progress.json are per-run artifacts.
            args.runtime_telemetry = str(Path(runtime_base) / name)
        result, timing, _fabric_stats = _execute(args, spec, session,
                                                 config)
        baseline = "nothing" if "nothing" in result.series else None
        (outdir / f"{name}.txt").write_text(
            format_table(result, baseline=baseline) + "\n")
        if all(x != float("inf") for x in result.x_values):
            write_svg(result, outdir / f"{name}.svg")
        result.to_csv(outdir / f"{name}.csv")
        result.to_json(outdir / f"{name}.json")
        if not args.no_bench:
            append_bench_record(bench_path, timing)
        print(f"{name:>22}: {len(result.x_values)} points x "
              f"{len(result.seeds)} seeds in {timing.wall_time:5.2f}s "
              f"({timing.cells_computed} cells, {timing.cache_hits} cache "
              f"hits) -> {outdir}/{name}.{{txt,svg,csv,json}}")
    _write_obs(args, session)
    if not args.no_bench:
        print(f"wrote perf records to {bench_path}")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())
