"""Command-line front end: ``python -m repro.analysis``.

One umbrella over the analyzer families, with a shared finding schema
(:mod:`repro.analysis.schema`), shared suppression comments, and shared
exit codes (0 clean, 1 findings, 2 usage error)::

    python -m repro.analysis lint src/            # SL: per-file AST lint
    python -m repro.analysis flow                 # SF: interprocedural flow
    python -m repro.analysis flow --effects-report  # the purity contract
    python -m repro.analysis rules                # every code, all families
    python -m repro.analysis self-check           # the CI gate (SL+SF)
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path
from typing import Sequence

from repro.analysis.linter import (findings_to_dict, format_json, format_text,
                                   lint_paths)
from repro.analysis.rules import all_rules


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="Unified static analysis for the repro package "
                    "(SL lint, SF flow).")
    sub = parser.add_subparsers(dest="command", required=True)

    lint = sub.add_parser("lint", help="per-file AST lint (SL rules)")
    lint.add_argument("paths", nargs="+")
    lint.add_argument("--format", choices=("text", "json"), default="text")

    flow = sub.add_parser(
        "flow", help="interprocedural effect and determinism analysis "
                     "(SF rules)")
    flow.add_argument("root", nargs="?", default=None,
                      help="package directory (default: the installed "
                           "repro package's model closure)")
    flow.add_argument("--package", default=None,
                      help="package name for qualnames (default: the "
                           "directory name)")
    flow.add_argument("--format", choices=("text", "json"), default="text")
    flow.add_argument("--effects-report", action="store_true",
                      help="print the inferred effect-signature table for "
                           "the contract scope instead of findings")

    rules = sub.add_parser("rules",
                           help="list every diagnostic code of every "
                                "family (SL, SF, TL)")
    rules.add_argument("--format", choices=("text", "json"), default="text")

    check = sub.add_parser("self-check", help="the CI gate: lint + flow "
                                              "over the model closure")
    check.add_argument("--format", choices=("text", "json"), default="text")
    return parser


# -- subcommands ---------------------------------------------------------------


def _print_lint(findings, files_scanned, fmt: str) -> None:
    if fmt == "json":
        print(format_json(findings, files_scanned))
    else:
        print(format_text(findings, files_scanned))


def _run_lint(paths, fmt: str) -> int:
    try:
        findings, files_scanned = lint_paths(paths)
    except FileNotFoundError as exc:
        print(f"error: {exc}")
        return 2
    _print_lint(findings, files_scanned, fmt)
    return 1 if findings else 0


def _package_dir() -> Path:
    import repro

    return Path(repro.__file__).resolve().parent


def model_files(modules: "Sequence[str]") -> "list[Path]":
    """Source files of the installed package's ``modules``."""
    package_dir = _package_dir()
    files = []
    for name in modules:
        rel = package_dir.joinpath(*name.split(".")[1:])
        files.append(rel / "__init__.py" if rel.is_dir()
                     else rel.with_suffix(".py"))
    return files


def _run_flow(root: "str | None", package: "str | None", fmt: str,
              effects: bool) -> int:
    from repro.analysis import flow as flowpkg
    from repro.experiments.executor import model_modules

    modules = None
    if root is None:
        root_path = _package_dir()
        package = package or "repro"
        modules = model_modules()
    else:
        root_path = Path(root)

    try:
        result = flowpkg.analyze_package(root_path, package=package,
                                         modules=modules)
    except FileNotFoundError as exc:
        print(f"error: {exc}")
        return 2

    if effects:
        report = flowpkg.effects_report(result.analysis)
        print(flowpkg.format_effects_report(report), end="")
        return 0

    findings = result.findings
    if fmt == "json":
        print(flowpkg.format_flow_json(findings, result.functions_analyzed))
    else:
        print(flowpkg.format_flow_text(findings, result.functions_analyzed))
    return 1 if findings else 0


def _all_rule_catalogue() -> "list[tuple[str, str, str]]":
    """(code, name, summary) for every family, sorted by code."""
    from repro.analysis.flow.rules import FLOW_RULES
    from repro.obs.analyze import TRACE_RULES

    rows = [(r.code, r.name, r.summary) for r in all_rules()]
    rows += [(code, name, summary)
             for code, (name, summary) in FLOW_RULES.items()]
    rows += [(code, f"trace-{code.lower()}", summary)
             for code, summary in TRACE_RULES.items()]
    return sorted(rows)


def _run_rules(fmt: str) -> int:
    rows = _all_rule_catalogue()
    if fmt == "json":
        print(json.dumps([{"code": c, "name": n, "summary": s}
                          for c, n, s in rows], indent=2))
    else:
        for code, name, summary in rows:
            print(f"{code} {name}: {summary}")
    return 0


def _self_check(fmt: str) -> int:
    from repro.analysis import flow as flowpkg
    from repro.experiments.executor import model_modules

    package_dir = _package_dir()
    modules = model_modules()
    findings, files_scanned = lint_paths(model_files(modules))
    # Report paths relative to the package root so output is stable
    # across checkouts.
    rel = [f.__class__(code=f.code, message=f.message,
                       path=str(Path(f.path).relative_to(package_dir.parent)),
                       line=f.line, column=f.column) for f in findings]

    flow_result = flowpkg.analyze_package(package_dir, package="repro",
                                          modules=modules)
    failed = bool(rel or flow_result.findings)

    if fmt == "json":
        payload = findings_to_dict(rel, files_scanned)
        payload["flow"] = flowpkg.flow_payload(
            flow_result.findings, flow_result.functions_analyzed)
        print(json.dumps(payload, indent=2))
    else:
        _print_lint(rel, files_scanned, fmt)
        print(flowpkg.format_flow_text(flow_result.findings,
                                       flow_result.functions_analyzed))
    return 1 if failed else 0


# -- entry points -------------------------------------------------------------


def main(argv: "list[str] | None" = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "lint":
        return _run_lint(args.paths, args.format)
    if args.command == "flow":
        return _run_flow(args.root, args.package, args.format,
                         args.effects_report)
    if args.command == "rules":
        return _run_rules(args.format)
    assert args.command == "self-check"
    return _self_check(args.format)
