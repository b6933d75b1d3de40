"""The unified ``python -m repro.analysis`` umbrella CLI.

Covers the subcommand interface (lint / flow / rules / trace /
self-check), the shared exit-code convention (0 clean, 1 findings, 2
usage error), baseline filtering, and the byte-stable effects report.
"""

import json
from pathlib import Path

import pytest

from repro.analysis.cli import main

FIXTURE_PKG = str(Path(__file__).resolve().parent / "flowfixtures")


# -- lint subcommand ----------------------------------------------------------

def test_bare_path_spelling_is_a_usage_error(tmp_path, capsys):
    bad = tmp_path / "bad.py"
    bad.write_text("import time\nt = time.time()\n")
    assert main(["lint", str(bad)]) == 1
    assert "SL001" in capsys.readouterr().out
    with pytest.raises(SystemExit) as exc:
        main([str(bad)])
    assert exc.value.code == 2


def test_lint_subcommand_json_schema(tmp_path, capsys):
    bad = tmp_path / "bad.py"
    bad.write_text("import time\nt = time.time()\n")
    assert main(["lint", str(bad), "--format", "json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["version"] == 1
    assert payload["tool"] == "simlint"


# -- flow subcommand ----------------------------------------------------------

def test_flow_subcommand_on_fixture_package(capsys):
    # Under the *default* (repro) contracts the fixture package still
    # trips the contract-independent rules.
    assert main(["flow", FIXTURE_PKG, "--format", "json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["version"] == 1
    assert payload["tool"] == "simflow"
    assert payload["finding_count"] == len(payload["findings"])
    codes = set(payload["counts_by_code"])
    assert {"SF002", "SF005", "SF006"} <= codes
    for entry in payload["findings"]:
        assert set(entry) == {"code", "message", "path", "line", "column",
                              "function"}


def test_flow_subcommand_missing_root_is_usage_error(capsys):
    assert main(["flow", "definitely/not/a/package"]) == 2
    assert "error" in capsys.readouterr().out


def test_flow_baseline_roundtrip(tmp_path, capsys):
    assert main(["flow", FIXTURE_PKG, "--format", "json"]) == 1
    baseline = tmp_path / "baseline.json"
    baseline.write_text(capsys.readouterr().out)
    assert main(["flow", FIXTURE_PKG, "--baseline", str(baseline)]) == 0
    out = capsys.readouterr().out
    assert "0 findings" in out


def test_flow_unreadable_baseline_is_usage_error(tmp_path, capsys):
    missing = tmp_path / "nope.json"
    assert main(["flow", FIXTURE_PKG, "--baseline", str(missing)]) == 2
    assert "baseline" in capsys.readouterr().out


def test_flow_effects_report_is_byte_stable(capsys):
    assert main(["flow", FIXTURE_PKG, "--package", "flowfixtures",
                 "--effects-report"]) == 0
    first = capsys.readouterr().out
    assert main(["flow", FIXTURE_PKG, "--package", "flowfixtures",
                 "--effects-report"]) == 0
    second = capsys.readouterr().out
    assert first == second
    report = json.loads(first)
    assert report["tool"] == "simflow-effects"
    assert first.endswith("\n") and not first.endswith("\n\n")


# -- rules subcommand ---------------------------------------------------------

def test_rules_subcommand_lists_every_family(capsys):
    assert main(["rules"]) == 0
    out = capsys.readouterr().out
    for code in ("SL001", "SF001", "SF006", "SZ101", "TL001", "TL007"):
        assert code in out


def test_rules_subcommand_json_is_sorted_and_unique(capsys):
    assert main(["rules", "--format", "json"]) == 0
    rows = json.loads(capsys.readouterr().out)
    codes = [r["code"] for r in rows]
    assert codes == sorted(codes)
    assert len(codes) == len(set(codes))
    assert len(codes) >= 24  # 6 SL + 6 SF + 5 SZ + 7 TL
    assert all({"code", "name", "summary"} == set(r) for r in rows)


# -- trace forwarding ----------------------------------------------------------

def test_trace_subcommand_forwards_to_obs(capsys):
    assert main(["trace", "rules"]) == 0
    out = capsys.readouterr().out
    assert "TL001" in out and "TL007" in out


# -- self-check ------------------------------------------------------------------

def test_self_check_subcommand_includes_flow_gate(capsys):
    assert main(["self-check"]) == 0
    out = capsys.readouterr().out
    assert "simlint: 0 findings" in out
    assert "sanitizer demo: 0 errors" in out
    assert "simflow: 0 findings" in out
