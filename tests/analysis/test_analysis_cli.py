"""The unified ``python -m repro.analysis`` umbrella CLI.

Covers the subcommand interface (lint / flow / rules), the shared
exit-code convention (0 clean, 1 findings, 2 usage error), and the
byte-stable effects report.  The self-check gate runs once, in
``test_suppressions_and_cli.py``.
"""

import json
from pathlib import Path

import pytest

from repro.analysis.cli import main

FIXTURE_PKG = str(Path(__file__).resolve().parent / "flowfixtures")


# -- lint subcommand ----------------------------------------------------------

def test_bare_path_spelling_is_a_usage_error(tmp_path, capsys):
    bad = tmp_path / "bad.py"
    bad.write_text("import random\nt = random.random()\n")
    assert main(["lint", str(bad)]) == 1
    assert "SL001" in capsys.readouterr().out
    with pytest.raises(SystemExit) as exc:
        main([str(bad)])
    assert exc.value.code == 2


def test_lint_subcommand_json_schema(tmp_path, capsys):
    bad = tmp_path / "bad.py"
    bad.write_text("import random\nt = random.random()\n")
    assert main(["lint", str(bad), "--format", "json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["version"] == 1
    assert payload["tool"] == "simlint"


# -- flow subcommand ----------------------------------------------------------

def test_flow_subcommand_json_schema(tmp_path, capsys):
    # A package named ``repro`` falls under the default contracts, which
    # assume ``repro.core.payback`` pure.
    core = tmp_path / "repro" / "core"
    core.mkdir(parents=True)
    (tmp_path / "repro" / "__init__.py").write_text("")
    (core / "__init__.py").write_text("")
    (core / "payback.py").write_text("def gain(x):\n    print(x)\n"
                                     "    return x\n")
    assert main(["flow", str(tmp_path / "repro"), "--format", "json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["version"] == 1
    assert payload["tool"] == "simflow"
    assert payload["finding_count"] == len(payload["findings"])
    assert payload["counts_by_code"] == {"SF004": 1}
    for entry in payload["findings"]:
        assert set(entry) == {"code", "message", "path", "line", "column",
                              "function"}


def test_flow_subcommand_missing_root_is_usage_error(capsys):
    assert main(["flow", "definitely/not/a/package"]) == 2
    assert "error" in capsys.readouterr().out


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
    for code in ("SL001", "SF003", "SF004", "TL001", "TL007"):
        assert code in out


def test_rules_subcommand_json_is_sorted_and_unique(capsys):
    assert main(["rules", "--format", "json"]) == 0
    rows = json.loads(capsys.readouterr().out)
    codes = [r["code"] for r in rows]
    assert codes == sorted(codes)
    assert len(codes) == len(set(codes))
    assert len(codes) == 11  # 3 SL + 2 SF + 6 TL
    assert all({"code", "name", "summary"} == set(r) for r in rows)
