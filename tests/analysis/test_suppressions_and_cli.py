"""Suppression comments, JSON schema, and the CLI front end."""

import ast
import json
import textwrap

import pytest

from repro.analysis.cli import main
from repro.analysis.linter import (SuppressionIndex, findings_to_dict,
                                   lint_paths, lint_source)

FLAGGED = textwrap.dedent("""
    import random
    def stamp():
        return random.random()
""")


# -- suppression comments ---------------------------------------------------

def test_line_suppression_silences_only_that_code():
    source = FLAGGED.replace(
        "return random.random()",
        "return random.random()  # simlint: disable=SL001")
    assert lint_source(source) == []


def test_line_suppression_wrong_code_keeps_finding():
    source = FLAGGED.replace(
        "return random.random()",
        "return random.random()  # simlint: disable=SL005")
    assert [f.code for f in lint_source(source)] == ["SL001"]


def test_line_suppression_multiple_codes():
    source = textwrap.dedent("""
        import random
        def stamp():
            return random.random() * 3600  # simlint: disable=SL001
    """)
    assert [f.code for f in lint_source(source)] == ["SL005"]
    source = source.replace("disable=SL001", "disable=SL001,SL005")
    assert lint_source(source) == []


def test_line_suppression_mixes_families_on_one_line():
    # One directive may carry codes from several analyzer families;
    # simlint honours its own and ignores the rest.
    source = FLAGGED.replace(
        "return random.random()",
        "return random.random()  # simlint: disable=SL001,SF003")
    assert lint_source(source) == []


def test_simflow_and_umbrella_prefixes_suppress_sl_codes():
    for prefix in ("simflow", "repro-analysis"):
        source = FLAGGED.replace(
            "return random.random()",
            f"return random.random()  # {prefix}: disable=SL001")
        assert lint_source(source) == [], prefix


def test_file_suppression_via_umbrella_prefix():
    source = "# repro-analysis: disable-file=SL001\n" + FLAGGED
    assert lint_source(source) == []


def _def_line_suppressed(source: str, code: str) -> bool:
    """Whether ``code`` is suppressed on the first ``def`` line."""
    tree = ast.parse(source)
    func = next(n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef))
    return SuppressionIndex(source, tree).suppressed(code, func.lineno)


def test_decorator_line_suppression_covers_the_def_line():
    # SF004 anchors a purity-contract violation to the def line; with a
    # decorator stack, the comment naturally sits on a decorator line.
    source = textwrap.dedent("""
        import functools

        @functools.lru_cache()  # simflow: disable=SF004
        def cached(key):
            return key
    """)
    assert _def_line_suppressed(source, "SF004")


def test_decorator_line_suppression_wrong_code_keeps_finding():
    source = textwrap.dedent("""
        import functools

        @functools.lru_cache()  # simflow: disable=SF003
        def cached(key):
            return key
    """)
    assert not _def_line_suppressed(source, "SF004")


def test_suppression_on_middle_decorator_of_a_stack():
    source = textwrap.dedent("""
        import functools

        @functools.wraps(print)
        @functools.lru_cache()  # simflow: disable=SF004
        def cached(key):
            return key
    """)
    assert _def_line_suppressed(source, "SF004")


def test_line_suppression_all_keyword():
    source = FLAGGED.replace(
        "return random.random()",
        "return random.random()  # simlint: disable=all")
    assert lint_source(source) == []


def test_file_suppression():
    source = "# simlint: disable-file=SL001\n" + FLAGGED
    assert lint_source(source) == []


def test_file_suppression_other_code_untouched():
    source = "# simlint: disable-file=SL003\n" + FLAGGED
    assert [f.code for f in lint_source(source)] == ["SL001"]


# -- JSON schema -------------------------------------------------------------

def test_json_payload_schema():
    findings = lint_source(FLAGGED, path="pkg/mod.py")
    payload = findings_to_dict(findings, files_scanned=1)
    assert payload["version"] == 1
    assert payload["tool"] == "simlint"
    assert payload["files_scanned"] == 1
    assert payload["finding_count"] == 1
    assert payload["counts_by_code"] == {"SL001": 1}
    (entry,) = payload["findings"]
    assert set(entry) == {"code", "message", "path", "line", "column"}
    assert entry["code"] == "SL001"
    assert entry["path"] == "pkg/mod.py"
    assert entry["line"] == 4
    assert isinstance(entry["column"], int) and entry["column"] >= 1
    json.dumps(payload)  # must be serializable as-is


def test_findings_sorted_and_counted(tmp_path):
    (tmp_path / "b.py").write_text("import random\nt = random.random()\nH = 3600\n")
    (tmp_path / "a.py").write_text("H = 86400\n")
    findings, files_scanned = lint_paths([tmp_path])
    assert files_scanned == 2
    assert [f.code for f in findings] == ["SL005", "SL001", "SL005"]
    paths = [f.path for f in findings]
    assert paths == sorted(paths)


# -- CLI ---------------------------------------------------------------------

def test_cli_clean_tree_exits_zero(tmp_path, capsys):
    (tmp_path / "ok.py").write_text("from repro.units import HOUR\nH = HOUR\n")
    assert main(["lint", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "0 findings" in out


def test_cli_findings_exit_one_and_print_location(tmp_path, capsys):
    bad = tmp_path / "bad.py"
    bad.write_text("import random\nt = random.random()\n")
    assert main(["lint", str(bad)]) == 1
    out = capsys.readouterr().out
    assert "bad.py:2" in out and "SL001" in out


def test_cli_json_format(tmp_path, capsys):
    bad = tmp_path / "bad.py"
    bad.write_text("import random\nt = random.random()\n")
    assert main(["lint", str(bad), "--format", "json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["tool"] == "simlint"
    assert payload["finding_count"] == 1


def test_cli_list_rules(capsys):
    assert main(["rules"]) == 0
    out = capsys.readouterr().out
    for code in ("SL001", "SL004", "SL005"):
        assert code in out


def test_cli_no_paths_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["lint"])
    assert exc.value.code == 2


def test_cli_missing_path_is_usage_error(capsys):
    assert main(["lint", "definitely/not/a/real/path"]) == 2


def test_cli_syntax_error_reported_not_raised(tmp_path, capsys):
    (tmp_path / "broken.py").write_text("def f(:\n")
    assert main(["lint", str(tmp_path)]) == 1
    assert "SL000" in capsys.readouterr().out


def test_cli_self_check_is_clean(capsys):
    """The committed tree must pass its own gate (the CI invocation)."""
    assert main(["self-check"]) == 0
    out = capsys.readouterr().out
    assert "simlint: 0 findings" in out
    assert "simflow: 0 findings" in out
