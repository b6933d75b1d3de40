"""The simflow interprocedural analyzer: rules, signatures, report.

Three layers of coverage:

* every SF rule fires on its injected violation in
  ``tests/analysis/flowfixtures`` and stays quiet on the adjacent clean
  code;
* golden effect signatures for the kernel, a strategy, and the executor
  -- the purity contract the fabric and scenario lowering rely on;
* the committed effects report (``docs/effects-report.json``) matches a
  fresh run byte-for-byte.
"""

import textwrap

from repro.analysis.flow import (analyze_package, effects_report,
                                 format_effects_report)
from repro.analysis.flow.contracts import FlowContracts

from tests.analysis.conftest import REPO_ROOT


def _codes(result):
    return sorted({f.code for f in result.findings})


def _by_code(result, code):
    return [f for f in result.findings if f.code == code]


# -- every rule fires on the fixture package ---------------------------------

def test_every_sf_rule_fires_on_fixture(fixture_flow):
    assert _codes(fixture_flow) == ["SF003", "SF004"]


def test_sf003_flags_set_iteration_feeding_the_sink(fixture_flow):
    (finding,) = _by_code(fixture_flow, "SF003")
    assert finding.function == "flowfixtures.cells.compute"
    assert "set literal" in finding.message


def test_sf003_leaves_dict_view_iteration_alone(fixture_flow):
    # Dicts iterate in insertion order, which the language guarantees:
    # only a set brings hash order into a sink.
    flagged = {f.function for f in fixture_flow.findings}
    assert "flowfixtures.cells.replay" not in flagged


def test_sf004_reports_the_purity_contract_violation(fixture_flow):
    (finding,) = _by_code(fixture_flow, "SF004")
    assert finding.function == "flowfixtures.purity.supposedly_pure"
    assert "performs-io" in finding.message


def test_clean_neighbours_stay_clean(fixture_flow):
    flagged = {f.function for f in fixture_flow.findings}
    for clean in ("flowfixtures.randomness.good_draw",
                  "flowfixtures.purity.actually_pure"):
        assert clean not in flagged


def test_fixture_effect_signatures(fixture_flow):
    analysis = fixture_flow.analysis
    assert analysis.is_pure("flowfixtures.purity.actually_pure")
    assert analysis.signature("flowfixtures.purity.supposedly_pure") == [
        "performs-io"]
    assert analysis.signature("flowfixtures.randomness.bad_draw") == [
        "consumes-rng-stream"]
    # compute inherits its callee's mutation plus the kernel's sim time.
    sig = analysis.signature("flowfixtures.cells.compute")
    assert "mutates-shared-state" in sig
    assert "sim-time-dependent" in sig


# -- golden signatures of the real package -----------------------------------

def test_repro_package_has_no_unsuppressed_findings(repro_flow):
    assert repro_flow.findings == []
    assert repro_flow.suppressed_count == 0


def test_golden_signature_simulator_step(repro_flow):
    assert repro_flow.analysis.signature(
        "repro.simkernel.engine.Simulator.step") == [
        "mutates-shared-state", "reads-sim-state", "sim-time-dependent"]


def test_golden_signature_swap_strategy_run(repro_flow):
    # SWAP runs the one BSP loop every strategy inherits.
    assert repro_flow.analysis.signature(
        "repro.strategies.base.Strategy.run") == [
        "mutates-shared-state", "reads-sim-state", "consumes-rng-stream"]


def test_golden_signature_compute_cell(repro_flow):
    # No I/O: computing a cell only simulates.
    assert repro_flow.analysis.signature(
        "repro.experiments.executor.compute_cell") == [
        "mutates-shared-state", "reads-sim-state", "consumes-rng-stream",
        "sim-time-dependent"]


def test_contracted_pure_functions_are_pure(repro_flow):
    analysis = repro_flow.analysis
    # initial_schedule left this list with the batch-kernel rewrite: host
    # ranking can lazily extend load traces (an RNG draw), so it never
    # belonged under the purity contract.
    for qualname in ("repro.simkernel.rng.derive_seed",
                     "repro.core.payback.iterations_to_break_even",
                     "repro.platform.network.LinkSpec.transfer_time"):
        assert analysis.is_pure(qualname), qualname


# -- the effects report -------------------------------------------------------

def test_committed_effects_report_is_current(repro_flow):
    fresh = format_effects_report(effects_report(repro_flow.analysis))
    committed = (REPO_ROOT / "docs" / "effects-report.json").read_text(
        encoding="utf-8")
    assert fresh == committed, (
        "docs/effects-report.json drifted; regenerate with "
        "`python -m repro.analysis flow --effects-report > "
        "docs/effects-report.json`")


def test_effects_report_scope_and_shape(repro_flow):
    report = effects_report(repro_flow.analysis)
    assert report["tool"] == "simflow-effects"
    assert report["function_count"] == len(report["functions"])
    assert 0 < report["pure_count"] < report["function_count"]
    for qualname, entry in report["functions"].items():
        assert qualname.startswith(("repro.simkernel.", "repro.strategies.",
                                    "repro.experiments.executor"))
        assert entry["pure"] == (entry["effects"] == [])


# -- suppression integration ---------------------------------------------------

def _write_package(tmp_path, name, body):
    pkg = tmp_path / name
    pkg.mkdir()
    (pkg / "__init__.py").write_text("")
    (pkg / "mod.py").write_text(textwrap.dedent(body))
    return pkg


def test_simflow_comment_suppresses_flow_finding(tmp_path):
    pkg = _write_package(tmp_path, "pkg", """
        def supposedly_pure(x):  # simflow: disable=SF004
            print(x)
            return x
    """)
    contracts = FlowContracts(assumed_pure=("pkg.mod.supposedly_pure",))
    result = analyze_package(pkg, contracts=contracts)
    assert result.findings == []
    assert result.suppressed_count == 1


def test_decorator_line_suppression_covers_def_anchored_finding(tmp_path):
    # SF004 anchors to the def line; the suppression sits on the
    # decorator line above it (the natural comment spot).
    pkg = _write_package(tmp_path, "pkg", """
        import functools

        @functools.lru_cache()  # simflow: disable=SF004
        def supposedly_pure(x):
            print(x)
            return x
    """)
    contracts = FlowContracts(assumed_pure=("pkg.mod.supposedly_pure",))
    result = analyze_package(pkg, contracts=contracts)
    assert [f.code for f in result.findings] == []
    assert result.suppressed_count == 1
