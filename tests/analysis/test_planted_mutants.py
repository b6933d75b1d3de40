"""Each kept analyzer rule, flagging the planted mutant that earned it
its place.

``docs/STATIC_ANALYSIS.md`` plants one instance of every code's hazard
in model code and records which gates catch it.  The mutants below are
the ones no other gate catches: reruns, ``--jobs 1`` vs ``--jobs 2``,
the lowering oracle and the rest of tier-1 all pass on them.  Each test
applies its mutant to the model source and asserts that the rule
reports it on the planted line, so deleting or weakening a kept rule
fails here.
"""

import shutil
from pathlib import Path

import pytest

import repro
from repro.analysis.flow import analyze_package
from repro.analysis.linter import lint_source

PACKAGE_DIR = Path(repro.__file__).resolve().parent

#: code -> (model file, [(original text, mutated text)], text of the line
#: the finding anchors to).
MUTANTS = {
    # A seeded generator built off the registry: the seed is fixed and
    # the draw discarded, so every rerun and fabric run agrees.
    "SL001": ("swap/manager.py", [
        ("from repro import obs\n",
         "import numpy as np\n\nfrom repro import obs\n"),
        ("        return monitor.predict_many(active + spares, api.now)\n",
         "        g = np.random.default_rng(7)\n"
         "        g.random()\n"
         "        return monitor.predict_many(active + spares, api.now)\n"),
    ], "g = np.random.default_rng(7)"),
    # The clock never runs backwards here, so ``now <= epoch_start``
    # and ``now == epoch_start`` agree on every run today; the equality
    # silently breaks once the epoch start comes from float arithmetic.
    "SL004": ("swap/context.py", [
        ("        if self._epoch_start is None or now <= self._epoch_start:\n",
         "        if self._epoch_start is None or "
         "self.rank.now == self._epoch_start:\n"),
    ], "self.rank.now == self._epoch_start"),
    # The paper's host speeds as a raw literal: the same value, so no
    # byte moves, but the call site no longer says what unit it means.
    "SL005": ("experiments/scenarios.py", [
        ("EVALUATION_SPEED_RANGE = (250 * MFLOPS, 350 * MFLOPS)",
         "EVALUATION_SPEED_RANGE = (250e6, 350 * MFLOPS)"),
    ], "EVALUATION_SPEED_RANGE = (250e6"),
    # Host indices are small ints, so set(victims) iterates in sorted
    # order today: nothing moves, yet the order is CPython's, not ours.
    "SF003": ("strategies/cr.py", [
        ("        for h in sorted(victims):\n"
         "            self._declare(\"revocation\"",
         "        for h in set(victims):\n"
         "            self._declare(\"revocation\""),
    ], "for h in set(victims):"),
    # The lowering contract assumes decide_swaps pure; counting calls
    # into the ambient session is an effect, but the lowered and the
    # scalar bindings call it equally often, so their bytes agree.
    "SF004": ("core/decision.py", [
        ("from repro.core.payback import iterations_to_break_even\n",
         "from repro import obs\n"
         "from repro.core.payback import iterations_to_break_even\n"),
        ("    candidates: list[SwapMove] = []\n",
         "    obs.count(\"core.decide_swaps\")\n"
         "    candidates: list[SwapMove] = []\n"),
    ], "def decide_swaps("),
}

LINT_CODES = sorted(c for c in MUTANTS if c.startswith("SL"))
FLOW_CODES = sorted(c for c in MUTANTS if c.startswith("SF"))


def _mutated(code: str) -> "tuple[str, str, int]":
    """(model file, its mutated source, the planted line number)."""
    rel, edits, marker = MUTANTS[code]
    mutated = (PACKAGE_DIR / rel).read_text(encoding="utf-8")
    for old, new in edits:
        assert mutated.count(old) == 1, f"{code}: {rel} no longer matches"
        mutated = mutated.replace(old, new)
    line = next(i for i, text in enumerate(mutated.splitlines(), start=1)
                if marker in text)
    return rel, mutated, line


@pytest.mark.parametrize("code", LINT_CODES)
def test_lint_rule_flags_its_planted_mutant(code):
    rel, mutated, line = _mutated(code)
    findings = lint_source(mutated, path=f"src/repro/{rel}")
    assert (code, line) in {(f.code, f.line) for f in findings}


@pytest.fixture(scope="module")
def mutated_flow(tmp_path_factory, model_closure):
    """One flow analysis of a package copy carrying every flow mutant."""
    root = tmp_path_factory.mktemp("mutants") / "repro"
    shutil.copytree(PACKAGE_DIR, root,
                    ignore=shutil.ignore_patterns("__pycache__"))
    lines = {}
    for code in FLOW_CODES:
        rel, mutated, lines[code] = _mutated(code)
        (root / rel).write_text(mutated, encoding="utf-8")
    result = analyze_package(root, package="repro", modules=model_closure)
    return result, lines


@pytest.mark.parametrize("code", FLOW_CODES)
def test_flow_rule_flags_its_planted_mutant(code, mutated_flow):
    result, lines = mutated_flow
    rel = MUTANTS[code][0]
    assert any(f.code == code and f.path.endswith(rel)
               and f.line == lines[code] for f in result.findings)
