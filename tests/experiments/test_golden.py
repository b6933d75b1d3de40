"""Golden regression values for the headline figure.

These pin exact simulated makespans for one seed of Fig. 4.  They will
(and should) fail on any change to the platform physics, the dynamism
mapping, or the policy engine: such changes silently re-calibrate every
figure in EXPERIMENTS.md, and this test makes that visible.  If a change
is intentional, regenerate EXPERIMENTS.md and update these constants.
"""

import pytest

from repro.experiments.runner import run_sweep
from repro.experiments.scenarios import get_scenario

#: (x-index, series) -> makespan for fig4 with seeds=[0].
GOLDEN_FIG4_SEED0 = {
    (0, "nothing"): 2612.5178810379675,
    (0, "swap-greedy"): 2633.517881037968,
    (5, "nothing"): 4579.5740556982755,
    (5, "swap-greedy"): 2915.21583961122,
    (5, "dlb"): 3397.8313255352828,
    (5, "cr"): 3058.855944701785,
    (9, "nothing"): 4558.786371313198,
}


@pytest.fixture(scope="module")
def fig4_seed0():
    return run_sweep(get_scenario("fig4"), seeds=[0])


def test_fig4_golden_values(fig4_seed0):
    mismatches = []
    for (index, series), expected in GOLDEN_FIG4_SEED0.items():
        measured = fig4_seed0.series[series].mean[index]
        if measured != pytest.approx(expected, rel=1e-9):
            mismatches.append((index, series, expected, measured))
    assert not mismatches, (
        "simulated physics changed -- regenerate EXPERIMENTS.md and "
        f"update the golden constants: {mismatches}")


# -- committed full-sweep goldens (the kernel float-identity oracle) ---------
#
# tests/experiments/goldens/ pins the complete seeds=2 sweep results of
# the two headline figures, of ext-faults (the fault paths of all four
# strategies) and of ext-eviction (the only load model that spawns child
# streams with ``Generator.spawn``), byte-for-byte.  Unlike the spot values above these
# cover every cell, so any drift in the vectorized kernels, the lowering
# passes or the strategy loop -- however small -- fails loudly.
# Regenerate with:
#   PYTHONPATH=src python -c "
#   import json
#   from repro.experiments.executor import execute_sweep
#   from repro.experiments.scenarios import get_scenario
#   for name in ('fig4', 'fig7', 'ext-faults', 'ext-eviction'):
#       result, _ = execute_sweep(get_scenario(name), seeds=2)
#       open(f'tests/experiments/goldens/{name}-seeds2.json', 'w').write(
#           json.dumps(result.to_dict(), sort_keys=True, indent=2) + '\n')"

import json
from pathlib import Path

from repro.experiments.executor import execute_sweep
from repro.simkernel.plan import disable_lowering

GOLDENS = Path(__file__).parent / "goldens"


@pytest.mark.parametrize("name", ["fig4", "fig7", "ext-faults",
                                  "ext-eviction"])
def test_sweep_byte_identical_to_committed_golden(name):
    result, _timing = execute_sweep(get_scenario(name), seeds=2)
    got = json.dumps(result.to_dict(), sort_keys=True, indent=2) + "\n"
    want = (GOLDENS / f"{name}-seeds2.json").read_text()
    assert got == want, (
        f"{name} drifted from its committed golden -- if the physics "
        "change is intentional, regenerate tests/experiments/goldens/")


def test_fig4_lowering_is_float_identical():
    """The scalar reference path must reproduce the golden bytes too."""
    with disable_lowering():
        result, _timing = execute_sweep(get_scenario("fig4"), seeds=2)
    got = json.dumps(result.to_dict(), sort_keys=True, indent=2) + "\n"
    assert got == (GOLDENS / "fig4-seeds2.json").read_text()
