"""Experiment harness: regenerates every figure of the paper.

* :mod:`repro.experiments.scenarios` -- parameter sets for Figs. 1-9 and
  the ablation sweeps, including the documented mapping from the paper's
  "environment dynamism" axis to ON/OFF chain parameters.
* :mod:`repro.experiments.runner` -- replicated, seeded sweep execution.
* :mod:`repro.experiments.executor` -- parallel cell execution and the
  content-addressed cell cache (``run_sweep(..., jobs=N, cache_dir=...)``).
* :mod:`repro.experiments.cli` -- ``python -m repro.experiments fig4``.

The package re-exports only what a sweep needs.  The tooling around it
is imported by module name where it is used, so computing a cell never
loads it:

* :mod:`repro.experiments.fabric` -- the coordinator/worker sweep fabric
  (typed messages, leases, worker-loss recovery;
  ``execute_sweep_fabric``).
* :mod:`repro.experiments.report` -- tables and ASCII charts.
"""

from repro.experiments.executor import (
    CellCache,
    SweepTiming,
    append_bench_record,
    execute_sweep,
)
from repro.experiments.runner import SweepResult, run_sweep
from repro.experiments.scenarios import (
    ALL_SCENARIOS,
    OnOffDynamism,
    get_scenario,
)

__all__ = [
    "ALL_SCENARIOS",
    "CellCache",
    "OnOffDynamism",
    "SweepResult",
    "SweepTiming",
    "append_bench_record",
    "execute_sweep",
    "get_scenario",
    "run_sweep",
]
