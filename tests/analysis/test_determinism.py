"""Determinism guarantees, enforced as regression tests.

* The model closure stays ``simlint``-clean (the static half).
* The same root seed reproduces a mechanism-level swap run's event log
  byte for byte, and different seeds diverge (the runtime half): the
  paper's identical-environments property, observed on the real event
  stream rather than assumed.  While the runs execute, nothing may
  build a numpy generator through ``default_rng`` or draw from the
  stdlib ``random`` module: the registry builds its streams from
  ``PCG64`` directly, so any such call is a stream nobody owns.
"""

import random
import sys

import numpy as np
import pytest

from repro.analysis.cli import model_files
from repro.analysis.linter import lint_paths
from repro.load.onoff import OnOffLoadModel
from repro.obs.hooks import SimHooks
from repro.platform.cluster import make_platform
from repro.simkernel.engine import Simulator
from repro.swap.runtime import SwapRuntime
from repro.units import KB, MB, MFLOPS


def test_repo_is_simlint_clean(model_closure):
    """Every hazard in the model closure is fixed or explicitly
    suppressed."""
    findings, files_scanned = lint_paths(model_files(model_closure))
    assert files_scanned > 50  # the walk really saw the model
    assert findings == [], "\n".join(f.format() for f in findings)


class _EventLog(SimHooks):
    """One byte-stable line per processed event: ``time seq kind``."""

    def __init__(self) -> None:
        self.lines: "list[str]" = []

    def event_fired(self, when: float, seq: int, event_type: str) -> None:
        self.lines.append(f"{when!r} {seq} {event_type}")


@pytest.fixture
def ambient_draws(monkeypatch):
    """Call sites of numpy's and the stdlib's ambient RNG entry points."""
    calls: "list[str]" = []

    def guard(owner, name: str) -> None:
        original = getattr(owner, name)

        def wrapper(*args, **kwargs):
            frame = sys._getframe(1)
            calls.append(f"{owner.__name__}.{name}() at "
                         f"{frame.f_code.co_filename}:{frame.f_lineno}")
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)

    guard(np.random, "default_rng")
    guard(np.random, "seed")
    for name in ("random", "randint", "randrange", "uniform", "choice",
                 "choices", "shuffle", "sample", "gauss", "expovariate"):
        guard(random, name)
    return calls


def _swap_run(seed: int):
    """A 6-host ON/OFF platform, 3 swapped ranks, the greedy policy: the
    whole swap stack (handlers, manager, state transfers) in a few
    hundred events."""
    platform = make_platform(
        6, OnOffLoadModel(p=0.3, q=0.08), seed=seed,
        speed_range=(250 * MFLOPS, 350 * MFLOPS), horizon=600.0)
    log = _EventLog()
    runtime = SwapRuntime(platform, n_active=3,
                          chunk_flops=500 * MFLOPS,  # ~2 s per iteration
                          probe_interval=5.0, sim=Simulator(hooks=log))
    result = runtime.run_iterative(4, exchange_bytes=64 * KB,
                                   state_bytes=1 * MB)
    return result, log.lines


def test_same_seed_reproduces_event_log_byte_for_byte(ambient_draws):
    first, log_a = _swap_run(seed=11)
    second, log_b = _swap_run(seed=11)

    assert "\n".join(log_a).encode() == "\n".join(log_b).encode()
    assert len(log_a) > 100  # a run of real size, not a stub
    assert first.makespan == second.makespan
    assert first.swap_count == second.swap_count
    assert first.startup_time == second.startup_time
    assert ambient_draws == []


def test_different_seeds_diverge():
    """The comparison above is meaningful: seeds do change the run."""
    _, log_a = _swap_run(seed=11)
    _, log_b = _swap_run(seed=12)
    assert log_a != log_b
