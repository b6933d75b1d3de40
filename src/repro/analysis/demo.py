"""A small canonical scenario for sanitized runs.

Used by ``python -m repro.analysis sanitize`` and by the determinism
smoke test: a 6-host shared platform with ON/OFF external load, a 3-rank
swapped BSP application, and the greedy policy -- the whole swap stack
(handlers, manager, state transfers) exercised on a
:class:`~repro.analysis.sanitizer.SanitizedSimulator` in a few hundred
events.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.sanitizer import SanitizedSimulator, SanitizerReport
from repro.load.onoff import OnOffLoadModel
from repro.platform.cluster import make_platform
from repro.swap.runtime import SwapJobResult, SwapRuntime
from repro.units import KB, MB, MFLOPS


@dataclass
class DemoOutcome:
    """Everything the CLI / tests need from one sanitized demo run."""

    result: SwapJobResult
    report: SanitizerReport
    event_log: "list[str]"

    @property
    def makespan(self) -> float:
        return self.result.makespan


def run_demo(seed: int = 0, *, strict: bool = False,
             iterations: int = 4) -> DemoOutcome:
    """Run the demo scenario under the sanitizer and collect its report."""
    platform = make_platform(
        6, OnOffLoadModel(p=0.3, q=0.08), seed=seed,
        speed_range=(250 * MFLOPS, 350 * MFLOPS), horizon=600.0)
    sim = SanitizedSimulator(strict=strict)
    runtime = SwapRuntime(platform, n_active=3,
                          chunk_flops=500 * MFLOPS,  # ~2 s per iteration
                          probe_interval=5.0, sim=sim)
    result = runtime.run_iterative(iterations, exchange_bytes=64 * KB,
                                   state_bytes=1 * MB)
    return DemoOutcome(result=result, report=sim.report(),
                       event_log=list(sim.event_log))
