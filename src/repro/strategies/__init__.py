"""Execution strategies: the four techniques of the paper's Section 6.

* :class:`~repro.strategies.nothing.NothingStrategy` -- run on the initial
  processors, never adapt (the paper's "do nothing" baseline).
* :class:`~repro.strategies.swapstrat.SwapStrategy` -- MPI process
  swapping with a pluggable :class:`~repro.core.policy.PolicyParams`.
* :class:`~repro.strategies.dlb.DlbStrategy` -- dynamic load balancing:
  perfect per-iteration repartitioning at zero redistribution cost (the
  paper's stated lower bound for DLB).
* :class:`~repro.strategies.cr.CrStrategy` -- checkpoint/restart migration
  of the whole processor set, gated by the same policy criteria.

They share one bulk-synchronous loop,
:meth:`~repro.strategies.base.Strategy.run`, and state only how they
adapt through its hooks.  All strategies run on the *same*
:class:`~repro.platform.Platform` instance (same load traces), giving
the back-to-back reproducible comparisons the paper built its simulator
for.
"""

from repro.strategies.base import ExecutionResult, IterationRecord, Strategy
from repro.strategies.scheduler import initial_schedule
from repro.strategies.nothing import NothingStrategy
from repro.strategies.dlb import DlbStrategy
from repro.strategies.swapstrat import SwapStrategy
from repro.strategies.spawnswap import SpawnSwapStrategy
from repro.strategies.cr import CrStrategy

__all__ = [
    "CrStrategy",
    "DlbStrategy",
    "ExecutionResult",
    "IterationRecord",
    "NothingStrategy",
    "SpawnSwapStrategy",
    "Strategy",
    "SwapStrategy",
    "initial_schedule",
]
