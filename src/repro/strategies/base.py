"""Strategy interface, result records and shared helpers.

All strategies simulate the same application model: a bulk-synchronous
iteration is a parallel compute phase (each active process burns its chunk
at its host's time-varying effective speed, computed exactly from the load
trace) followed by a communication phase on the shared link.  The
iteration ends at ``max(compute finishes) + comm_time`` -- the full
barrier the paper's ``MPI_Swap()`` call relies on.  Strategies run that
iteration through the plan :func:`repro.simkernel.plan.lower` binds at
run start.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

from repro.app.iterative import ApplicationSpec
from repro.app.progress import ProgressRecorder
from repro.errors import StrategyError
from repro.platform.cluster import Platform


class IterationRecord(NamedTuple):
    """Timing of one simulated iteration.

    A NamedTuple: every strategy appends one per iteration, so creation
    cost sits on the sweep hot path.
    """

    index: int
    """1-based iteration number."""
    start: float
    compute_end: float
    end: float
    active: "tuple[int, ...]"
    """Platform indices of the hosts that ran this iteration."""
    overhead_after: float = 0.0
    """Adaptation pause charged after this iteration (swap/checkpoint)."""
    event: str = ""
    """What the pause was: ``"swap"``, ``"checkpoint"``, or ``""``."""

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def compute_time(self) -> float:
        return self.compute_end - self.start


@dataclass
class ExecutionResult:
    """Complete account of one simulated application run."""

    strategy: str
    app: ApplicationSpec
    makespan: float = 0.0
    """Total wall-clock time, startup through last iteration + overheads."""
    startup_time: float = 0.0
    records: "list[IterationRecord]" = field(default_factory=list)
    swap_count: int = 0
    """Individual process exchanges performed."""
    restart_count: int = 0
    """Checkpoint/restart migrations performed."""
    overhead_time: float = 0.0
    """Total time spent paused for swaps/checkpoints."""
    progress: ProgressRecorder = field(default_factory=ProgressRecorder)
    final_active: "tuple[int, ...]" = ()

    @property
    def iteration_count(self) -> int:
        return len(self.records)

    @property
    def mean_iteration_time(self) -> float:
        if not self.records:
            return 0.0
        return sum(r.duration for r in self.records) / len(self.records)

    def summary(self) -> str:
        return (f"{self.strategy}: makespan={self.makespan:.1f}s "
                f"(startup={self.startup_time:.1f}s, "
                f"overhead={self.overhead_time:.1f}s, "
                f"swaps={self.swap_count}, restarts={self.restart_count})")


class Strategy:
    """Interface: simulate one application run on a platform."""

    name = "strategy"

    def run(self, platform: Platform, app: ApplicationSpec) -> ExecutionResult:
        """Simulate the full run and return its :class:`ExecutionResult`."""
        raise NotImplementedError

    # -- shared machinery -------------------------------------------------

    @staticmethod
    def check_fit(platform: Platform, app: ApplicationSpec) -> None:
        if app.n_processes > len(platform):
            raise StrategyError(
                f"application wants {app.n_processes} processes but the "
                f"platform has only {len(platform)} hosts")

    @staticmethod
    def comm_time(platform: Platform, app: ApplicationSpec) -> float:
        """Duration of one iteration's communication phase."""
        return platform.link.exchange_phase_time(app.bytes_per_process,
                                                 app.n_processes)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<{type(self).__name__} {self.name!r}>"
