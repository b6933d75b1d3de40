"""The one BSP loop, its result records and the hooks strategies fill in.

All strategies simulate the same application model: a bulk-synchronous
iteration is a parallel compute phase (each active process burns its chunk
at its host's time-varying effective speed, computed exactly from the load
trace) followed by a communication phase on the shared link.  The
iteration ends at ``max(compute finishes) + comm_time`` -- the full
barrier the paper's ``MPI_Swap()`` call relies on.

:meth:`Strategy.run` is the only iteration-level loop.  The four
techniques differ only in how they adapt, which they state through
hooks: :meth:`Strategy._before_iteration` (repartition, boundary
recovery), :meth:`Strategy._interruption` and
:meth:`Strategy._on_revocation` (what a revocation inside the compute
phase does), and :meth:`Strategy._after_iteration` (the policy-gated
pause after an iteration).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

from repro.app.iterative import ApplicationSpec
from repro.app.progress import ProgressRecorder
from repro.errors import StrategyError
from repro.platform.cluster import Platform
from repro.simkernel.plan import SimPlan
from repro.strategies.scheduler import initial_schedule


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
    """Simulate one application run on a platform.

    :meth:`run` owns the iteration loop; subclasses fill in the hooks
    below.  Between :meth:`_setup` and the end of :meth:`run` the
    instance holds the run's state (``_platform``, ``_app``,
    ``_faults``, ``_result``, ``_comm_time``, ``_splan`` and whatever
    ``_setup`` adds), so one instance runs one simulation at a time.
    """

    name = "strategy"

    #: Launch every pool host's process at startup, spares included
    #: (SWAP's over-allocation); otherwise only the ``N`` working ones.
    overallocates = False

    def run(self, platform: Platform, app: ApplicationSpec) -> ExecutionResult:
        """Simulate the full run and return its :class:`ExecutionResult`.

        Each attempt at iteration ``i`` adapts at the boundary, runs the
        compute and communication phases, and adapts after them.  Under
        faults a revocation inside the compute phase may interrupt the
        attempt: its partial work is lost and ``i`` re-runs.
        """
        self.check_fit(platform, app)
        result = ExecutionResult(strategy=self.name, app=app)
        active = initial_schedule(platform, app.n_processes, t=0.0)
        chunks = app.equal_chunks(active)
        comm_time = self.comm_time(platform, app)
        self._platform = platform
        self._app = app
        self._faults = platform.faults
        self._result = result
        self._comm_time = comm_time
        self._splan = splan = self._setup(active, chunks)

        t = platform.startup_time(len(platform) if self.overallocates
                                  else app.n_processes)
        result.startup_time = t
        result.progress.record(t, 0, "startup")

        progress_record = result.progress.record
        records_append = result.records.append
        iteration = splan.iteration
        fault_free = splan.fault_free
        obs_on = splan.obs_on
        emit_iteration = splan.sink.iteration if obs_on else None
        name = self.name
        before = self._before_iteration
        after = self._after_iteration
        iterations = app.iterations

        # ``tuple(active)`` (shared, traced, by the set's ``iteration``
        # records) cached on the list's identity: every path that
        # changes the active set rebinds it to a fresh list.
        ran_for: "list[int] | None" = None
        ran_on: "tuple[int, ...]" = ()

        i = 1
        while i <= iterations:
            t, active, chunks = before(t, i, active, chunks)
            start = t
            # Revoked hosts pause; the barrier waits for them.
            compute_end, end = iteration(chunks, t, comm_time)
            if not fault_free:
                onset = self._interruption(active, t, compute_end, i)
                if onset is not None:
                    # Mid-iteration interruption: the attempt's partial
                    # work is lost; recover at the onset and re-run i.
                    onset_t, hit = onset
                    t, active, chunks = self._on_revocation(
                        onset_t, hit, i, active, chunks)
                    continue
            if active is not ran_for:
                ran_on = tuple(active)
                ran_for = active
            t = end
            progress_record(t, i, "iteration")
            if obs_on:
                emit_iteration(end, name, i, start, compute_end, ran_on)
            t, active, chunks, overhead, event = after(i, start, t, active,
                                                       chunks)
            records_append(IterationRecord(i, start, compute_end, end,
                                           ran_on, overhead, event))
            i += 1

        result.makespan = t
        result.final_active = tuple(active)
        return result

    # -- hooks ------------------------------------------------------------

    def _setup(self, active: "list[int]",
               chunks: "dict[int, float]") -> SimPlan:
        """Bind the run's :class:`SimPlan` and reset per-run state.

        Each strategy lowers through its own module's ``lower`` name, so
        the lowering is visible (and patchable) where the strategy is.
        """
        raise NotImplementedError

    def _before_iteration(self, t: float, i: int, active: "list[int]",
                          chunks: "dict[int, float]"):
        """Adapt at the boundary before an attempt at iteration ``i``.

        Returns the advanced ``(t, active, chunks)``.
        """
        return t, active, chunks

    def _interruption(self, active: "list[int]", start: float,
                      compute_end: float, i: int):
        """The revocation that interrupts this attempt, as
        ``(onset, hosts)``, or ``None`` to let it finish."""
        return self._faults.earliest_onset(active, start, compute_end)

    def _on_revocation(self, t: float, hosts: "list[int]", i: int,
                       active: "list[int]", chunks: "dict[int, float]"):
        """Recover from ``hosts`` revoked at ``t``.

        Returns the advanced ``(t, active, chunks)``.
        """
        raise NotImplementedError

    def _after_iteration(self, i: int, start: float, t: float,
                         active: "list[int]", chunks: "dict[int, float]"):
        """Adapt after iteration ``i`` (begun at ``start``) ended at ``t``.

        Returns ``(t, active, chunks, overhead, event)``: the pause
        charged and what it was (see :class:`IterationRecord`).
        """
        return t, active, chunks, 0.0, ""

    # -- shared machinery -------------------------------------------------

    def _declare(self, kind: str, t: float, iteration: int,
                 fields: dict) -> None:
        """Emit a ``fault.revocation`` or ``fault.stall`` record of
        ``fields`` (``host`` first) and its counters; a stall also adds
        its ``stalled`` seconds.  A no-op when nothing observes."""
        if not self._splan.obs_on:
            return
        sink = self._splan.sink
        sink.record("fault." + kind, t, self.name, iteration, fields)
        sink.count(f"faults.{kind}s_total")
        if kind == "stall":
            sink.count("faults.stall_seconds_total", fields["stalled"])

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
