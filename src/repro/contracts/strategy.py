"""Contract-triggered process swapping.

:class:`ContractSwapStrategy` runs the same policy machinery as
:class:`~repro.strategies.swapstrat.SwapStrategy`, but only *when the
performance contract is violated* -- the GrADS execution model, where the
contract monitor gates rescheduling actions.  Between violations the
application runs undisturbed: no per-iteration policy evaluation, no
opportunistic processor hoarding (a stronger form of the friendly
policy's restraint).  The loop and the policy step are SWAP's; this
subclass supplies only the contract, through
:meth:`~repro.strategies.swapstrat.SwapStrategy._open_contract`.
"""

from __future__ import annotations

from repro.contracts.monitor import ContractMonitor, PerformanceContract
from repro.core.policy import PolicyParams
from repro.platform.cluster import Platform
from repro.strategies.swapstrat import SwapStrategy


class ContractSwapStrategy(SwapStrategy):
    """SWAP gated by a GrADS-style performance contract."""

    name = "swap-contract"

    def __init__(self, policy: PolicyParams | None = None,
                 tolerance: float = 0.2,
                 violation_window: int = 2) -> None:
        super().__init__(policy)
        self.tolerance = float(tolerance)
        self.violation_window = int(violation_window)

    def _expected_iteration(self, platform: Platform, active, chunks,
                            comm_time: float, t: float) -> float:
        """The contract's budget: predicted iteration time on ``active``."""
        rates = platform.effective_rates(
            t, window=self.policy.history_window, indices=active)
        return max(chunks[h] / rates[h] for h in active) + comm_time

    def _open_contract(self, platform, active, chunks,
                       comm_time) -> ContractMonitor:
        #: Policy evaluations actually performed (the GrADS saving).
        self.decision_evaluations = 0
        self.contract_monitor = ContractMonitor(PerformanceContract(
            expected_iteration_time=self._expected_iteration(
                platform, active, chunks, comm_time, 0.0),
            tolerance=self.tolerance,
            violation_window=self.violation_window))
        return self.contract_monitor

    def _after_evaluation(self, monitor, platform, decision, swapped,
                          active, chunks, comm_time, t) -> None:
        self.decision_evaluations += 1
        if swapped:
            monitor.renegotiate(self._expected_iteration(
                platform, active, chunks, comm_time, t))
        else:
            # No better processors exist: accept the new normal so the
            # monitor does not fire every iteration.
            monitor.renegotiate(decision.new_iteration_time)
