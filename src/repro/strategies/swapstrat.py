"""MPI process swapping (the paper's "SWAP" technique).

The application over-allocates the *entire* platform pool (``N`` active
plus ``M = P - N`` spares, each costing 0.75 s of MPI startup), runs on
the ``N`` fastest hosts, and after every iteration lets the swap manager
apply the configured policy: exchange the slowest active processor(s) for
the fastest spare(s) if the policy's gates pass.  A swap pauses the whole
application while the process state images cross the shared link
("data redistribution is not allowed", so the incoming process inherits
the outgoing process's chunk unchanged).

Under fault injection the spare pool doubles as a fault-tolerance
mechanism: when an active host is revoked, SWAP *forces* a promotion of
the fastest surviving spare, paying the normal ``alpha + size/beta`` swap
cost per state image with retry gating for transient transfer failures
(each failed attempt times out after a full transfer duration).  A
revocation detected mid-iteration interrupts the iteration at its onset:
the partial work is lost and the iteration re-runs on the repaired set.
If no live spare remains -- or the retries are exhausted -- the stall is
*declared* (a ``fault.stall`` record) and the application waits for the
host to return, exactly like NOTHING.

SWAP runs the one BSP loop, :meth:`~repro.strategies.base.Strategy.run`,
and states its adaptation through the loop's hooks.  Its variants --
:class:`~repro.strategies.spawnswap.SpawnSwapStrategy`
(MPI-2 spawning instead of over-allocation) and
:class:`~repro.contracts.strategy.ContractSwapStrategy` (GrADS contract
gating) -- are subclasses that state only how they differ, through
:attr:`SwapStrategy.overallocates` and :meth:`SwapStrategy._open_contract`,
so faults, traces and lowering reach them unchanged.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.decision import decide_swaps
from repro.core.policy import PolicyParams, greedy_policy
from repro.faults.recovery import (TransferSequencer, attempt_transfer,
                                   promote_spares)
from repro.platform.cluster import Platform
from repro.simkernel.plan import SimPlan, lower
from repro.strategies.base import Strategy

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.contracts.monitor import ContractMonitor


class SwapStrategy(Strategy):
    """Process swapping with a pluggable policy (greedy by default)."""

    name = "swap"

    #: Launch every pool process up front.  The spawn variant launches
    #: only the ``N`` working processes and spawns each swap-in on
    #: demand, paying ``platform.startup_per_process`` per swap epoch
    #: and per forced promotion.
    overallocates = True

    def __init__(self, policy: PolicyParams | None = None) -> None:
        self.policy = policy or greedy_policy()
        self.name = f"{type(self).name}-{self.policy.name}"

    def _open_contract(self, platform: Platform, active: "list[int]",
                       chunks: "dict[int, float]",
                       comm_time: float) -> "ContractMonitor | None":
        """The run's performance contract, or ``None`` (plain SWAP).

        ``None`` evaluates the policy after every iteration but the
        last.  A monitor observes every iteration's duration, the policy
        runs only when it reports a violation, and
        :meth:`_after_evaluation` renegotiates it after each evaluation.
        """
        return None

    def _after_evaluation(self, monitor, platform, decision, swapped,
                          active, chunks, comm_time, t) -> None:
        """Renegotiate ``monitor`` after a policy evaluation at ``t``."""
        raise NotImplementedError

    # -- loop hooks --------------------------------------------------------

    def _setup(self, active, chunks) -> SimPlan:
        platform = self._platform
        splan = lower(platform, self._app)
        self._sequencer = TransferSequencer()
        self._declared_until: "dict[int, float]" = {}
        self._pool = list(range(len(platform)))
        # Without over-allocation each swap-in spawns its process.
        self._spawn = 0.0 if self.overallocates \
            else platform.startup_per_process
        # What one move must pay back; ``x + 0.0 == x`` keeps plain
        # SWAP's cost exact.
        self._swap_cost_one = platform.link.transfer_time(
            self._app.state_bytes) + self._spawn
        self._monitor = self._open_contract(platform, active, chunks,
                                            self._comm_time)
        # Spare pool cache: the complement of ``active`` in ``pool`` only
        # changes when the active set does (keyed on the list's
        # identity), so most epochs skip the membership scan.
        self._spares_for: "list[int] | None" = None
        self._spares_base: "list[int]" = []
        return splan

    def _before_iteration(self, t, i, active, chunks):
        plan = self._faults
        if plan is not None:
            # Boundary recovery: replace actives revoked right now
            # (skipping hosts whose stall was already declared).
            declared_until = self._declared_until
            victims = [h for h in plan.revoked_at(t, active)
                       if declared_until.get(h, -1.0) <= t]
            if victims:
                return self._on_revocation(t, victims, i, active, chunks)
        return t, active, chunks

    def _interruption(self, active, start, compute_end, i):
        # Actives already revoked at the start have a declared stall;
        # only the others can interrupt the attempt.
        plan = self._faults
        return plan.earliest_onset(plan.alive(active, start), start,
                                   compute_end)

    def _after_iteration(self, i, start, t, active, chunks):
        """Run the policy after every iteration but the last (with a
        contract, only after a violation)."""
        iter_end = t
        overhead = 0.0
        event = ""
        evaluate = i < self._app.iterations
        monitor = self._monitor
        if monitor is not None:
            evaluate = monitor.observe(iter_end - start) and evaluate
        if not evaluate:
            return t, active, chunks, overhead, event
        plan = self._faults
        platform = self._platform
        app = self._app
        policy = self.policy
        splan = self._splan
        obs_on = splan.obs_on
        if active is not self._spares_for:
            self._spares_base = [h for h in self._pool if h not in active]
            self._spares_for = active
        spares = self._spares_base
        if plan is not None:
            # A revoked spare is not a viable swap-in candidate.
            spares = plan.alive(spares, t)
        rates = splan.decision_rates(t, policy.history_window, active)
        decision = decide_swaps(active, spares, rates, chunks,
                                self._comm_time, self._swap_cost_one, policy)
        if obs_on:
            splan.sink.decision(t, self.name, i, policy.name, decision,
                                active, spares)
        if decision.moves:
            spawn = self._spawn
            if plan is None:
                moves = decision.moves
                n_moves = len(moves)
                # Spawns proceed concurrently on distinct hosts; the
                # state images then serialize on the single shared link.
                overhead = spawn + platform.link.serialized_time(
                    n_moves * app.state_bytes, n_moves)
                active = decision.active_set_after(active)
            else:
                moves, overhead = self._attempt_moves(
                    plan, self._sequencer, decision.moves, platform.link,
                    app.state_bytes, t + spawn, i)
                overhead = spawn + overhead
                for move in moves:
                    active = [move.in_host if h == move.out_host else h
                              for h in active]
            result = self._result
            if moves:
                event = "swap"
                detail = ", ".join(f"{m.out_host}->{m.in_host}"
                                   for m in moves)
                chunks = {h: app.chunk_flops for h in active}
                result.swap_count += len(moves)
                result.overhead_time += overhead
                t += overhead
                result.progress.record(t, i, "swap", detail)
                for move in moves if obs_on else ():
                    splan.sink.record("swap", t, self.name, i, {
                        "out_host": move.out_host, "in_host": move.in_host,
                        "process_improvement": move.process_improvement,
                        "app_improvement": move.app_improvement,
                        "payback": move.payback, "start": iter_end,
                        "end": t})
            elif overhead > 0.0:
                # Every accepted move failed its transfer; the pause
                # was still paid.
                result.overhead_time += overhead
                t += overhead
        if monitor is not None:
            self._after_evaluation(monitor, platform, decision,
                                   event == "swap", active, chunks,
                                   self._comm_time, t)
        return t, active, chunks, overhead, event

    # -- fault recovery ----------------------------------------------------

    def _on_revocation(self, t, victims, iteration, active, chunks):
        """Forced promotion of the fastest surviving spares.

        Emits one ``fault.revocation`` per victim, then resolves each:
        a successful promotion emits ``fault.recovery`` (and counts as a
        swap), a failed or impossible one a declared ``fault.stall``.
        Returns the advanced ``(t, active, chunks)``.
        """
        plan = self._faults
        result = self._result
        obs_on = self._splan.obs_on
        sink = self._splan.sink
        for h in sorted(victims):
            self._declare("revocation", t, iteration,
                          {"host": h, "until": plan.return_time(h, t)})
        spares = plan.alive([h for h in self._pool if h not in active], t)
        rates = self._splan.predicted_rates(t, self.policy.history_window,
                                            indices=spares)
        promotions, unfilled = promote_spares(victims, spares, rates)
        for out_host, in_host in promotions:
            start = t
            elapsed, ok, attempts = attempt_transfer(
                plan, self._sequencer, self._swap_cost_one)
            t += elapsed
            result.overhead_time += elapsed
            if attempts > 1 and obs_on:
                sink.count("faults.transfer_failures_total", attempts - 1)
            if ok:
                active = [in_host if h == out_host else h for h in active]
                # The rebuild deliberately preserves the active-slot
                # order so the promoted host inherits the outgoing
                # host's position (and its chunk) deterministically.
                chunks = {in_host if h == out_host else h: f
                          for h, f in chunks.items()}
                result.swap_count += 1
                if obs_on:
                    sink.record("fault.recovery", t, self.name, iteration, {
                        "action": "swap-promote", "out_host": out_host,
                        "in_host": in_host, "attempts": attempts,
                        "start": start, "end": t})
                    sink.count("faults.recoveries_total")
                result.progress.record(t, iteration - 1, "swap",
                                       f"promote {out_host}->{in_host}")
            else:
                self._declare_stall(t, iteration, out_host, "transfer-failed")
        for h in unfilled:
            self._declare_stall(t, iteration, h, "no-spare")
        return t, active, chunks

    def _declare_stall(self, t, iteration, host, reason) -> None:
        """Give up on recovering ``host`` until its revocation ends."""
        until = self._faults.return_time(host, t)
        if until <= t:
            # The host returned while we were retrying: resolved by wait.
            if self._splan.obs_on:
                sink = self._splan.sink
                sink.record("fault.recovery", t, self.name, iteration,
                            {"action": "returned", "host": host})
                sink.count("faults.recoveries_total")
            return
        self._declared_until[host] = until
        self._declare("stall", t, iteration,
                      {"host": host, "stalled": until - t, "reason": reason})
        self._result.progress.record(t, iteration - 1, "stall",
                                     f"host{host} revoked ({reason})")

    def _attempt_moves(self, plan, sequencer, moves, link, state_bytes, t,
                       iteration):
        """Run each accepted performance move through transfer retries.

        Returns ``(applied_moves, total_overhead)``.  Failed moves are
        dropped (the outgoing process keeps running) but their timed-out
        attempts still cost link time: all attempt payloads -- successful
        or not -- serialize on the shared link with one pipelined latency,
        the exact batch formula of the fault-free path.  With every move
        succeeding on its first attempt the overhead is therefore
        bit-identical to ``serialized_time(n_moves * state_bytes,
        n_moves)``.
        """
        applied = []
        attempts_total = 0
        overhead = 0.0
        obs_on = self._splan.obs_on
        sink = self._splan.sink
        for move in moves:
            # Cost 0 here: the whole batch is priced once, below.
            _elapsed, ok, attempts = attempt_transfer(plan, sequencer, 0.0)
            attempts_total += attempts
            overhead = link.serialized_time(attempts_total * state_bytes,
                                            attempts_total)
            if attempts > 1 and obs_on:
                sink.count("faults.transfer_failures_total", attempts - 1)
            if ok:
                applied.append(move)
            elif obs_on:
                sink.record("fault.transfer_failed", t + overhead,
                            self.name, iteration,
                            {"out_host": move.out_host,
                             "in_host": move.in_host, "attempts": attempts})
                sink.count("faults.transfer_aborts_total")
        return applied, overhead
