"""Checkpoint/restart (the paper's "CR" technique).

"At each iteration, the execution rate is analyzed.  If performance can
be increased by using another set of processors, based on the same
criteria used to evaluate process swapping decisions, the application is
checkpointed. ... application state information is written to a central
location.  Upon application restart, the checkpoint is read by each
process, and execution resumes.  Our simulations account for the overhead
of writing and reading the checkpoint" plus the MPI startup of the
restarted processes.

Unlike SWAP, CR is not restricted to pairwise exchanges: a restart may
move the whole application to the ``N`` currently-fastest hosts of the
pool.  It pays for that freedom with a much larger reconfiguration cost
(2 x N state images over the shared link, plus startup).

Under fault injection the checkpoint doubles as the recovery mechanism:
when an active host is revoked, CR re-reads the last checkpoint from the
central store (waiting out a store outage first, if one is in progress)
and restarts on the ``N`` fastest *surviving* hosts -- paying the read
plus MPI startup, but not the write (the checkpoint already exists; the
interrupted iteration's partial work is lost and re-runs).  Performance
restarts are additionally gated on store availability: a migration whose
checkpoint write would hit an outage is deferred to a later epoch.
"""

from __future__ import annotations

from repro.app.iterative import ApplicationSpec
from repro.core.decision import evaluate_reconfiguration
from repro.core.policy import PolicyParams, greedy_policy
from repro.platform.cluster import Platform
from repro.simkernel.plan import SimPlan, lower
from repro.strategies.base import Strategy


class CrStrategy(Strategy):
    """Whole-set migration via checkpoint/restart, policy-gated."""

    name = "cr"

    def __init__(self, policy: PolicyParams | None = None) -> None:
        self.policy = policy or greedy_policy()
        if self.policy.name != "greedy":
            self.name = f"cr-{self.policy.name}"

    def restart_cost(self, platform: Platform, app: ApplicationSpec) -> float:
        """Checkpoint write + MPI restart + checkpoint read."""
        n = app.n_processes
        write = platform.link.serialized_time(n * app.state_bytes, n)
        read = platform.link.serialized_time(n * app.state_bytes, n)
        return write + platform.startup_time(n) + read

    def recovery_cost(self, platform: Platform, app: ApplicationSpec) -> float:
        """Fault restart: checkpoint read + MPI startup (no write -- the
        checkpoint already sits in the central store)."""
        n = app.n_processes
        read = platform.link.serialized_time(n * app.state_bytes, n)
        return read + platform.startup_time(n)

    # -- loop hooks --------------------------------------------------------

    def _setup(self, active, chunks) -> SimPlan:
        self._cost = self.restart_cost(self._platform, self._app)
        return lower(self._platform, self._app)

    def _before_iteration(self, t, i, active, chunks):
        plan = self._faults
        if plan is not None:
            victims = plan.revoked_at(t, active)
            if victims:
                return self._on_revocation(t, victims, i, active, chunks)
        return t, active, chunks

    def _after_iteration(self, i, start, t, active, chunks):
        """Run the policy-gated whole-set restart after every iteration
        but the last."""
        if i >= self._app.iterations:
            return t, active, chunks, 0.0, ""
        plan = self._faults
        app = self._app
        policy = self.policy
        cost = self._cost
        chunk = app.chunk_flops
        comm_time = self._comm_time
        n = app.n_processes
        rates = self._splan.predicted_rates(t, policy.history_window)
        # The candidates are the N fastest hosts of the pool -- under
        # faults, of the hosts alive at ``t`` (no performance restart
        # when fewer than N are).  Ranked from the (t, window) rates
        # just predicted: a host's rate is the same float whichever
        # hosts a map covers.  The pool iterates in ascending index
        # order and a reverse sort is stable, so this matches the
        # ``(-rate, index)`` ranking without per-key tuples.
        pool = (rates if plan is None
                else plan.alive(range(len(self._platform)), t))
        if len(pool) < n:
            return t, active, chunks, 0.0, ""
        candidate = sorted(pool, key=rates.__getitem__, reverse=True)[:n]
        if set(candidate) == set(active):
            return t, active, chunks, 0.0, ""
        # ``max(chunk / r)`` is the division by the minimal rate -- same
        # operation on the same operands.
        old_iter = chunk / min(map(rates.__getitem__, active)) + comm_time
        new_iter = chunk / min(map(rates.__getitem__, candidate)) + comm_time
        check = evaluate_reconfiguration(old_iter, new_iter, cost, policy)
        obs_on = self._splan.obs_on
        sink = self._splan.sink
        if obs_on:
            sink.check(t, self.name, i, policy.name, check, cost, active,
                       candidate)
        if not check.accepted:
            return t, active, chunks, 0.0, ""
        if plan is not None and not plan.store_available(t):
            # The checkpoint write would hit the outage: defer the
            # migration to a later epoch.
            if obs_on:
                sink.record("fault.store_outage", t, self.name, i,
                            {"action": "deferred",
                             "until": plan.store_ready_time(t)})
                sink.count("faults.store_outage_deferrals_total")
            return t, active, chunks, 0.0, ""
        result = self._result
        start_t = t
        result.restart_count += 1
        result.overhead_time += cost
        t += cost
        result.progress.record(t, i, "checkpoint")
        if obs_on:
            sink.record("checkpoint", t, self.name, i,
                        {"new_active": tuple(candidate), "cost": cost,
                         "start": start_t, "end": t})
            sink.count("cr.restarts_total")
        return t, candidate, {h: chunk for h in candidate}, cost, "checkpoint"

    # -- helpers -----------------------------------------------------------

    def _on_revocation(self, t, victims, iteration, active, chunks):
        """Recover from revoked actives: re-read the checkpoint, restart.

        Waits out checkpoint-store outages (and, if fewer than ``N``
        hosts survive, host returns) before paying the recovery cost.
        Returns the advanced ``(t, active, chunks)``.
        """
        plan = self._faults
        platform = self._platform
        app = self._app
        result = self._result
        obs_on = self._splan.obs_on
        sink = self._splan.sink
        for h in sorted(victims):
            self._declare("revocation", t, iteration,
                          {"host": h, "until": plan.return_time(h, t)})
        n = app.n_processes
        pool = range(len(platform))
        while True:
            alive = plan.alive(pool, t)
            if len(alive) >= n:
                break
            # Not enough survivors: a declared stall until a host returns.
            ret = min(plan.return_time(h, t)
                      for h in plan.revoked_at(t, pool))
            for h in sorted(victims):
                self._declare("stall", t, iteration,
                              {"host": h, "stalled": ret - t,
                               "reason": "insufficient-hosts"})
            result.overhead_time += ret - t
            t = ret
        ready = plan.store_ready_time(t)
        if ready > t:
            if obs_on:
                sink.record("fault.store_outage", t, self.name, iteration,
                            {"action": "waited", "until": ready,
                             "waited": ready - t})
                sink.count("faults.store_outage_waits_total")
            result.overhead_time += ready - t
            t = ready
        rates = self._splan.predicted_rates(t, self.policy.history_window,
                                            indices=alive)
        candidate = sorted(alive, key=lambda h: (-rates[h], h))[:n]
        cost = self.recovery_cost(platform, app)
        start = t
        t += cost
        result.restart_count += 1
        result.overhead_time += cost
        if obs_on:
            sink.record("fault.recovery", t, self.name, iteration,
                        {"action": "cr-restart",
                         "hosts": tuple(sorted(victims)),
                         "new_active": tuple(candidate), "cost": cost,
                         "start": start, "end": t})
            sink.count("faults.recoveries_total")
        result.progress.record(t, iteration - 1, "checkpoint",
                               "fault restart")
        return t, candidate, {h: app.chunk_flops for h in candidate}
