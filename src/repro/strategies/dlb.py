"""Dynamic load balancing (the paper's "DLB" technique).

"The DLB strategy redistributes work at each iteration so that the
iteration times of all the processors are perfectly balanced given their
respective performance. ... We do not account for the overhead of doing
the actual load balancing ... Consequently, the application execution
times we obtain in our simulation for DLB are lower bounds on what could
be obtained in practice."

The partition uses each host's performance *observed at the start of the
iteration*; if the environment shifts mid-iteration the application "is
left computing a lot of work on a (suddenly) slow processor" -- the
behaviour behind DLB's poor showing in dynamic environments (Fig. 4).

Under fault injection DLB shrinks onto the survivors: it allocates no
spares, so when one of its members is revoked it repartitions the full
iteration workload over the members still standing (at the same zero
redistribution cost as its regular rebalances -- a lower bound, as the
paper's DLB model is throughout).  A mid-iteration revocation interrupts
the iteration at its onset (partial work lost, re-run on the survivors);
a returning member rejoins the partition at the next boundary.  If every
member is revoked at once the run stalls -- declared per member -- until
the first one returns.
"""

from __future__ import annotations

from repro.simkernel.plan import SimPlan, lower
from repro.strategies.base import Strategy

#: Seconds of history behind the partitioning rate estimates: 0 is the
#: instantaneous rate, the paper's model.
MEASUREMENT_WINDOW = 0.0


class DlbStrategy(Strategy):
    """Perfect per-iteration repartitioning at zero redistribution cost."""

    name = "dlb"

    def _setup(self, active, chunks) -> SimPlan:
        self._members = active
        self._down: "set[int]" = set()
        return lower(self._platform, self._app)

    def _before_iteration(self, t, i, active, chunks):
        """Repartition the iteration over the members standing at ``t``."""
        splan = self._splan
        members = self._members
        if splan.fault_free:
            active = members
        else:
            t = self._sync_membership(t, i)
            active = [h for h in members if h not in self._down]
        rates = splan.predicted_rates(t, MEASUREMENT_WINDOW, indices=active)
        if splan.fault_free:
            chunks = self._app.proportional_chunks(rates)
        else:
            total_rate = sum(rates.values())
            flops = self._app.flops_per_iteration
            chunks = {h: flops * rates[h] / total_rate for h in active}
        if splan.obs_on:
            splan.sink.rebalance(t, self.name, i, active, chunks, rates)
        return t, active, chunks

    def _on_revocation(self, t, hosts, i, active, chunks):
        """Drop the victims; the next attempt runs on the survivors."""
        for h in sorted(hosts):
            self._drop_member(t, i, h)
        return t, active, chunks

    # -- fault handling ----------------------------------------------------

    def _drop_member(self, t, iteration, host) -> None:
        """Declare ``host`` revoked and repartition over the survivors."""
        until = self._faults.return_time(host, t)
        self._declare("revocation", t, iteration,
                      {"host": host, "until": until})
        self._down.add(host)
        if self._splan.obs_on:
            sink = self._splan.sink
            sink.record("fault.recovery", t, self.name, iteration,
                        {"action": "dlb-repartition", "hosts": (host,),
                         "cost": 0.0})
            sink.count("faults.recoveries_total")
        self._result.progress.record(t, iteration - 1, "stall",
                                     f"host{host} revoked, repartition")

    def _sync_membership(self, t, i) -> float:
        """Boundary membership update: drop newly revoked members, rejoin
        returned ones; if nobody is left, stall until the first return.

        One :meth:`~repro.faults.plan.FaultPlan.revoked_at` query per
        boundary and per stall step answers for every member."""
        plan = self._faults
        members = self._members
        down = self._down
        obs_on = self._splan.obs_on
        sink = self._splan.sink
        revoked = plan.revoked_at(t, members)
        for h in members:
            if h in revoked:
                if h not in down:
                    self._drop_member(t, i, h)
            elif h in down:
                down.discard(h)
                if obs_on:
                    sink.record("fault.return", t, self.name, i,
                                {"host": h})
                    sink.count("faults.returns_total")
        while all(h in down for h in members):
            ret = min(plan.return_time(h, t) for h in members)
            for h in sorted(members):
                self._declare("stall", t, i, {"host": h, "stalled": ret - t,
                                              "reason": "all-revoked"})
            self._result.overhead_time += ret - t
            t = ret
            revoked = plan.revoked_at(t, members)
            for h in members:
                if h not in revoked and h in down:
                    down.discard(h)
                    if obs_on:
                        sink.record("fault.return", t, self.name, i,
                                    {"host": h})
                        sink.count("faults.returns_total")
        return t
