"""The swap decision engine.

"All three policies, when they decide to swap, swap the slowest active
processor(s) for the fastest inactive processor(s)."  (Section 4.2)

:func:`decide_swaps` implements that procedure: repeatedly propose
replacing the currently slowest active processor with the fastest unused
spare, accept the move only if it passes every gate the policy defines
(process improvement, application improvement, payback threshold), and
stop at the first rejected proposal.

:func:`evaluate_reconfiguration` is the reusable gate; the
checkpoint/restart strategy applies it to whole-set migrations "based on
the same criteria used to evaluate process swapping decisions"
(Section 6).
"""

from __future__ import annotations

from typing import Mapping, NamedTuple

from repro.core.payback import iterations_to_break_even
from repro.core.policy import PolicyParams
from repro.errors import PolicyError

# The record types below are NamedTuples rather than frozen dataclasses:
# they carry the same immutable, keyword-constructed, attribute-read
# semantics, but allocate as plain tuples -- decide_swaps creates several
# per epoch on the sweep hot path, where the frozen-dataclass
# ``object.__setattr__``-per-field protocol measurably dominates.  On that
# path they are built with ``tuple.__new__`` directly (every field given),
# which skips the generated ``__new__``'s argument binding.
_new = tuple.__new__


class ReconfigurationCheck(NamedTuple):
    """Outcome of gating one proposed reconfiguration."""

    accepted: bool
    app_improvement: float
    """Relative application performance gain (new_perf/old_perf - 1)."""
    payback: float
    """Payback distance in iterations (may be inf or negative)."""
    reason: str
    """Why the proposal was rejected ("" when accepted)."""


class GateOutcome(NamedTuple):
    """One gate evaluation from a decision epoch (the audit trail).

    Every proposal :func:`decide_swaps` considers leaves exactly one of
    these, whether it was committed or not -- the observability layer
    (:mod:`repro.obs`) serializes them so a trace shows *why* each epoch
    swapped or declined.
    """

    out_host: int
    in_host: int
    gate: str
    """Which gate settled the proposal: ``"process"`` (per-process
    improvement threshold), ``"application"`` (the
    :func:`evaluate_reconfiguration` gates), or ``"accepted"``."""
    accepted: bool
    reason: str
    """Why the proposal was rejected ("" when accepted)."""
    process_improvement: float
    app_improvement: "float | None" = None
    """Relative application gain (None when the process gate failed
    first and the application-level gates never ran)."""
    payback: "float | None" = None
    """Payback distance in iterations (None, same as above)."""

    def to_record(self) -> dict:
        """A JSON-ready dict for trace emission."""
        return {"out_host": self.out_host, "in_host": self.in_host,
                "gate": self.gate, "accepted": self.accepted,
                "reason": self.reason,
                "process_improvement": self.process_improvement,
                "app_improvement": self.app_improvement,
                "payback": self.payback}


class SwapMove(NamedTuple):
    """One accepted processor exchange."""

    out_host: int
    """Platform index of the active host being retired to the spare pool."""
    in_host: int
    """Platform index of the spare host becoming active."""
    process_improvement: float
    """Relative rate gain of the swapped process."""
    app_improvement: float
    """Relative application gain of this individual move."""
    payback: float
    """Payback distance of this individual move, in iterations."""


class SwapDecision(NamedTuple):
    """Result of one decision epoch."""

    moves: "tuple[SwapMove, ...]" = ()
    old_iteration_time: float = 0.0
    """Predicted iteration time with the pre-decision active set."""
    new_iteration_time: float = 0.0
    """Predicted iteration time after applying all accepted moves."""
    rejected_reason: str = ""
    """The gate that ended the batch: the first rejection *after* the
    last committed move ("" only if the spare pool ran out or the
    per-decision cap was hit with every proposal accepted)."""
    gates: "tuple[GateOutcome, ...]" = ()
    """Every gate evaluation of the epoch, in proposal order."""

    @property
    def should_swap(self) -> bool:
        return bool(self.moves)

    def active_set_after(self, active: "list[int]") -> "list[int]":
        """The active set with all moves applied (order preserved)."""
        result = list(active)
        for move in self.moves:
            result[result.index(move.out_host)] = move.in_host
        return result


def evaluate_reconfiguration(old_iteration_time: float,
                             new_iteration_time: float,
                             cost: float,
                             params: PolicyParams) -> ReconfigurationCheck:
    """Gate one proposed reconfiguration with the policy's thresholds.

    Performance is measured as ``1/iteration_time``, so the application
    improvement is ``old/new - 1`` and the payback distance is
    ``cost / (old - new)``.
    """
    if old_iteration_time <= 0 or new_iteration_time <= 0:
        raise PolicyError("iteration times must be > 0")
    app_improvement = old_iteration_time / new_iteration_time - 1.0
    payback = iterations_to_break_even(cost, old_iteration_time,
                                       new_iteration_time)
    if app_improvement <= 0.0:
        return _new(ReconfigurationCheck, (False, app_improvement, payback,
                                           "no application improvement"))
    if app_improvement < params.min_app_improvement:
        return _new(ReconfigurationCheck, (
            False, app_improvement, payback,
            f"application improvement {app_improvement:.2%} below "
            f"threshold {params.min_app_improvement:.2%}"))
    if payback > params.payback_threshold:
        return _new(ReconfigurationCheck, (
            False, app_improvement, payback,
            f"payback {payback:.2f} iterations exceeds threshold "
            f"{params.payback_threshold:g}"))
    return _new(ReconfigurationCheck, (True, app_improvement, payback, ""))


def decide_swaps(active: "list[int]",
                 spares: "list[int]",
                 rates: Mapping[int, float],
                 chunk_flops: "Mapping[int, float]",
                 comm_time: float,
                 swap_cost: float,
                 params: PolicyParams) -> SwapDecision:
    """Decide which processor exchanges to perform this epoch.

    Parameters
    ----------
    active:
        Platform indices of the hosts currently running the application.
    spares:
        Platform indices of the over-allocated idle hosts.
    rates:
        Predicted effective compute rate (flop/s) of every host in
        ``active + spares``, already filtered through the policy's history
        window by the caller.  Either a plain mapping, validated up front
        and scanned in full, or a *bounded rate source*: a mapping that
        computes rates on read, raises :class:`PolicyError` for a missing
        or non-positive rate, and offers ``ranked(candidates)``: an
        iterator over the candidates in exactly the order repeated
        ``max(rest, key=rates.__getitem__)`` picks them, free to skip
        evaluating those that provably cannot come next (see
        :class:`repro.load.kernels.RateView`).
    chunk_flops:
        Compute work per iteration of the process on each active host.  A
        swapped-in host inherits the outgoing host's chunk (the paper
        forbids data redistribution).
    comm_time:
        Predicted duration of the iteration's communication phase.
    swap_cost:
        Time to transfer one process state image (``alpha + size/beta``).
    params:
        The policy.

    Returns
    -------
    SwapDecision
        Accepted moves in order; empty if the first proposal failed a gate.
    """
    if not active:
        raise PolicyError("active set is empty")
    ranked = getattr(rates, "ranked", None)
    if ranked is None:
        has_rate = rates.__contains__
        if not (all(map(has_rate, active)) and all(map(has_rate, spares))):
            missing = [h for h in list(active) + list(spares)
                       if h not in rates]
            raise PolicyError(f"no predicted rate for hosts {missing}")
        if min(rates.values()) <= 0:
            for host, rate in rates.items():
                if rate <= 0:
                    raise PolicyError(
                        f"non-positive rate {rate} for host {host}")
    else:
        # ``available`` only ever loses the proposal just taken from
        # this ranking, so its next item is ``max(available, ...)``.
        fastest_first = ranked(spares)

    # Copy-on-write: the working sets are only duplicated once a move is
    # actually applied -- the common no-swap epoch touches nothing.
    current = active
    chunks = chunk_flops
    available = spares
    rate_of = rates.__getitem__
    max_swaps = params.max_swaps_per_decision
    min_process_improvement = params.min_process_improvement
    rejected_reason = ""

    # Build a *batch* of tentative moves (slowest active <-> fastest
    # spare), then commit the longest prefix whose cumulative effect
    # passes the application-level gates.  Per-move gating would deadlock
    # on tied actives: replacing one of several equally slow processors
    # yields no application gain until its peers are replaced too, yet
    # the paper's policies explicitly swap "the slowest active
    # processor(s) for the fastest inactive processor(s)" (plural).
    candidates: list[SwapMove] = []
    gates: list[GateOutcome] = []
    committed = 0

    # Slowest active processor = largest predicted compute time (ties
    # resolve to the first maximum, like a stable descending sort).  One
    # fused scan yields both the next victim and the predicted iteration
    # time (slowest compute plus communication); it reruns only after a
    # tentative move changes the active set.
    victim = current[0]
    worst = chunks[victim] / rates[victim]
    for h in current:
        v = chunks[h] / rates[h]
        if v > worst:
            worst = v
            victim = h
    original_iter = committed_iter = worst + comm_time

    # ``rejected_reason`` tracks the first rejection since the last
    # *committed* move: that is the gate that stopped the accepted prefix
    # from growing.  It resets on every acceptance, so when the epoch
    # ends it either names the gate that ended the batch or stays ""
    # (spare pool exhausted / per-decision cap with nothing rejected).
    while available:
        if max_swaps is not None and len(candidates) >= max_swaps:
            break
        out_host = victim
        if ranked is None:
            in_host = max(available, key=rate_of)
        else:
            in_host = next(fastest_first)

        process_improvement = rates[in_host] / rates[out_host] - 1.0
        if process_improvement <= 0.0:
            reason = "fastest spare is no faster than slowest active"
            gates.append(_new(GateOutcome, (
                out_host, in_host, "process", False, reason,
                process_improvement, None, None)))
            if not rejected_reason:
                rejected_reason = reason
            break
        if process_improvement < min_process_improvement:
            reason = (
                f"process improvement {process_improvement:.2%} below "
                f"threshold {min_process_improvement:.2%}")
            gates.append(_new(GateOutcome, (
                out_host, in_host, "process", False, reason,
                process_improvement, None, None)))
            if not rejected_reason:
                rejected_reason = reason
            break

        if current is active:
            current = list(active)
            chunks = dict(chunk_flops)
            available = list(spares)
        current[current.index(out_host)] = in_host
        chunks[in_host] = chunks.pop(out_host)
        available.remove(in_host)
        victim = current[0]
        worst = chunks[victim] / rates[victim]
        for h in current:
            v = chunks[h] / rates[h]
            if v > worst:
                worst = v
                victim = h
        new_iter = worst + comm_time
        cumulative_cost = swap_cost * (len(candidates) + 1)
        check = evaluate_reconfiguration(original_iter, new_iter,
                                         cumulative_cost, params)
        candidates.append(_new(SwapMove, (
            out_host, in_host, process_improvement,
            check.app_improvement, check.payback)))
        gates.append(_new(GateOutcome, (
            out_host, in_host,
            "accepted" if check.accepted else "application",
            check.accepted, check.reason, process_improvement,
            check.app_improvement, check.payback)))
        if check.accepted:
            committed = len(candidates)
            committed_iter = new_iter
            rejected_reason = ""
        elif not rejected_reason:
            rejected_reason = check.reason

    return _new(SwapDecision, (tuple(candidates[:committed]), original_iter,
                               committed_iter, rejected_reason,
                               tuple(gates)))
