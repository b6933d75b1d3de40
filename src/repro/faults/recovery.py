"""Recovery helpers shared by the fault-aware strategy paths.

Each strategy owns its recovery *semantics* (promote a spare, restart
from checkpoint, repartition, stall); this module holds the mechanics
they share: fault-aware compute advancement, retry gating for transient
transfer failures, and the spare-promotion pairing that mirrors
``decide_swaps``'s candidate ordering.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Mapping, Sequence

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.faults.plan import FaultPlan
    from repro.platform.cluster import Platform


class TransferSequencer:
    """Per-run counter of state-image transfer attempts.

    Attempt numbers key :meth:`FaultPlan.transfer_fails`, so each
    strategy run observes a deterministic failure pattern that depends
    only on the seed and its own attempt count -- never on what other
    strategies in the comparison did.
    """

    __slots__ = ("seq",)

    def __init__(self) -> None:
        self.seq = 0

    def next(self) -> int:
        seq = self.seq
        self.seq += 1
        return seq


def attempt_transfer(plan: "FaultPlan", sequencer: TransferSequencer,
                     cost: float) -> "tuple[float, bool, int]":
    """Retry-gated transfer of one state image over the shared link.

    Every attempt -- including a failed one, which times out only after
    the full transfer duration -- costs ``cost`` seconds.  Gives up
    after ``plan.max_transfer_retries`` retries beyond the first try.

    Returns ``(elapsed_seconds, succeeded, attempts_made)``.
    """
    attempts = 0
    elapsed = 0.0
    while True:
        attempts += 1
        elapsed += cost
        if not plan.transfer_fails(sequencer.next()):
            return elapsed, True, attempts
        if attempts > plan.max_transfer_retries:
            return elapsed, False, attempts


def promote_spares(revoked: Sequence[int], spares: Sequence[int],
                   rates: Mapping[int, float],
                   ) -> "tuple[list[tuple[int, int]], list[int]]":
    """Pair each revoked active host with the fastest surviving spare.

    Candidates are ranked exactly like ``decide_swaps`` ranks swap-in
    candidates (predicted rate descending, platform index ascending);
    revoked hosts are filled lowest index first.  Returns
    ``(promotions, unfilled)`` where ``promotions`` is a list of
    ``(out_host, in_host)`` pairs and ``unfilled`` lists revoked hosts
    no spare was left for.
    """
    order = iter(sorted(spares, key=lambda h: (-rates.get(h, 0.0), h)))
    promotions: "list[tuple[int, int]]" = []
    unfilled: "list[int]" = []
    for out in sorted(revoked):
        in_host = next(order, None)
        if in_host is None:
            unfilled.append(out)
        else:
            promotions.append((out, in_host))
    return promotions, unfilled


def compute_finish(platform: "Platform", host: int, start: float,
                   flops: float) -> float:
    """Fault-aware :meth:`Host.compute_finish`: revoked hosts pause.

    Identical to the plain host walk when the platform carries no fault
    plan (or the host has no revocations), so fault-free paths stay
    bit-for-bit unchanged.
    """
    h = platform.host(host)
    plan = platform.faults
    if plan is None:
        return h.compute_finish(start, flops)
    return plan.advance_paused(host, h.trace, start, flops / h.speed)
