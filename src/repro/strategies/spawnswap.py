"""Swapping via dynamic process spawning (the paper's MPI-2 alternative).

Section 3: "MPI-2 has support for adding and removing processors during
application execution ... the latest Grid-enabled implementation of MPI,
MPICH-G, supports the dynamic addition and removal of processes as
specified in the MPI-2 standard; this could remove the need for
over-allocation."  And Section 7.1 notes the cost that motivates it:
"for very short-running applications, the additional cost of
over-allocation causes SWAP to perform worse than other techniques.  An
over-allocation of 30 processors adds approximately 20 seconds to the
application startup time."

:class:`SpawnSwapStrategy` evaluates that design point: the application
launches only its ``N`` working processes (no spare processes idle on
the pool), and each accepted swap additionally pays one process *spawn*
(0.75 s of MPI startup) on the incoming host before the state transfer.
Decision-making is identical to :class:`SwapStrategy` -- the platform's
monitoring infrastructure still observes every host -- and so is the
loop: the variant only flips :attr:`SwapStrategy.overallocates`, which
launches ``N`` processes instead of the pool, adds the spawn to the
per-move cost the policy and forced promotions pay, and charges one
spawn (concurrent on distinct hosts) per epoch with moves.
"""

from __future__ import annotations

from repro.strategies.swapstrat import SwapStrategy


class SpawnSwapStrategy(SwapStrategy):
    """Process swapping without over-allocation: spawn spares on demand."""

    name = "swap-spawn"
    overallocates = False
