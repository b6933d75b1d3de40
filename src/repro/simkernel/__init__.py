"""Discrete-event simulation kernel.

This package plays the role that the SimGrid toolkit played in the paper:
it provides a simulated clock, an event heap, generator-coroutine
processes, and waitable synchronization primitives.  The platform model
(:mod:`repro.platform`) and the simulated MPI layer (:mod:`repro.smpi`)
are built on top of it.

Public API
----------

* :class:`~repro.simkernel.engine.Simulator` -- the event loop and clock.
* :class:`~repro.simkernel.events.Event`, :class:`~repro.simkernel.events.Timeout`,
  :class:`~repro.simkernel.events.AnyOf`, :class:`~repro.simkernel.events.AllOf`
  -- waitable events.
* :class:`~repro.simkernel.process.Process`,
  :class:`~repro.simkernel.process.Interrupt` -- coroutine processes.
* :class:`~repro.simkernel.resources.Store`,
  :class:`~repro.simkernel.resources.Mailbox` -- synchronization.
* :class:`~repro.simkernel.rng.RngRegistry` -- named, reproducible random
  number streams.
"""

from repro.simkernel.engine import Simulator
from repro.simkernel.events import AllOf, AnyOf, Event, Timeout
from repro.simkernel.process import Interrupt, Process
from repro.simkernel.resources import Mailbox, Store
from repro.simkernel.rng import RngRegistry, derive_seed

__all__ = [
    "AllOf",
    "AnyOf",
    "Event",
    "Interrupt",
    "Mailbox",
    "Process",
    "RngRegistry",
    "Simulator",
    "Store",
    "Timeout",
    "derive_seed",
]
