"""The per-process swap handler.

"Each MPI process is accompanied by a swap handler which is a separate
process responsible for coordination with other processes in the runtime
system."  The handler:

* forwards the application's Hello / iteration reports / Done to the
  manager over the private control communicator;
* relays the manager's verdicts (Proceed / SwapOut / SwapIn / Shutdown)
  back to the application process;
* while its process is a *spare*, periodically probes the host's CPU
  availability and reports it -- the runtime's environmental sensor (the
  role NWS played in the real prototype);
* declares the job deadlocked, with a :class:`~repro.errors.SwapError`,
  when one of its probe timers fires and every other pending event is a
  probe timer too (the probes would otherwise keep a stuck job's
  simulation alive forever).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator

from repro.errors import SwapError
from repro.simkernel.events import AnyOf, Event
from repro.swap import protocol

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.smpi.api import Rank
    from repro.swap.context import SwapContext
    from repro.swap.runtime import SwapRuntime

#: The value of every handler's probe timer, which marks it among the
#: simulator's pending events.
_PROBE = object()


def _fail_if_deadlocked(timer: Event) -> None:
    """Raise :class:`SwapError` if nothing but probe timers is pending.

    Runs as a live handler's probe timer fires, before the handler wakes.
    A probe round only sends ProbeReports, and the manager only records
    them; it replies to iteration reports and Dones.  So if every other
    pending event is a probe timer, no compute, message or timer can
    ever wake an application process again.  The check fires at the
    first probe of the round after the job stops; it cannot fire while
    the previous round's probe reports are still in flight, so it needs
    a ``probe_interval`` longer than a control message's delivery.
    """
    for event in timer.sim.pending():
        if event.value is not _PROBE:
            return
    raise SwapError(f"job deadlocked: at t={timer.sim.now:g} s every "
                    f"pending event is a handler's probe timer")


def handler_loop(runtime: "SwapRuntime", api: "Rank",
                 ctx: "SwapContext") -> Generator:
    """Event loop of one swap handler (runs as its own sim coroutine)."""
    sim = runtime.mpi.sim
    control = runtime.control_comm
    manager = control.rank_of(runtime.manager_rank)

    def to_manager(payload) -> Generator:
        yield from api.send(manager, nbytes=protocol.CONTROL_MSG_BYTES,
                            payload=payload, comm=control)

    # The application always speaks first (its Hello); forward it before
    # entering the steady-state loop so the manager can seed its monitor.
    hello = yield ctx.to_handler.get()
    yield from to_manager(hello)

    def arm() -> Event:
        timer = sim.timeout(runtime.probe_interval, _PROBE)
        timer.callbacks.append(_fail_if_deadlocked)
        return timer

    from_app = ctx.to_handler.get()
    from_manager = api.irecv(source=manager, comm=control)
    probe_timer = arm()

    try:
        while True:
            yield AnyOf(sim, [from_app, from_manager, probe_timer])

            if from_app.processed:
                item = from_app.value
                yield from to_manager(item)
                if isinstance(item, protocol.Done):
                    return  # application process finished; handler retires
                from_app = ctx.to_handler.get()

            if from_manager.processed:
                command = from_manager.value.payload
                ctx.from_handler.put(command)
                if isinstance(command, protocol.Shutdown):
                    return
                from_manager = api.irecv(source=manager, comm=control)

            if probe_timer.processed:
                # Probe regardless of role: the manager compares all hosts
                # on the same availability-based footing (an active
                # process's self-timed iteration rate also absorbs
                # communication stalls and would bias it against idle
                # spares).
                if not ctx.finished:
                    yield from to_manager(protocol.ProbeReport(
                        rank=api.world_rank,
                        availability=api.host.availability(api.now)))
                probe_timer = arm()
    finally:
        # A retired handler's last timer still fires, but checks nothing.
        if not probe_timer.processed:
            probe_timer.callbacks.remove(_fail_if_deadlocked)
