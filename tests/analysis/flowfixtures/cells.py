"""The fixture's cell entry point.

``compute`` reaches :func:`flowfixtures.state.remember` (a shared-state
mutation the effect inference must see) and iterates a set literal on
its way into the schedule sink (SF003).  ``replay`` feeds the trace sink
from dict views, which iterate in insertion order: not a finding.
"""

from flowfixtures import kernel, state


def compute(cell):
    state.remember(cell, cell * 2)
    sim = kernel.Sim()
    for item in {cell, cell + 1}:
        sim._schedule(item, 1.0)
    return cell


def replay(chunks):
    for host in chunks.keys():
        kernel.emit("host", host)
    for host, share in chunks.items():
        kernel.emit(host, share)
    return [kernel.emit("share", share) for share in chunks.values()]
