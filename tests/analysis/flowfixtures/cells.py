"""The fixture's cell entry point.

``compute`` reaches :func:`flowfixtures.state.remember` (a shared-state
mutation the effect inference must see) and iterates a set literal on
its way into the schedule sink (SF003).
"""

from flowfixtures import kernel, state


def compute(cell):
    state.remember(cell, cell * 2)
    sim = kernel.Sim()
    for item in {cell, cell + 1}:
        sim._schedule(item, 1.0)
    return cell
